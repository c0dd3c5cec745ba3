#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer cost of the request path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decide_hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all --trace both

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer ledger (an untraced half, a traced half, and a
``sys.setprofile`` counting pass).  Every run first checks one pass's
outputs against the reference; each later pass must reproduce them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.calibrate import Chunker, loop_ns, slowdown  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("decide_hot", "score_cold", "serve_open", "decide_traced")
#: every run times at least this many passes, however short --seconds is
MIN_PASSES = 3
#: layer self times plus the harness's own time must equal the traced
#: pass's wall time within this share
ACCOUNTING_TOLERANCE = 0.01


def _bootstrap() -> None:
    """Make ``repro`` importable from src/ (the reference in tests/ and
    this package already are, from the root), or stop when this is not
    a checkout of the repo."""
    if not (os.path.isdir(os.path.join(ROOT, "src", "repro"))
            and os.path.isfile(os.path.join(ROOT, "tests", "core",
                                            "reference_impl.py"))):
        sys.stderr.write("perfbench: src/repro or tests/core/reference_impl"
                         ".py not found; run from a checkout of the repo\n")
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


# -- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git (the benchmark
    may run in a plain copy of the tree, which has none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as target:
                return target.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as pr:
            for line in pr:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy_version, "cpu": _cpu_model(), "nproc": nproc,
            "commit": _git_commit()}


# -- passes ----------------------------------------------------------------

class Run:
    """Bookkeeping shared by every pass of one workload run."""

    def __init__(self, workload, marker) -> None:
        self.workload = workload
        self.marker = marker
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected = None

    def build(self):
        """A fresh system and the wall ns it took to build."""
        gc.collect()
        start = time.perf_counter_ns()
        system = self.workload.build()
        return system, time.perf_counter_ns() - start

    def tally(self, result, label: str) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        if self.expected is None:
            self.expected = result.outputs
        elif result.outputs != self.expected:
            self.errors.append(f"{label}: outputs differ from the "
                               "verified pass")


class Reservoir:
    """A fixed-size uniform sample of a stream (Algorithm R), so the
    memory a run holds does not grow with how fast it went."""

    SIZE = 200_000

    def __init__(self) -> None:
        self.values = array("d", bytes(8 * self.SIZE))
        self.seen = 0
        self._rng = random.Random(0)

    def extend(self, values) -> None:
        size = self.SIZE
        store = self.values
        randrange = self._rng.randrange
        seen = self.seen
        for value in values:
            slot = seen if seen < size else randrange(seen + 1)
            if slot < size:
                store[slot] = value
            seen += 1
        self.seen = seen

    def sorted(self) -> list[float]:
        return sorted(self.values[:min(self.seen, self.SIZE)])


class Window:
    """One timed phase: every chunk of every pass, rescaled by the
    chunk's slowdown (see perfbench/calibrate.py)."""

    def __init__(self) -> None:
        self.passes = 0
        self.ops = 0
        self.wall_ns = 0.0
        self.raw_wall_ns = 0
        self.latencies_ns = Reservoir()
        self.setups_ns: list[float] = []
        self.raw_setups_ns: list[int] = []
        self.slowdowns: list[float] = []

    def absorb(self, run: Run, result, chunker: Chunker, before_build: int,
               setup_ns: int) -> list[float]:
        """Add one pass; returns each call's slowdown (0.0 outside any
        chunk)."""
        self.passes += 1
        self.raw_setups_ns.append(setup_ns)
        self.setups_ns.append(setup_ns / slowdown(before_build,
                                                  chunker.first_loop))
        weights = run.workload.call_ops(result)
        latencies = result.latencies_ns
        per_call = [0.0] * len(latencies)
        for first, end, wall, before, after in chunker.chunks:
            factor = slowdown(before, after)
            self.slowdowns.append(factor)
            self.ops += sum(weights[first:end])
            self.wall_ns += wall / factor
            self.raw_wall_ns += wall
            self.latencies_ns.extend(latency / factor
                                     for latency in latencies[first:end])
            per_call[first:end] = [factor] * (end - first)
        return per_call

    @property
    def ops_per_s(self) -> float:
        return self.ops * 1e9 / self.wall_ns


def quantile(ordered: list, q: float):
    """Nearest-rank quantile of an already sorted list."""
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def timed_passes(run: Run, seconds: float, recorder=None,
                 on_pass=None) -> Window:
    """Fresh build + chunked pass, repeated for ``seconds`` (at least
    :data:`MIN_PASSES` times)."""
    window = Window()
    deadline = time.perf_counter() + seconds
    while window.passes < MIN_PASSES or time.perf_counter() < deadline:
        before_build = loop_ns()
        system, setup_ns = run.build()
        if recorder is not None:
            recorder.clear()
        chunker = Chunker()
        result = run.workload.run(system, run.marker, chunker)
        label = f"{'traced ' if recorder else ''}pass {window.passes + 1}"
        run.tally(result, label)
        per_call = window.absorb(run, result, chunker, before_build,
                                 setup_ns)
        if on_pass is not None:
            on_pass(result, per_call)
    return window


# -- end-to-end run --------------------------------------------------------

def end_to_end(run: Run, seconds: float, sim: dict):
    window = timed_passes(run, seconds)
    latencies = window.latencies_ns.sorted()
    metrics = {
        "setup_s": (statistics.median(window.setups_ns) / 1e9, "s"),
        "ops_per_s": (window.ops_per_s, "1/s"),
        "p50_us": (quantile(latencies, 0.50) / 1e3, "us"),
        "p99_us": (quantile(latencies, 0.99) / 1e3, "us"),
        "sim_ns_per_op": (sim["sim_ns_per_op"], "ns"),
        "sim_req_per_us": (sim["sim_req_per_us"], "1/us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {
        "error_frac": (run.failed / run.attempted, "ratio"),
        "latency_sample": (run.workload.call, ""),
        "latency_samples": (window.latencies_ns.seen, "count"),
        "passes": (window.passes, "count"),
        "slowdown": (statistics.median(window.slowdowns), "x"),
        "raw_ops_per_s": (window.ops * 1e9 / window.raw_wall_ns, "1/s"),
        "raw_setup_s": (statistics.median(window.raw_setups_ns) / 1e9,
                        "s"),
    }
    for key in ("sim_p50_ns", "sim_p99_ns"):
        if key in sim:
            info[key] = (sim[key], "ns")
    return metrics, info


# -- per-layer run ---------------------------------------------------------

def per_layer(run: Run, seconds: float, counters: dict, out_stem: str):
    from perfbench import tracing
    from perfbench.layers import LAYERS, OTHER
    from perfbench.workcount import CallCounts

    untraced = timed_passes(run, seconds / 2)
    recorder = tracing.SpanRecorder(run.marker)
    names = recorder.names
    layers = recorder.layers
    #: the first traced pass: its spans, wrapped calls per layer and
    #: span counts
    counted: dict = {}
    self_ns = dict.fromkeys(LAYERS, 0.0)
    flush_ns: list[float] = []
    harness: list[float] = []
    spans_path = os.path.join(OUT_DIR, out_stem + ".spans.jsonl")

    def on_traced_pass(result, per_call) -> None:
        spans = recorder.completed()
        triples = [(s[1], s[2], s[3]) for s in spans]
        selfs = tracing.self_times(triples)
        error = tracing.accounting_error(triples, selfs, result.wall_ns)
        if error > ACCOUNTING_TOLERANCE:
            run.errors.append(f"traced pass: layer self times miss "
                              f"{error:.2%} of the wall time")
        roots = sum(end - start for start, end, parent in triples
                    if parent < 0)
        harness.append(1 - roots / result.wall_ns)
        calls = dict.fromkeys(LAYERS, 0)
        steps = vector_rows = 0
        calls_in_pass = len(per_call)
        for (name_id, start, end, _parent, op, size), own in \
                zip(spans, selfs):
            layer = layers[name_id]
            calls[layer] += 1
            name = names[name_id]
            if name == "SpecializedPlan.score_select_rows":
                vector_rows += size
            elif name == "Engine.step":
                steps += 1
            # spans of the final flush/drain lie outside every chunk
            factor = per_call[op] if op < calls_in_pass else 0.0
            if not factor:
                continue
            self_ns[layer] += own / factor
            if name == "VdsoTransport.flush" and size:
                flush_ns.append((end - start) / factor)
        if not counted:
            counted.update(ops=result.ops, calls=calls, steps=steps,
                           vector_rows=vector_rows, spans=spans,
                           selfs=selfs)
        recorder.clear()

    with recorder.installed():
        traced = timed_passes(run, seconds / 2, recorder, on_traced_pass)
    first = counted

    counts = CallCounts()
    system, _setup_ns = run.build()
    result = counts.profile(lambda: run.workload.run(system, run.marker))
    run.tally(result, "counting pass")

    ops = first["ops"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = (first["calls"][layer] / ops,
                                            "calls/op")
        metrics[f"{layer}.self_us_per_op"] = (
            self_ns[layer] / traced.ops / 1e3, "us/op")
        metrics[f"{layer}.py_calls_per_op"] = (
            counts.python.get(layer, 0) / result.ops, "calls/op")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sync = "score_hits" in counters
    score_probes = (counters["score_hits"] + counters["score_misses"]
                    if sync else 0)
    index_probes = counters["index_hits"] + counters["index_misses"]
    metrics.update({
        "transport.score_cache_hit_ratio": (
            ratio(counters["score_hits"], score_probes) if sync else 0.0,
            "ratio"),
        "transport.records_per_flush": (
            ratio(counters["flushed_records"], counters["flushes"])
            if sync else 0.0, "records"),
        "transport.flush_p50_us": (
            statistics.median(flush_ns) / 1e3 if flush_ns else 0.0, "us"),
        "weights.index_cache_hit_ratio": (
            ratio(counters["index_hits"], index_probes), "ratio"),
        "plans.vector_share": (
            ratio(first["vector_rows"], counters["index_misses"]), "ratio"),
        "plans.compiles": (counters["plan_compiles"], "count"),
        "admission.refused": (counters["refused"], "count"),
        "serving.batch_rows_mean": (
            ratio(counters.get("batch_rows", 0), counters.get("batches", 0)),
            "rows"),
        "serving.max_queue_depth": (counters.get("max_queue_depth", 0),
                                    "requests"),
        "serving.flush_timeouts": (counters.get("flush_timeouts", 0),
                                   "count"),
        "sim.events_per_op": (first["steps"] / ops, "events/op"),
        "obs.events_per_op": (counters["obs_events"] / ops, "events/op"),
        "obs.spans_per_op": (counters["obs_spans"] / ops, "spans/op"),
        "trace_overhead": (untraced.ops_per_s / traced.ops_per_s, "x"),
    })
    info = {
        "other.py_calls_per_op": (counts.python.get(OTHER, 0) / result.ops,
                                  "calls/op"),
        "c_calls_per_op": (counts.c_calls / result.ops, "calls/op"),
        "harness_share": (statistics.median(harness), "ratio"),
        "traced_passes": (traced.passes, "count"),
        "untraced_passes": (untraced.passes, "count"),
        "spans_file": (os.path.relpath(spans_path, ROOT), ""),
    }
    probe = getattr(run.workload, "cached_probe", None)
    if probe is not None:
        one = CallCounts()
        one.profile(probe(run.build()[0]))
        repro_calls = sum(n for layer, n in one.python.items()
                          if layer != OTHER)
        # less the profiler's own exit call
        info["cached_predict_calls"] = (
            f"{repro_calls} Python + {one.c_calls - 1} C", "")
    tracing.write_spans(spans_path, recorder, first["spans"], first["selfs"],
                        min((span[1] for span in first["spans"]), default=0))
    return metrics, info


# -- command line ----------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    from perfbench.workloads import WORKLOADS, Marker

    env = environment()
    workload = WORKLOADS[name](seed)
    run = Run(workload, Marker())
    system, _setup_ns = run.build()
    first = workload.run(system, run.marker)
    run.tally(first, "verified pass")
    run.errors.extend(workload.check(system, first))
    sim = workload.sim(system, first)
    counters = workload.counters(system)
    del system, first

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    if trace == 0:
        metrics, info = end_to_end(run, seconds, sim)
    else:
        metrics, info = per_layer(run, seconds, counters, stem)

    print(f"perfbench {name} seed={seed} trace={trace} seconds={seconds}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    width = max(len(key) for key in (*metrics, *info))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    for key, (value, unit) in info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:<{width}}  {shown} {unit}  (info)")
    for error in run.errors:
        print(f"  CHECK FAILED: {error}")
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT_DIR, stem + ".json"), "w",
              encoding="utf-8") as out:
        json.dump({**result, "workload": name, "seed": seed,
                   "seconds": seconds, "trace": trace, "env": env,
                   "info": {key: {"value": value, "unit": unit}
                            for key, (value, unit) in info.items()},
                   "errors": run.errors}, out, indent=1)
    print(json.dumps(result))
    return 0 if not run.errors else 1


def run_many(names: list[str], traces: list[int], seed: int,
             seconds: float) -> int:
    """One child process per (workload, trace), in turn."""
    combined: dict = {}
    correct = True
    attempted = failed = 0
    for name in names:
        for trace in traces:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                last = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"perfbench: {name} trace={trace} printed no result")
                correct = False
                continue
            correct = correct and last["correct"] and child.returncode == 0
            attempted += last["attempted"]
            failed += last["failed"]
            for key, metric in last["metrics"].items():
                combined[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOAD_NAMES) if args.workload == "all" \
        else [args.workload]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    if len(names) == 1 and len(traces) == 1:
        return run_workload(names[0], args.seed, args.seconds, traces[0])
    return run_many(names, traces, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
