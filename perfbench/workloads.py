"""The four workloads: how each builds the system and drives one pass.

A *pass* replays a workload's whole seeded input on a freshly built
system.  The harness times every application call from outside with
``perf_counter_ns`` and keeps each call's output, so a pass can be
checked against the reference (see :mod:`perfbench.reference`) and
every later pass of the run must reproduce the first one exactly.

Only the public API is used: ``ShardedService``, ``PSSClient``,
``AdmissionController``, ``ServingPipeline`` and the ``repro.obs``
tracer and metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core import (
    AdmissionController,
    ClientIdentity,
    LatencyModel,
    PSSConfig,
    PSSError,
    ServiceConfig,
    ShardedService,
)
from repro.core.serving.pipeline import (
    SERVE_SLO,
    ServingConfig,
    ServingPipeline,
)
from repro.obs import SLO, MetricsRegistry, Tracer

from perfbench import inputs, reference

#: the paper's boundary-crossing costs, pinned by the benchmark
LATENCY = LatencyModel(vdso_predict_ns=4.19, syscall_ns=68.0,
                       batch_record_ns=1.0)
#: update records pooled per vDSO flush
UPDATE_BATCH = 32
ENTRIES_PER_FEATURE = 1024
SHARDS = 2

#: stands in for an output when the call raised
FAILED = "failed"


def domain_config(num_features: int, weight_bits: int, salt: int
                  ) -> PSSConfig:
    """A fully pinned domain config (no field left to a library default)."""
    return PSSConfig(
        num_features=num_features, entries_per_feature=ENTRIES_PER_FEATURE,
        weight_bits=weight_bits, threshold=0,
        training_margin=int(1.93 * num_features + 14),
        update_batch_size=UPDATE_BATCH, seed=salt)


@dataclass
class System:
    """One freshly built service with whatever drives it."""

    service: ShardedService
    admission: AdmissionController
    clients: list = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    configs: list[PSSConfig] = field(default_factory=list)
    pipeline: ServingPipeline | None = None
    tracer: Tracer | None = None


@dataclass
class PassResult:
    """What one pass did, as the harness saw it."""

    #: one entry per application call; FAILED where the call raised
    outputs: list
    #: wall ns per application call
    latencies_ns: list[int]
    #: wall ns of the whole pass (calls, harness loop, final flush/drain)
    wall_ns: int
    #: operations that succeeded / were attempted
    ops: int
    attempted: int
    failed: int
    futures: list = field(default_factory=list)


class Marker:
    """The harness's current op id, read by the span wrappers."""

    op = 0


def no_pause(index: int) -> None:
    """The ``pause`` of a pass that is not split into timed chunks."""


def _chunks(count: int, size: int, pause):
    """``range``s of at most ``size`` call indices; ``pause(first)``
    runs before each and ``pause(count)`` after the last."""
    for first in range(0, count, size):
        pause(first)
        yield range(first, min(first + size, count))
    pause(count)


def _system(observed: bool = False) -> System:
    """A 2-shard service with an admission controller, and with the
    program's own tracer and metrics registry when ``observed``."""
    admission = AdmissionController()
    tracer = Tracer() if observed else None
    service = ShardedService(
        config=ServiceConfig(latency=LATENCY), tracer=tracer,
        metrics=MetricsRegistry() if observed else None,
        num_shards=SHARDS, admission=admission)
    return System(service, admission, tracer=tracer)


def _final_states(system: System) -> list[dict]:
    return [system.service.domain(name).model.to_state()
            for name in system.names]


class DecideHot:
    """Closed loop, one caller: scalar predicts, an update now and then."""

    name = "decide_hot"
    #: attach the program's own Tracer and MetricsRegistry
    observed = False
    #: what one latency sample times
    call = "one PSSClient.predict or PSSClient.update"
    #: calls per timed chunk (about 2 ms each)
    chunk = 512

    def __init__(self, seed: int) -> None:
        self.ops = inputs.decide_ops(seed)

    def build(self) -> System:
        system = _system(self.observed)
        service = system.service
        for tenant in inputs.TENANTS:
            config = domain_config(tenant.num_features,
                                   inputs.DECIDE_WEIGHT_BITS, tenant.salt)
            system.clients.append(service.connect(
                tenant.name,
                identity=ClientIdentity(uid=tenant.uid,
                                        program=tenant.name),
                config=config, batch_size=UPDATE_BATCH))
            system.names.append(tenant.name)
            system.configs.append(config)
        return system

    def run(self, system: System, marker: Marker,
            pause=no_pause) -> PassResult:
        clients = system.clients
        ops = self.ops
        clock = perf_counter_ns
        count = len(ops)
        outputs: list = [None] * count
        latencies = [0] * count
        failed = 0
        start = clock()
        for chunk in _chunks(count, self.chunk, pause):
            for i in chunk:
                tenant, is_update, features, direction = ops[i]
                client = clients[tenant]
                marker.op = i
                t0 = clock()
                try:
                    if is_update:
                        client.update(features, direction)
                        t1 = clock()
                    else:
                        score = client.predict(features)
                        t1 = clock()
                        outputs[i] = score
                except PSSError:
                    t1 = clock()
                    outputs[i] = FAILED
                    failed += 1
                latencies[i] = t1 - t0
        marker.op = count
        for client in clients:
            client.flush()
        wall = clock() - start
        return PassResult(outputs, latencies, wall, count - failed, count,
                          failed)

    def call_ops(self, result: PassResult) -> list[int]:
        """Successful operations per application call."""
        return [0 if output == FAILED else 1 for output in result.outputs]

    def check(self, system: System, result: PassResult) -> list[str]:
        return reference.check_decide(self.ops, system.configs,
                                      UPDATE_BATCH, result.outputs,
                                      _final_states(system))

    def sim(self, system: System, result: PassResult) -> dict[str, float]:
        total = sum(client.latency.total_ns for client in system.clients)
        return {"sim_ns_per_op": total / result.ops,
                "sim_req_per_us": result.ops * 1e3 / total}

    def counters(self, system: System) -> dict[str, float]:
        return _sync_counters(system)

    def cached_probe(self, system: System):
        """A call that is a score-cache hit on ``system`` right now."""
        tenant, _is_update, features, _direction = self.ops[0]
        client = system.clients[tenant]
        client.predict(features)
        return lambda: client.predict(features)


class DecideTraced(DecideHot):
    """decide_hot's inputs with the program's own observability on."""

    name = "decide_traced"
    observed = True
    chunk = 128


class ScoreCold:
    """Closed loop, one caller: score fresh candidates, act on the best."""

    name = "score_cold"
    call = "one step: PSSClient.predict_batch, pick best, PSSClient.update"
    chunk = 8

    def __init__(self, seed: int) -> None:
        self.steps = inputs.score_steps(seed)
        self.ops = sum(len(rows) + 1 for _domain, rows, _dir in self.steps)

    def build(self) -> System:
        system = _system()
        service = system.service
        identity = ClientIdentity(uid=2001, program="ranker")
        for index in range(inputs.SCORE_DOMAINS):
            name = f"rank-{index}"
            config = domain_config(inputs.SCORE_FEATURES, 8, 100 + index)
            system.clients.append(service.connect(
                name, identity=identity, config=config,
                batch_size=UPDATE_BATCH))
            system.names.append(name)
            system.configs.append(config)
        return system

    def run(self, system: System, marker: Marker,
            pause=no_pause) -> PassResult:
        clients = system.clients
        steps = self.steps
        clock = perf_counter_ns
        count = len(steps)
        outputs: list = [None] * count
        latencies = [0] * count
        failed = 0
        start = clock()
        for chunk in _chunks(count, self.chunk, pause):
            for i in chunk:
                domain, rows, direction = steps[i]
                client = clients[domain]
                marker.op = i
                t0 = clock()
                try:
                    scores = client.predict_batch(rows)
                    best = max(range(len(scores)), key=scores.__getitem__)
                    client.update(rows[best], direction)
                    t1 = clock()
                    outputs[i] = (scores, best)
                except PSSError:
                    t1 = clock()
                    outputs[i] = FAILED
                    failed += len(rows) + 1
                latencies[i] = t1 - t0
        marker.op = count
        for client in clients:
            client.flush()
        wall = clock() - start
        return PassResult(outputs, latencies, wall, self.ops - failed,
                          self.ops, failed)

    def call_ops(self, result: PassResult) -> list[int]:
        return [0 if output == FAILED else len(rows) + 1
                for output, (_domain, rows, _dir) in
                zip(result.outputs, self.steps)]

    def check(self, system: System, result: PassResult) -> list[str]:
        return reference.check_score(self.steps, system.configs,
                                     UPDATE_BATCH, result.outputs,
                                     _final_states(system))

    sim = DecideHot.sim

    def counters(self, system: System) -> dict[str, float]:
        return _sync_counters(system)


class ServeOpen:
    """Open loop in simulated time through the serving pipeline."""

    name = "serve_open"
    call = "one arrival: ServingPipeline.run(until=arrival) + submit"
    chunk = 128

    def __init__(self, seed: int) -> None:
        self.arrivals = inputs.serve_arrivals(seed)
        self.settings = inputs.SERVE_SETTINGS

    def build(self) -> System:
        settings = self.settings
        system = _system()
        service = system.service
        for index in range(inputs.SERVE_DOMAINS):
            name = f"svc-{index:02d}"
            config = domain_config(inputs.SERVE_FEATURES, 8, 200 + index)
            service.create_domain(name, config=config)
            system.names.append(name)
            system.configs.append(config)
        system.pipeline = ServingPipeline(
            service,
            ServingConfig(
                max_batch=settings.max_batch,
                batch_window_ns=settings.batch_window_ns,
                queue_limit=settings.queue_limit,
                shed_on_page=settings.shed_on_page,
                slo_threshold_ns=settings.slo_threshold_ns,
                slo_objective=settings.slo_objective,
                slo_eval_interval_ns=settings.slo_eval_interval_ns,
                latency=LATENCY),
            slos=(SLO(SERVE_SLO, "latency",
                      objective=settings.slo_objective,
                      threshold_ns=settings.slo_threshold_ns,
                      short_window_ns=settings.slo_short_window_ns,
                      long_window_ns=settings.slo_long_window_ns),))
        return system

    def run(self, system: System, marker: Marker,
            pause=no_pause) -> PassResult:
        pipeline = system.pipeline
        names = system.names
        arrivals = self.arrivals
        advance = pipeline.run
        submit = pipeline.submit
        clock = perf_counter_ns
        count = len(arrivals)
        futures: list = [None] * count
        latencies = [0] * count
        start = clock()
        for chunk in _chunks(count, self.chunk, pause):
            for i in chunk:
                at, domain, is_update, features, direction = arrivals[i]
                marker.op = i
                t0 = clock()
                advance(until=at)
                if is_update:
                    futures[i] = submit(names[domain], features,
                                        op="update", direction=direction)
                else:
                    futures[i] = submit(names[domain], features)
                latencies[i] = clock() - t0
        marker.op = count
        pipeline.mark_load_complete()
        advance()
        wall = clock() - start
        outputs = [future.result() if future.done and future.error is None
                   else FAILED for future in futures]
        failed = pipeline.shed_count + pipeline.failed
        return PassResult(outputs, latencies, wall, pipeline.completed,
                          pipeline.submitted, failed, futures)

    def call_ops(self, result: PassResult) -> list[int]:
        return [0 if output == FAILED else 1 for output in result.outputs]

    def check(self, system: System, result: PassResult) -> list[str]:
        return reference.check_serve(self.arrivals, system.configs,
                                     system.pipeline, result.futures,
                                     result.outputs, _final_states(system))

    def sim(self, system: System, result: PassResult) -> dict[str, float]:
        sojourns = sorted(future.latency_ns for future in result.futures
                          if future.done and future.error is None)
        first = min(future.submitted_ns for future in result.futures)
        last = max(future.completed_ns for future in result.futures)
        batches = system.pipeline.batch_stats()
        charged = (batches["batches"] * LATENCY.syscall_ns
                   + batches["rows"] * LATENCY.vdso_predict_ns)
        return {"sim_ns_per_op": charged / result.ops,
                "sim_req_per_us": result.ops * 1e3 / (last - first),
                "sim_p50_ns": sojourns[len(sojourns) // 2],
                "sim_p99_ns": sojourns[len(sojourns) * 99 // 100]}

    def counters(self, system: System) -> dict[str, float]:
        pipeline = system.pipeline
        batches = pipeline.batch_stats()
        out = _service_counters(system)
        out.update(
            batches=batches["batches"], batch_rows=batches["rows"],
            flush_timeouts=batches["flush_timeouts"],
            max_queue_depth=max(queue.max_depth
                                for queue in pipeline.queues))
        return out


def _service_counters(system: System) -> dict[str, float]:
    hits = misses = 0
    for name in system.names:
        report = system.service.domain(name).report()
        hits += report.index_cache_hits
        misses += report.index_cache_misses
    tracer = system.tracer
    return {
        "index_hits": hits, "index_misses": misses,
        "plan_compiles": system.service.plans.stats()["misses"],
        "refused": system.admission.sheds_enforced,
        "obs_events": len(tracer) + tracer.dropped if tracer else 0,
        "obs_spans": (len(tracer.spans()) + tracer.span_dropped
                      if tracer else 0),
    }


def _sync_counters(system: System) -> dict[str, float]:
    out = _service_counters(system)
    accounts = [client.latency for client in system.clients]
    out.update(
        score_hits=sum(a.cache_hits for a in accounts),
        score_misses=sum(a.cache_misses for a in accounts),
        flushes=sum(a.syscalls for a in accounts),
        flushed_records=sum(a.update_records for a in accounts))
    return out


WORKLOADS = {cls.name: cls
             for cls in (DecideHot, ScoreCold, ServeOpen, DecideTraced)}
