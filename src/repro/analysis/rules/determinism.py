"""Determinism rules: no wall clocks, no unseeded randomness.

The reproduction's headline property is that every figure, trace, and
``--seed`` report is a pure function of the code and the seed.  Two
things silently break that: reading the host's wall clock (timestamps
leak into traces and reports) and drawing from the process-global
``random`` module (one extra draw anywhere perturbs every stream).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, dotted_name

#: wall-clock reads the simulation must never make
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
})

#: names importable from ``time`` that read the wall clock
WALL_CLOCK_TIME_NAMES = frozenset(
    name.split(".", 1)[1] for name in WALL_CLOCK_CALLS
)

#: ``datetime.now()`` / ``date.today()`` attribute suffixes (argless
#: ``now`` reads the wall clock; ``now(tz)`` still does)
DATETIME_CALLS = frozenset({"datetime.now", "date.today"})


class NoWallClockRule(Rule):
    """DET001: simulated time only.

    Every latency figure in the reproduction runs on simulated
    nanoseconds (:class:`repro.core.stats.LatencyAccount`,
    :mod:`repro.sim.engine`); a stray ``time.time()`` makes traces and
    reports differ run to run.  The wall-clock measurement harness in
    ``bench/experiments/latency.py`` is the one sanctioned exception -
    its *point* is comparing simulated cost against real Python
    overhead - and is allowlisted below.
    """

    rule_id = "DET001"
    description = ("no wall-clock reads (time.time/monotonic/"
                   "perf_counter, argless datetime.now) outside the "
                   "allowlist")
    hint = ("take time from the sim engine clock (simulated "
            "nanoseconds, LatencyAccount) instead of the wall clock; "
            "only bench/experiments/latency.py measures real time")

    #: package-relative modules sanctioned to read the wall clock
    ALLOWED_MODULES = frozenset({"bench/experiments/latency.py"})

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module_path in self.ALLOWED_MODULES:
            return
        imported_clock_names = set()
        time_aliases = {"time"}
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALL_CLOCK_TIME_NAMES:
                        imported_clock_names.add(
                            alias.asname or alias.name
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" and alias.asname:
                        time_aliases.add(alias.asname)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            root, _, attr = name.partition(".")
            if (root in time_aliases
                    and attr in WALL_CLOCK_TIME_NAMES) \
                    or name in imported_clock_names:
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    f"wall-clock read {name}(): simulated time only "
                    f"(use the sim engine clock or a LatencyAccount)",
                )
            elif any(name == suffix or name.endswith("." + suffix)
                     for suffix in DATETIME_CALLS):
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    f"wall-clock read {name}(): timestamps must come "
                    f"from simulated time, not the host clock",
                )


class SeededRngOnlyRule(Rule):
    """DET002: the process-global ``random`` module is off limits.

    Every stochastic component draws from a named, seeded stream
    (:class:`repro.sim.rng.RngStreams`) or a private seeded
    ``random.Random`` (:class:`repro.core.faults.FaultInjector`), so
    adding a draw in one component can never perturb another's
    sequence.  Only the two modules that *construct* those seeded
    generators may import ``random``.
    """

    rule_id = "DET002"
    description = ("no direct `random` module use outside sim/rng.py "
                   "and core/faults.py (take a seeded Rng instead)")
    hint = ("draw from a named seeded stream (sim.rng.RngStreams) "
            "injected by the caller so no component can perturb "
            "another component's sequence")

    #: the modules that wrap ``random`` behind seeded streams
    ALLOWED_MODULES = frozenset({"sim/rng.py", "core/faults.py"})

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module_path in self.ALLOWED_MODULES:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" \
                            or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.rule_id, node.lineno,
                            "direct `import random`: draw from a "
                            "seeded stream (repro.sim.rng.RngStreams) "
                            "instead of the process-global RNG",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        "`from random import ...`: draw from a seeded "
                        "stream (repro.sim.rng.RngStreams) instead of "
                        "the process-global RNG",
                    )
