"""Interpreter speed, measured between chunks of every pass.

On a host whose cores are shared with other work, the same Python code
can run up to 2x slower from one moment to the next, and the process's
CPU time grows with its wall time, so neither clock can tell.  So the
harness splits each pass into chunks of about 2 ms and times a fixed,
program-independent Python loop between every two chunks
(:class:`Chunker`).  Each chunk's wall-clock figures are divided by its
*slowdown*: the mean of the loop times on either side of it over
:data:`REFERENCE_LOOP_NS`, the loop's time on an idle host.  A change to
the program cannot move the loop, so the rescaled figures still move
exactly with the program's own cost.
"""

from __future__ import annotations

from time import perf_counter_ns

#: the loop's time on an idle host (a 2-core Xeon VM running CPython
#: 3.11); only ratios to it matter
REFERENCE_LOOP_NS = 65_000
#: iterations of one loop (about 65 us at the reference speed)
LOOP_ITERATIONS = 250
#: loops per measurement; the fastest counts (the first one after a
#: chunk also pays for the caches the chunk evicted)
LOOP_REPEATS = 2


class _Tally:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value & 7


def _loop(n: int) -> int:
    """Calls, attribute access, tuples and dict traffic - the mix the
    request path is made of."""
    counts: dict[tuple[int, int], int] = {}
    tally = _Tally()
    for i in range(n):
        key = (i & 127, i >> 4)
        counts[key] = counts.get(key, 0) + 1
        tally.add(i)
    return max(counts.values()) + tally.total


def loop_ns() -> int:
    """Wall ns of the fastest of :data:`LOOP_REPEATS` loops."""
    best = 0
    for _ in range(LOOP_REPEATS):
        start = perf_counter_ns()
        _loop(LOOP_ITERATIONS)
        elapsed = perf_counter_ns() - start
        if not best or elapsed < best:
            best = elapsed
    return best


def slowdown(*loops: int) -> float:
    """Mean loop time over the reference: above 1 means slower."""
    return sum(loops) / len(loops) / REFERENCE_LOOP_NS


class Chunker:
    """The ``pause`` a workload calls before each chunk and once at the
    end: times a loop, and records each chunk as ``(first op, end op,
    wall ns, loop ns before, loop ns after)``.  The loop's own time
    falls between chunks, never inside one."""

    def __init__(self) -> None:
        self.chunks: list[tuple[int, int, int, int, int]] = []
        #: loop ns measured by the first pause (right after the build)
        self.first_loop = 0
        self._open: tuple[int, int, int] | None = None

    def __call__(self, index: int) -> None:
        now = perf_counter_ns()
        loop = loop_ns()
        if self._open is None:
            self.first_loop = loop
        else:
            first, start, before = self._open
            self.chunks.append((first, index, now - start, before, loop))
        self._open = (index, perf_counter_ns(), loop)
