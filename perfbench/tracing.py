"""Spans recorded from outside the program, and their self times.

For a traced run the benchmark replaces each public entry point listed
in :mod:`perfbench.layers` with a wrapper that records one span per
call: name, wall-clock start and end (``perf_counter_ns``), the span
that was open when it was called (its parent), and the harness's op id.
Nothing under ``src/`` is edited; :meth:`SpanRecorder.installed`
restores every original method when the traced run ends.

A span's *self time* is its duration minus the part of its interval
that its direct children cover (children are clipped to the parent,
overlapping children are merged, zero-length children cover nothing).
Summed over every span, self time equals the time covered by the root
spans - the conservation law :func:`accounting_error` checks.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from perfbench.layers import entry_points

#: a recorded span: (name id, start ns, end ns, parent index or -1,
#: op id, size), where size is an entry point's own count (records a
#: flush delivered, rows a block hasher vectorized) or 0
Span = tuple[int, int, int, int, int, int]


def _flush_size(args: tuple, result: object) -> int:
    return args[0].pending_updates


def _vector_rows(args: tuple, result: object) -> int:
    return len(args[3]) if result is not None else 0


#: entry points whose span records a size, read before/after the call
_SIZES: dict[str, Callable[[tuple, object], int]] = {
    "VdsoTransport.flush": _flush_size,
    "SpecializedPlan.score_select_rows": _vector_rows,
}

#: sizes that must be read before the call changes them
_SIZE_BEFORE = frozenset({"VdsoTransport.flush"})


class SpanRecorder:
    """In-memory span buffer fed by the entry-point wrappers."""

    def __init__(self, marker) -> None:
        #: holds the harness's current op id in ``marker.op``
        self.marker = marker
        #: span name per name id ("Class.method")
        self.names: list[str] = []
        #: layer per name id
        self.layers: list[str] = []
        self.spans: list[Span | None] = []
        self._stack = [-1]

    def clear(self) -> None:
        self.spans = []
        self._stack[:] = [-1]

    def _wrap(self, fn: Callable, name_id: int,
              size: Callable[[tuple, object], int] | None,
              size_before: bool) -> Callable:
        recorder = self
        marker = self.marker
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans = recorder.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            before = size(args, None) if size_before else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, marker.op,
                                before)
                raise
            end = clock()
            stack.pop()
            count = before if size_before or size is None \
                else size(args, result)
            spans[index] = (name_id, start, end, parent, marker.op, count)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every entry point for the duration of the block."""
        originals = []
        try:
            for layer, cls, method in entry_points():
                name = f"{cls.__name__}.{method}"
                fn = cls.__dict__[method]
                self.names.append(name)
                self.layers.append(layer)
                size = _SIZES.get(name)
                setattr(cls, method, self._wrap(
                    fn, len(self.names) - 1, size, name in _SIZE_BEFORE))
                originals.append((cls, method, fn))
            yield self
        finally:
            for cls, method, fn in reversed(originals):
                setattr(cls, method, fn)

    def completed(self) -> list[Span]:
        """Spans of the current buffer; fails on a span left open."""
        if any(span is None for span in self.spans):
            raise RuntimeError("a traced call never returned")
        return self.spans  # type: ignore[return-value]


def covered_ns(start: int, end: int,
               children: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in children
                     if min(e, end) > max(s, start))
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time per ``(start, end, parent index)`` span."""
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered_ns(start, end, children.get(i, ()))
            for i, (start, end, _parent) in enumerate(spans)]


def accounting_error(spans: Sequence[tuple[int, int, int]],
                     selfs: Sequence[int], wall_ns: int) -> float:
    """Share of ``wall_ns`` that self times plus harness time miss.

    The harness's own time is the wall time outside every root span;
    layer self times must account for the rest exactly, so a non-zero
    result means spans were lost, double-counted or mis-nested.
    """
    roots = sum(end - start for start, end, parent in spans if parent < 0)
    harness = wall_ns - roots
    return abs(sum(selfs) + harness - wall_ns) / wall_ns if wall_ns else 0.0


def write_spans(path: str, recorder: SpanRecorder, spans: Sequence[Span],
                selfs: Sequence[int], origin_ns: int) -> None:
    """One JSON object per line, times relative to ``origin_ns``."""
    with open(path, "w", encoding="utf-8") as out:
        for index, (name_id, start, end, parent, op, size) in \
                enumerate(spans):
            out.write(json.dumps({
                "id": index, "parent": parent, "op": op,
                "name": recorder.names[name_id],
                "layer": recorder.layers[name_id],
                "start_ns": start - origin_ns, "end_ns": end - origin_ns,
                "self_ns": selfs[index], "size": size,
            }) + "\n")
