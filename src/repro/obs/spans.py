"""Causal request spans: the tree-shaped half of the trace model.

PR 3's flat :class:`~repro.obs.trace.TraceEvent` ring answers *what
happened*; it cannot answer *why this request was slow* now that one
predict may traverse facade -> admission -> router -> shard -> failover
-> transport -> plan.  A :class:`Span` is one timed stage of one request
with an explicit ``parent_id``, so every predict/update/predict_batch
yields a reconstructable tree.  Spans are opened through the tracer API
(``with tracer.span("client.predict"): ...`` - the context manager is
the only public way to open one) and flat events recorded while a
span is open attach to it via ``TraceEvent.span_id``.

This module is pure data: the open/close machinery lives on
:class:`~repro.obs.trace.Tracer`, the rendering in
:mod:`repro.obs.postmortem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union

#: ``parent_id`` of a root span (and the id of the shared null span)
ROOT_PARENT = 0


@dataclass
class Span:
    """One timed, named stage of one request.

    ``start_ns``/``end_ns`` are simulated nanoseconds on the emitting
    component's timeline (same clock discipline as ``TraceEvent.ts_ns``).
    ``status`` is ``"open"`` while the span is on the tracer's stack,
    then ``"ok"`` or ``"error:<ExceptionType>"``.
    """

    span_id: int
    parent_id: int
    name: str
    domain: str = ""
    transport: str = ""
    shard: str = ""
    start_ns: float = 0.0
    end_ns: float = 0.0
    status: str = "open"
    detail: dict[str, Any] | None = None

    @property
    def dur_ns(self) -> float:
        return self.end_ns - self.start_ns

    def annotate(self, **fields: Any) -> None:
        """Merge key/value pairs into ``detail`` (no-op on the null span)."""
        if self.span_id == ROOT_PARENT:
            return
        if self.detail is None:
            self.detail = {}
        self.detail.update(fields)

    def as_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
        }
        if self.domain:
            d["domain"] = self.domain
        if self.transport:
            d["transport"] = self.transport
        if self.shard:
            d["shard"] = self.shard
        if self.detail:
            d["detail"] = self.detail
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Span:
        return cls(
            span_id=int(data["span_id"]),
            parent_id=int(data["parent_id"]),
            name=str(data["name"]),
            domain=str(data.get("domain", "")),
            transport=str(data.get("transport", "")),
            shard=str(data.get("shard", "")),
            start_ns=float(data["start_ns"]),
            end_ns=float(data["end_ns"]),
            status=str(data.get("status", "ok")),
            detail=dict(data["detail"]) if data.get("detail") else None,
        )


SpanLike = Union[Span, Mapping[str, Any]]


def _as_span(item: SpanLike) -> Span:
    return item if isinstance(item, Span) else Span.from_dict(item)


def validate_spans(spans: Iterable[SpanLike]) -> list[Span]:
    """Check a span set forms a well-formed forest; return its roots.

    Raises :class:`ValueError` on the first violation: duplicate or
    non-positive ids, an orphan (``parent_id`` naming no span in the
    set), a span closing before it opened, or a span left ``"open"``.
    Accepts :class:`Span` objects or their ``as_dict`` form, so bundle
    and JSONL consumers share one checker.
    """
    resolved = [_as_span(s) for s in spans]
    by_id: dict[int, Span] = {}
    for span in resolved:
        if span.span_id <= 0:
            raise ValueError(f"span id must be positive: {span!r}")
        if span.span_id in by_id:
            raise ValueError(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    roots: list[Span] = []
    for span in resolved:
        if span.parent_id == ROOT_PARENT:
            roots.append(span)
        elif span.parent_id not in by_id:
            raise ValueError(
                f"orphan span {span.span_id} ({span.name!r}): "
                f"parent {span.parent_id} not in the set")
        if span.end_ns < span.start_ns:
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) ends before it "
                f"starts: [{span.start_ns}, {span.end_ns}]")
        if span.status == "open":
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) was never closed")
    return roots


def span_children(spans: Iterable[SpanLike]) -> dict[int, list[Span]]:
    """Group a span set by ``parent_id``, preserving completion order."""
    children: dict[int, list[Span]] = {}
    for span in (_as_span(s) for s in spans):
        children.setdefault(span.parent_id, []).append(span)
    return children
