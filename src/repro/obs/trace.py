"""Structured event tracing for the PSS stack.

The paper's evaluation reasons about latency *distributions* across the
user/kernel boundary, which means knowing what the service actually did,
event by event: which predictions hit the score cache, when a batch
flushed, when a fault was injected and how the client degraded.  A
:class:`Tracer` is a bounded ring buffer of typed :class:`TraceEvent`
records carrying simulated-nanosecond timestamps; exporters
(:mod:`repro.obs.exporters`) turn the buffer into JSONL, Chrome
trace-event JSON (one track per domain/transport, loadable in Perfetto or
``chrome://tracing``), or plain dicts.

Tracing is opt-in and the disabled path is allocation-free: every traced
component holds :data:`NULL_TRACER` by default and guards each record
with ``if tracer.enabled`` - a single attribute check, no event object is
ever built.  Request-path operations get their spans from one seam,
:func:`spanned`, which keeps that promise for spans too.
"""

from __future__ import annotations

import functools
import inspect
from types import TracebackType
from typing import Any, Callable, NamedTuple, Sized, TypeVar, Union

from repro.obs.spans import ROOT_PARENT, Span

#: a decorated method; :func:`spanned` returns it with its type intact
F = TypeVar("F", bound=Callable[..., Any])

#: event kinds emitted by the instrumented stack (transports, clients,
#: fault injector, checkpoint manager).  Exporters and tests treat this
#: as the schema; new kinds must be added here.
EVENT_KINDS = frozenset({
    "predict",            # a prediction crossed (or was served) here
    "update",             # an update record was accepted (maybe buffered)
    "reset",              # a reset crossed via syscall
    "flush",              # a batch of buffered updates crossed
    "cache_hit",          # score cache answered without the service
    "cache_miss",         # score cache missed; model evaluated
    "stale_read",         # injected vDSO staleness served an old score
    "fault",              # a TransportFault was raised to the caller
    "fault_injected",     # the injector decided to inject (decision time)
    "retry",              # resilient client retried a failed operation
    "fallback",           # resilient client served the static fallback
    "breaker_open",       # circuit breaker tripped OPEN
    "breaker_close",      # circuit breaker recovered to CLOSED
    "checkpoint_save",    # CheckpointManager wrote a snapshot
    "checkpoint_restore", # CheckpointManager attempted recovery
    "checkpoint.corrupt", # a shard/snapshot file failed validation
    "shard_crash",        # a shard's primary lost its state (injected)
    "migration_start",    # a slot handoff began (source still serving)
    "migration_commit",   # a slot handoff committed (ring flipped)
    "migration_stall",    # a slot handoff made no progress this step
    "replica_sync",       # follower replicas refreshed from a primary
    "replica_promote",    # follower state promoted into a downed shard
    "failover",           # a predict was served by a follower replica
    "predict_batch",      # a batch of predictions crossed in one syscall
    "plan.compile",       # the plan compiler specialized a new shape
    "plan.hit",           # an existing specialized plan was shared
    "slo.page",           # an SLO's error budget is burning page-fast
    "queue.enqueue",      # a request entered a serving shard queue
    "queue.shed",         # admission refused a request (back-pressure)
    "batch.dispatch",     # a dispatcher drained a micro-batch
    "batch.flush_timeout",  # a partial batch flushed on window expiry
})


class TraceEvent(NamedTuple):
    """One traced occurrence.

    ``ts_ns`` is simulated nanoseconds on the emitting component's
    timeline (a transport stamps its latency account's cumulative time;
    events with no natural clock get a monotonic sequence number).
    ``dur_ns`` is the simulated cost of the operation (0 for instants).
    """

    ts_ns: float
    kind: str
    domain: str
    transport: str
    dur_ns: float
    generation: int
    detail: dict[str, Any] | None
    #: owning shard on multi-shard services; "" (and omitted from
    #: exports) on single-shard services, keeping their output
    #: byte-identical to pre-sharding traces
    shard: str = ""
    #: enclosing span at record time; 0 (and omitted from exports) when
    #: no span was open, keeping span-free traces byte-identical to
    #: pre-span output
    span_id: int = 0

    def as_dict(self) -> dict[str, Any]:
        d = {
            "ts_ns": self.ts_ns,
            "kind": self.kind,
            "domain": self.domain,
            "transport": self.transport,
            "dur_ns": self.dur_ns,
            "generation": self.generation,
        }
        if self.shard:
            d["shard"] = self.shard
        if self.span_id:
            d["span_id"] = self.span_id
        if self.detail:
            d["detail"] = self.detail
        return d


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` records.

    When the buffer is full the oldest events are overwritten and
    :attr:`dropped` counts how many were lost - a long run keeps its most
    recent window instead of growing without bound.
    """

    enabled = True

    def __init__(self, capacity: int = 65536,
                 clock: Callable[[], float] | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: optional global clock (e.g. a sim Engine's ``now``) used for
        #: events recorded without an explicit timestamp
        self.clock = clock
        self.dropped = 0
        self.span_dropped = 0
        self._ring: list[TraceEvent] = []
        self._head = 0  # next write position once the ring is full
        self._seq = 0   # fallback timestamp: monotonic event number
        self._spans: list[Span] = []   # completed spans, same ring scheme
        self._span_head = 0
        self._span_stack: list[Span] = []  # open spans, innermost last
        self._next_span_id = 1
        #: clocks of open spans that carry one (innermost last): a span
        #: opened without its own clock inherits the enclosing span's,
        #: so a whole request tree shares one simulated-ns timeline
        self._clock_stack: list[Callable[[], float]] = []

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, kind: str, domain: str = "", transport: str = "",
               ts_ns: float | None = None, dur_ns: float = 0.0,
               generation: int = 0,
               detail: dict[str, Any] | None = None,
               shard: str = "") -> None:
        """Append one event, evicting the oldest when full.

        The event attaches to the innermost open span, if any - flat
        events are not replaced by spans, they become their leaves.
        """
        self._seq += 1
        if ts_ns is None:
            ts_ns = self.clock() if self.clock is not None else float(
                self._seq)
        stack = self._span_stack
        event = TraceEvent(ts_ns, kind, domain, transport, dur_ns,
                           generation, detail, shard,
                           stack[-1].span_id if stack else ROOT_PARENT)
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def span(self, name: str, domain: str = "", transport: str = "",
             shard: str = "", ts_ns: float | None = None,
             detail: dict[str, Any] | None = None,
             clock: Callable[[], float] | None = None) -> SpanHandle:
        """Open a span for the duration of a ``with`` block.

        The only way to open a span: the handle opens it in
        ``__enter__`` and closes it in ``__exit__`` on every path,
        stamping ``status`` from the in-flight exception.  A handle that
        is never entered records nothing.
        ``clock`` overrides the tracer clock for this span (transports
        pass their latency account so durations are simulated ns).
        """
        return SpanHandle(self, name, domain, transport, shard, ts_ns,
                          detail, clock)

    def _begin_span(self, name: str, domain: str = "",
                    transport: str = "", shard: str = "",
                    ts_ns: float | None = None,
                    detail: dict[str, Any] | None = None) -> Span:
        """Push a span onto the causality stack (``SpanHandle`` only).

        A begun span that is never passed to :meth:`_end_span` pins
        every later event to a stale parent, so only the context
        manager calls this pair.
        """
        self._seq += 1
        if ts_ns is None:
            ts_ns = self.clock() if self.clock is not None else float(
                self._seq)
        stack = self._span_stack
        opened = Span(
            span_id=self._next_span_id,
            parent_id=stack[-1].span_id if stack else ROOT_PARENT,
            name=name, domain=domain, transport=transport, shard=shard,
            start_ns=ts_ns, detail=detail)
        self._next_span_id += 1
        stack.append(opened)
        return opened

    def _end_span(self, span: Span, status: str = "ok",
                  ts_ns: float | None = None) -> None:
        """Pop ``span`` and move it to the ring (``SpanHandle`` only)."""
        self._seq += 1
        if ts_ns is None:
            ts_ns = self.clock() if self.clock is not None else float(
                self._seq)
        span.end_ns = ts_ns if ts_ns >= span.start_ns else span.start_ns
        span.status = status
        stack = self._span_stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested close: unwind defensively
            stack.remove(span)
        ring = self._spans
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            ring[self._span_head] = span
            self._span_head = (self._span_head + 1) % self.capacity
            self.span_dropped += 1

    def current_span_id(self) -> int:
        stack = self._span_stack
        return stack[-1].span_id if stack else ROOT_PARENT

    def events(self) -> list[TraceEvent]:
        """All buffered events, oldest first."""
        return self._ring[self._head:] + self._ring[:self._head]

    def spans(self) -> list[Span]:
        """All completed spans, completion order (children first)."""
        return self._spans[self._span_head:] + self._spans[:self._span_head]

    def open_spans(self) -> list[Span]:
        """Spans still on the stack (outermost first) - crash context."""
        return list(self._span_stack)

    def clear(self) -> None:
        self._ring = []
        self._head = 0
        self.dropped = 0
        self._spans = []
        self._span_head = 0
        self._span_stack = []
        self._clock_stack = []
        self.span_dropped = 0
        self._next_span_id = 1


class SpanHandle:
    """Context manager pairing one ``_begin_span`` with one ``_end_span``.

    Constructing a handle records nothing; the span opens in
    :meth:`__enter__`.  Calling ``__enter__`` by hand without a matching
    ``__exit__`` still leaks an open span - use ``with``.
    """

    __slots__ = ("_tracer", "_name", "_domain", "_transport", "_shard",
                 "_ts_ns", "_detail", "_clock", "_span", "_pushed")

    def __init__(self, tracer: Tracer, name: str, domain: str,
                 transport: str, shard: str, ts_ns: float | None,
                 detail: dict[str, Any] | None,
                 clock: Callable[[], float] | None) -> None:
        self._tracer = tracer
        self._name = name
        self._domain = domain
        self._transport = transport
        self._shard = shard
        self._ts_ns = ts_ns
        self._detail = detail
        self._clock = clock
        self._span: Span | None = None
        self._pushed = False

    def __enter__(self) -> Span:
        tracer = self._tracer
        clock = self._clock
        if clock is None and tracer._clock_stack:
            clock = tracer._clock_stack[-1]
            self._clock = clock
        ts = self._ts_ns
        if ts is None and clock is not None:
            ts = clock()
        self._span = tracer._begin_span(
            self._name, domain=self._domain, transport=self._transport,
            shard=self._shard, ts_ns=ts, detail=self._detail)
        if clock is not None:
            tracer._clock_stack.append(clock)
            self._pushed = True
        return self._span

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        span = self._span
        if span is None:
            return
        if self._pushed:
            self._tracer._clock_stack.pop()
        end = self._clock() if self._clock is not None else None
        status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        self._tracer._end_span(span, status=status, ts_ns=end)


class NullTracer:
    """Disabled tracer: records nothing, allocates nothing.

    Components default to this so the hot path pays only one attribute
    check (``tracer.enabled``) when tracing is off.
    """

    enabled = False
    capacity = 0
    dropped = 0
    span_dropped = 0
    clock: Callable[[], float] | None = None

    def __len__(self) -> int:
        return 0

    def record(self, kind: str, domain: str = "", transport: str = "",
               ts_ns: float | None = None, dur_ns: float = 0.0,
               generation: int = 0,
               detail: dict[str, Any] | None = None,
               shard: str = "") -> None:
        pass

    def span(self, name: str, domain: str = "", transport: str = "",
             shard: str = "", ts_ns: float | None = None,
             detail: dict[str, Any] | None = None,
             clock: Callable[[], float] | None = None) -> NullSpanHandle:
        return NULL_SPAN_HANDLE

    def current_span_id(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []

    def spans(self) -> list[Span]:
        return []

    def open_spans(self) -> list[Span]:
        return []

    def clear(self) -> None:
        pass


class NullSpanHandle:
    """Shared no-op span context: nothing allocated, nothing recorded."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None


#: shared inert span returned by the null handle; ``annotate`` on it is
#: a no-op (``span_id == 0`` guard in :class:`~repro.obs.spans.Span`)
NULL_SPAN = Span(span_id=0, parent_id=0, name="", status="ok")
NULL_SPAN_HANDLE = NullSpanHandle()


#: what components hold: a live :class:`Tracer` or the null object
TracerLike = Union[Tracer, NullTracer]

#: what ``tracer.span(...)`` returns: a live handle or the shared no-op
SpanHandleLike = Union[SpanHandle, NullSpanHandle]

#: shared disabled tracer; safe to use as a default everywhere
NULL_TRACER = NullTracer()


def spanned(op: str, detail: Callable[..., Any] | None = None,
            tracer: str = "_tracer") -> Callable[[F], F]:
    """Run a method inside ``self._span(op, ...)`` while tracing is on.

    The class holds its tracer as the plain attribute ``tracer`` names
    and defines ``_span(op, detail)``, which opens the span.  On traced
    calls only, ``detail(self, <the method's arguments>)`` gives
    ``_span``'s second argument; ``None`` skips the span for that call.
    The wrapper is generated with the method's exact signature, so an
    untraced call costs one frame and one ``enabled`` check, without
    ``*args``/``**kwargs`` packing; its globals carry the method's
    module ``__name__``, and its code the method's qualname (as
    ``co_qualname`` and as a constant), so profilers attribute it to
    the method's module and class.  See docs/OBSERVABILITY.md.
    """
    def decorate(fn: F) -> F:
        signature = inspect.signature(fn)
        params: list[inspect.Parameter] = []
        args: list[str] = []
        for param in signature.parameters.values():
            name, kind = param.name, param.kind
            if name in ("_body", "_detail", "_op", "_span_detail"):
                raise TypeError(f"@spanned: {fn.__qualname__} has a "
                                f"parameter named {name!r}")
            # Defaults are rendered as None and restored below.
            params.append(param.replace(
                annotation=param.empty,
                default=param.empty if param.default is param.empty
                else None))
            args.append("*" + name if kind is param.VAR_POSITIONAL
                        else "**" + name if kind is param.VAR_KEYWORD
                        else f"{name}={name}" if kind is param.KEYWORD_ONLY
                        else name)
        header = signature.replace(parameters=params,
                                   return_annotation=signature.empty)
        self, call = params[0].name, ", ".join(args)
        traced = (f"with {self}._span(_op, None):\n"
                  f"            return _body({call})"
                  if detail is None else
                  f"_span_detail = _detail({call})\n"
                  f"        if _span_detail is not None:\n"
                  f"            with {self}._span(_op, _span_detail):\n"
                  f"                return _body({call})")
        source = (f"def {fn.__name__}{header}:\n"
                  f"    {fn.__qualname__!r}\n"
                  f"    if {self}.{tracer}.enabled:\n"
                  f"        {traced}\n"
                  f"    return _body({call})\n")
        # Each wrapper gets its own globals: the body, detail and op are
        # module-level names there (cheaper than closure cells).
        namespace: dict[str, Any] = {"__name__": fn.__module__,
                                     "_body": fn, "_detail": detail,
                                     "_op": op}
        exec(compile(source, f"<spanned {fn.__qualname__}>", "exec"),
             namespace)
        wrapper = namespace[fn.__name__]
        wrapper.__defaults__ = fn.__defaults__
        wrapper.__kwdefaults__ = fn.__kwdefaults__
        if hasattr(wrapper.__code__, "co_qualname"):  # CPython >= 3.11
            wrapper.__code__ = wrapper.__code__.replace(
                co_qualname=fn.__qualname__)
        return functools.update_wrapper(wrapper, fn)  # type: ignore
    return decorate


def batch_rows(self: object, rows: Sized, *rest: object) -> dict[str, int]:
    """:func:`spanned` detail of a batch operation: its row count."""
    return {"rows": len(rows)}


def nonempty_batch_rows(self: object, rows: Sized,
                        *rest: object) -> dict[str, int] | None:
    """Like :func:`batch_rows`, but an empty batch opens no span."""
    return {"rows": len(rows)} if rows else None
