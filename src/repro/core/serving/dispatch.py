"""Per-shard dispatchers: the only sim processes that enter the kernel.

A :class:`Dispatcher` is one generator-bodied sim process per serving
shard.  It parks on its queue's ``nonempty`` event, lets the
:class:`~repro.core.serving.batcher.MicroBatcher` decide when to stop
collecting, charges the batch's boundary-crossing cost as simulated
time, and only then executes the drained requests against the kernel -
``ShardedService.predict_batch`` for runs of predictions,
``ShardedService.update`` for updates - completing each request's
:class:`~repro.core.serving.future.CompletionFuture` with the score or
the kernel's error.

This module is the single sanctioned site for kernel entry from inside
the event loop: QUE001 (docs/INVARIANTS.md) statically flags kernel
``predict_batch``/``update`` calls in any *other* sim-process body,
because a blocking kernel call in an event-loop process stalls every
queued request behind it without charging the simulated clock.

Ordering is the bit-identity linchpin: a drained batch executes in
FIFO order, with *adjacent* predictions grouped into one
``predict_batch`` call (bit-identical to the scalar loop - the PR 7
pinned property) and updates executed in place between them, so a
mixed batch observes exactly the generation sequence the synchronous
path would have produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import PSSError
from repro.core.serving.batcher import MicroBatcher
from repro.core.serving.queue import Request, RequestQueue
from repro.obs.metrics import BATCH_SIZE, MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    SpanHandleLike,
    TracerLike,
    batch_rows,
    spanned,
)
from repro.sim.engine import Engine
from repro.sim.process import Process, ProcessBody, spawn

if TYPE_CHECKING:
    from repro.core.kernel.service import ShardedService
    from repro.core.serving.pipeline import ServingPipeline


class Dispatcher:
    """One shard's drain loop: collect, charge sim time, execute."""

    def __init__(self, pipeline: "ServingPipeline", shard_id: int,
                 queue: RequestQueue, batcher: MicroBatcher,
                 service: "ShardedService", engine: Engine,
                 tracer: TracerLike = NULL_TRACER,
                 metrics: MetricsRegistry | None = None) -> None:
        self.pipeline = pipeline
        self.shard_id = shard_id
        self.queue = queue
        self.batcher = batcher
        self.service = service
        self.engine = engine
        self.tracer = tracer
        self.metrics = metrics
        self.process: Process | None = None

    def start(self) -> Process:
        self.process = spawn(self.engine, self._run(),
                             name=f"dispatch-{self.shard_id}")
        return self.process

    def _run(self) -> ProcessBody:
        """Sim-process body: the shard's event-driven serve loop.

        The loop never blocks the engine: idle time is spent parked on
        the queue's ``nonempty`` event (no scheduled wake-up, so a
        drained simulation terminates), and kernel execution happens
        only after the batch's crossing cost has been charged with a
        ``yield``.
        """
        queue = self.queue
        batcher = self.batcher
        while True:
            if queue.depth == 0:
                yield queue.nonempty.wait()
                if queue.depth == 0:  # pragma: no cover - spurious wake
                    continue
            collect = batcher.collect_ns(queue.depth)
            if collect > 0:
                yield collect
            batch, trigger = batcher.drain(queue)
            if not batch:  # pragma: no cover - drained by a restart
                continue
            self._trace_drain(batch, trigger)
            yield batcher.service_ns(len(batch))
            self._execute(batch)

    def _trace_drain(self, batch: list[Request], trigger: str) -> None:
        """``batch.dispatch`` (every drain) and ``batch.flush_timeout``
        (window-expiry drains) on this shard's track."""
        if self.metrics is not None:
            self.metrics.histogram(
                BATCH_SIZE, shard=str(self.shard_id)
            ).observe(float(len(batch)))
        if not self.tracer.enabled:
            return
        now = self.engine.now
        shard = str(self.shard_id)
        if trigger == "timeout":
            self.tracer.record(
                "batch.flush_timeout", transport="serving",
                ts_ns=now, shard=shard,
                detail={"rows": len(batch),
                        "window_ns": self.batcher.batch_window_ns},
            )
        self.tracer.record(
            "batch.dispatch", transport="serving", ts_ns=now,
            shard=shard,
            detail={"rows": len(batch), "trigger": trigger},
        )

    def _span(self, op: str, detail: dict[str, int]) -> SpanHandleLike:
        """Serving-track span on the engine's clock (see
        :func:`~repro.obs.trace.spanned`)."""
        return self.tracer.span(f"serve.{op}", transport="serving",
                                shard=str(self.shard_id), detail=detail,
                                clock=lambda: self.engine.now)

    @spanned("dispatch", detail=batch_rows, tracer="tracer")
    def _execute(self, batch: list[Request]) -> None:
        """Run one drained batch against the kernel, in FIFO order.

        Adjacent predictions collapse into one ``predict_batch`` call;
        updates run individually at their queue position.  A kernel
        error fails exactly the requests it covered - later requests
        in the batch still execute (their shard may be healthy).
        """
        service = self.service
        index = 0
        while index < len(batch):
            if batch[index].op == "predict":
                bound = index
                while bound < len(batch) \
                        and batch[bound].op == "predict":
                    bound += 1
                run = batch[index:bound]
                try:
                    scores = service.predict_batch(
                        [(request.domain, request.features)
                         for request in run]
                    )
                except PSSError as error:
                    for request in run:
                        self.pipeline.request_failed(request, error)
                else:
                    for request, score in zip(run, scores):
                        self.pipeline.request_done(request, score)
                index = bound
            else:
                request = batch[index]
                try:
                    service.update(request.domain, request.features,
                                   request.direction)
                except PSSError as error:
                    self.pipeline.request_failed(request, error)
                else:
                    self.pipeline.request_done(request, None)
                index += 1
