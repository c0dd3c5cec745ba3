"""User-side client handle for the Prediction System Service.

A :class:`PSSClient` is what an application links against: the equivalent of
the small shared library the paper maps into user space.  It exposes the
three paper calls plus boolean conveniences, and routes them through a
transport (vDSO fast path by default) that charges simulated latency.

Typical use::

    service = PredictionService()
    client = service.connect("my-domain")
    if client.predict_bool([perf_cnt, remaining_retries]):
        ...  # fast path
    client.update([perf_cnt, remaining_retries], direction=True)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.core.config import LatencyModel, ResilienceConfig
from repro.core.errors import (
    QuotaExceededError,
    RequestShedError,
    TransportFault,
)
from repro.core.faults import FaultInjector
from repro.core.features import canonical_features
from repro.core.serving.future import CompletionFuture
from repro.core.service import DomainHandle
from repro.core.stats import LatencyAccount, ResilienceStats
from repro.core.transport import Transport, make_transport
from repro.obs.trace import NULL_TRACER, SpanHandleLike, batch_rows, spanned
from repro.sim.process import SimEvent

if TYPE_CHECKING:
    from repro.core.serving.pipeline import ServingPipeline

#: a static fallback: a fixed score, or a pure function of the features
Fallback = Union[int, Callable[[Sequence[int]], int]]


class PSSClient:
    """Application-facing connection to one prediction domain."""

    def __init__(self, handle: DomainHandle,
                 transport_kind: str = "vdso",
                 latency: LatencyModel | None = None,
                 batch_size: int = 32) -> None:
        self._handle = handle
        self._transport: Transport = make_transport(
            transport_kind, handle, latency, batch_size=batch_size
        )
        self._tracer = NULL_TRACER
        self._obs_shard = getattr(handle, "shard_label", "")
        self._pipeline: "ServingPipeline | None" = None

    # -- identity / introspection -------------------------------------------

    @property
    def domain_name(self) -> str:
        return self._handle.domain_name

    @property
    def transport_name(self) -> str:
        return self._transport.name

    @property
    def latency(self) -> LatencyAccount:
        """Simulated boundary-crossing time charged so far."""
        return self._transport.account

    @property
    def pending_updates(self) -> int:
        """Buffered update records not yet delivered (vDSO transport)."""
        return getattr(self._transport, "pending_updates", 0)

    # -- the paper's three calls ---------------------------------------------

    def _span(self, op: str, detail: dict | None) -> SpanHandleLike:
        """Root span of one application-facing call (see
        :func:`~repro.obs.trace.spanned`), on the transport account's
        simulated clock: one ``predict`` yields one span tree however
        deep the kernel path below runs."""
        return self._tracer.span(
            f"client.{op}", domain=self.domain_name, transport="client",
            shard=self._obs_shard, detail=detail,
            clock=lambda: self._transport.account.total_ns,
        )

    @spanned("predict")
    def predict(self, features: Sequence[int]) -> int:
        """Signed prediction score: ``int predict(int*, int)``."""
        # Canonicalize once at the API boundary; caches and batch
        # buffers below reuse this tuple instead of re-tupling.
        return self._transport.predict(canonical_features(features))

    @spanned("predict_batch", detail=batch_rows)
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Signed scores for a whole batch of feature vectors.

        Scores are bit-identical to ``[predict(r) for r in
        feature_rows]``; what changes is the cost model - the transport
        amortizes its crossing (one syscall round-trip, one batched
        pass over the score cache and the domain's specialized plan).
        See docs/PERFORMANCE.md, "Batched and specialized prediction".
        """
        return self._transport.predict_batch(
            [canonical_features(features) for features in feature_rows]
        )

    @spanned("update")
    def update(self, features: Sequence[int], direction: bool) -> None:
        """Feedback: ``void update(int*, int, bool dir)``."""
        self._transport.update(canonical_features(features), direction)

    @spanned("reset")
    def reset(self, features: Sequence[int],
              reset_all: bool = False) -> None:
        """State wipe: ``void reset(int*, int, bool all)``."""
        self._transport.reset(canonical_features(features), reset_all)

    # -- conveniences ---------------------------------------------------------

    def predict_bool(self, features: Sequence[int]) -> bool:
        """True when the score clears the domain threshold."""
        return self.predict(features) >= self._handle.threshold

    def reward(self, features: Sequence[int]) -> None:
        """``update(features, True)`` - the paper's +1 reward."""
        self.update(features, True)

    def penalize(self, features: Sequence[int]) -> None:
        """``update(features, False)`` - the paper's -1 reward."""
        self.update(features, False)

    @spanned("flush")
    def flush(self) -> None:
        """Deliver any batched updates now."""
        self._transport.flush()

    # -- async serving (event-driven pipeline) -------------------------------

    def attach_pipeline(self, pipeline: "ServingPipeline | None") -> None:
        """Route :meth:`submit`/:meth:`submit_update` through an
        event-driven :class:`~repro.core.serving.pipeline
        .ServingPipeline` (or detach with ``None``).

        The synchronous calls are untouched either way; only the
        ``submit`` family changes behaviour.  Submitted requests bypass
        this client's transport - queueing delay and the micro-batch
        crossing cost are charged by the pipeline's own simulated
        clock instead of the transport's latency account.
        """
        self._pipeline = pipeline

    def submit(self, features: Sequence[int],
               client_id: str = "") -> CompletionFuture:
        """Issue a predict without blocking; returns its future.

        With a pipeline attached the request queues on its domain's
        serving shard and completes when the dispatcher's micro-batch
        crosses the kernel.  Without one the call degrades to the
        synchronous path and returns an already-completed future, so
        callers can target one API in both deployments.
        """
        features = canonical_features(features)
        if self._pipeline is None:
            future = CompletionFuture()
            future.complete(self.predict(features))
            return future
        return self._pipeline.submit(self.domain_name, features,
                                     client_id=client_id)

    def submit_update(self, features: Sequence[int], direction: bool,
                      client_id: str = "") -> CompletionFuture:
        """Issue an update without blocking; the future resolves to
        ``None`` once the write has been applied in queue order."""
        features = canonical_features(features)
        if self._pipeline is None:
            future = CompletionFuture()
            self.update(features, direction)
            future.complete(None)
            return future
        return self._pipeline.submit(self.domain_name, features,
                                     op="update", direction=direction,
                                     client_id=client_id)

    def close(self) -> None:
        """Flush buffered updates and release the connection."""
        self._transport.close()

    def attach_fault_injector(self,
                              injector: FaultInjector | None) -> None:
        """Attach a :class:`FaultInjector` to this client's transport."""
        self._transport.attach_injector(injector)

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a :class:`repro.obs.Tracer` and/or
        :class:`repro.obs.MetricsRegistry` through this client's
        transport (and, on resilient clients, the degraded-mode
        machinery)."""
        if tracer is not None:
            self._tracer = tracer
        self._transport.attach_observability(tracer=tracer,
                                             metrics=metrics)

    def __enter__(self) -> "PSSClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one client.

    CLOSED passes operations through; ``threshold`` consecutive failures
    trip it OPEN.  While OPEN the client serves static fallbacks without
    touching the transport; after ``cooldown`` degraded calls the breaker
    HALF-OPENs and lets one probe operation through.  A successful probe
    closes the breaker (the transport healed); a failed one re-opens it
    for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int, cooldown: int,
                 stats: ResilienceStats | None = None) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._cooldown_left = 0
        self._stats = stats or ResilienceStats()
        # Observability: set by ResilientClient.attach_observability so
        # state transitions land on the owning client's trace track.
        self.tracer = NULL_TRACER
        self.trace_domain = ""
        self.trace_clock = None

    def _trace_transition(self, kind: str) -> None:
        ts = self.trace_clock() if self.trace_clock is not None else None
        self.tracer.record(kind, domain=self.trace_domain,
                           transport="breaker", ts_ns=ts)

    def allow(self) -> bool:
        """Whether the next operation may touch the transport."""
        if self.state == self.OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self._stats.breaker_closes += 1
            if self.tracer.enabled:
                self._trace_transition("breaker_close")

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self.state == self.HALF_OPEN \
                or self._consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self._cooldown_left = self.cooldown
            self._consecutive_failures = 0
            self._stats.breaker_opens += 1
            if self.tracer.enabled:
                self._trace_transition("breaker_open")


class ResilientClient(PSSClient):
    """A PSSClient that degrades gracefully instead of raising.

    The paper's safety property - predictions are hints, so a missing
    prediction may cost performance but never correctness - becomes an
    API guarantee here: ``predict``/``update``/``reset``/``flush`` never
    leak a :class:`~repro.core.errors.TransportFault` into scenario code.

    * Syscall-path operations get bounded retry with exponential backoff
      (simulated time, accounted in :attr:`stats`).
    * A :class:`CircuitBreaker` trips after repeated operation failures;
      while open, predictions are answered by the **static fallback**
      (per-domain configured: HLE always-attempts-HTM, JIT holds its
      parameters, mm applies the kernel's fixed 12.5 % threshold) and
      updates/resets are dropped - they are only hints.
    * When the transport heals, the breaker's half-open probe discovers
      it and normal service resumes.
    * Admission rejections (:class:`~repro.core.errors
      .QuotaExceededError`) are served by the same static fallback but
      are **never retried** and never trip the breaker: a retry cannot
      un-exhaust a budget, and the transport itself is healthy.
    * Shard crashes compose with the kernel's own failover ladder: a
      down shard's predictions are first served by its follower
      replicas (inside the handle, bounded-stale), and only when no
      follower holds the domain does the resulting
      :class:`~repro.core.errors.ShardDownError` - a
      :class:`~repro.core.errors.TransportFault` - reach this client,
      where it retries/falls back like any other transport fault.
      Buffered updates lost to a mid-flush crash are reported on
      ``stats`` as dropped, exactly like an undelivered batch.
    """

    def __init__(self, handle: DomainHandle,
                 transport_kind: str = "vdso",
                 latency: LatencyModel | None = None,
                 batch_size: int = 32,
                 resilience: ResilienceConfig | None = None,
                 fallback: Fallback = 0,
                 stats: ResilienceStats | None = None) -> None:
        super().__init__(handle, transport_kind, latency, batch_size)
        self.resilience = resilience or ResilienceConfig()
        # ``stats`` may be shared (PredictionService.connect hands every
        # resilient client of a domain the same block, so run reports
        # can surface a per-domain aggregate).
        self.stats = stats if stats is not None else ResilienceStats()
        self._breaker = CircuitBreaker(
            self.resilience.breaker_threshold,
            self.resilience.breaker_cooldown,
            self.stats,
        )
        self._fallback = fallback
        self._last_was_fallback = False

    def attach_observability(self, tracer=None, metrics=None) -> None:
        super().attach_observability(tracer=tracer, metrics=metrics)
        if tracer is not None:
            self._breaker.tracer = tracer
            self._breaker.trace_domain = self.domain_name
            self._breaker.trace_clock = \
                lambda: self._transport.account.total_ns

    def _trace_client(self, kind: str, detail: dict | None = None) -> None:
        self._tracer.record(
            kind, domain=self.domain_name, transport="client",
            ts_ns=self._transport.account.total_ns, detail=detail,
        )

    # -- introspection -------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    @property
    def last_prediction_was_fallback(self) -> bool:
        """True when the most recent predict was served degraded.

        Scenario code can use this to apply domain-specific degraded
        behaviour beyond the score itself (the JIT tuner holds its
        ladder position, for example).
        """
        return self._last_was_fallback

    def fallback_score(self, features: Sequence[int]) -> int:
        fb = self._fallback
        return fb(features) if callable(fb) else fb

    # -- async serving: degraded completion ----------------------------------

    def submit(self, features: Sequence[int],
               client_id: str = "") -> CompletionFuture:
        """Issue a predict through the pipeline with the resilient
        contract intact: the returned future *never* fails with a
        transport-class error.

        A shed (:class:`RequestShedError`), quota rejection, or kernel
        fault on the batch completes the future with the static
        fallback score instead - the async analogue of the synchronous
        degraded path.  No retry: shedding is the service asking for
        less load, so replaying the request would defeat it.
        """
        features = canonical_features(features)
        pipeline = self._pipeline
        if pipeline is None:
            future = CompletionFuture()
            future.complete(self.predict(features))
            return future
        self.stats.predictions += 1
        outer = CompletionFuture(SimEvent(pipeline.engine),
                                 submitted_ns=pipeline.engine.now)
        inner = pipeline.submit(self.domain_name, features,
                                client_id=client_id)

        def settle(done: CompletionFuture) -> None:
            error = done.error
            if error is None:
                outer.complete(done.result(), ts_ns=done.completed_ns)
                return
            if isinstance(error, RequestShedError):
                self.stats.shed_requests += 1
                reason = error.reason
            elif isinstance(error, QuotaExceededError):
                self.stats.quota_rejections += 1
                reason = "quota"
            elif isinstance(error, TransportFault):
                self.stats.transport_failures += 1
                reason = "transport_fault"
            else:
                outer.fail(error, ts_ns=done.completed_ns)
                return
            self._last_was_fallback = True
            self.stats.fallback_predictions += 1
            if self._tracer.enabled:
                self._trace_client("fallback",
                                   detail={"reason": reason})
            outer.complete(self.fallback_score(features),
                           ts_ns=done.completed_ns)

        inner.add_done_callback(settle)
        return outer

    def submit_update(self, features: Sequence[int], direction: bool,
                      client_id: str = "") -> CompletionFuture:
        """Issue an update; failures drop the hint, never the caller.

        The future always completes with ``None`` - a shed or faulted
        update is counted in :attr:`stats` as dropped, exactly like the
        synchronous degraded path drops hints while the breaker is
        open.
        """
        features = canonical_features(features)
        pipeline = self._pipeline
        if pipeline is None:
            future = CompletionFuture()
            self.update(features, direction)
            future.complete(None)
            return future
        outer = CompletionFuture(SimEvent(pipeline.engine),
                                 submitted_ns=pipeline.engine.now)
        inner = pipeline.submit(self.domain_name, features,
                                op="update", direction=direction,
                                client_id=client_id)

        def settle(done: CompletionFuture) -> None:
            error = done.error
            if error is not None:
                if isinstance(error, RequestShedError):
                    self.stats.shed_requests += 1
                elif isinstance(error, QuotaExceededError):
                    self.stats.quota_rejections += 1
                elif isinstance(error, TransportFault):
                    self.stats.transport_failures += 1
                else:
                    outer.fail(error, ts_ns=done.completed_ns)
                    return
                self.stats.dropped_updates += 1
            outer.complete(None, ts_ns=done.completed_ns)

        inner.add_done_callback(settle)
        return outer

    # -- the guarded calls (each re-declares its PSSClient span) ------------

    @spanned("predict")
    def predict(self, features: Sequence[int]) -> int:
        key = canonical_features(features)
        return self._guarded_predict(
            lambda: self._transport.predict(key), [key], batch=False)

    @spanned("predict_batch", detail=batch_rows)
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Batch predict with whole-batch degraded semantics.

        A batch is one guarded operation: the breaker is consulted once,
        retries replay the *entire* batch (transports either return all
        scores or raise before returning any, so a replay never
        double-serves a row), and on degradation every row of the batch
        is answered by the static fallback.
        """
        rows = [canonical_features(features) for features in feature_rows]
        if not rows:
            return []
        return self._guarded_predict(
            lambda: self._transport.predict_batch(rows), rows, batch=True)

    def _guarded_predict(self, call: Callable[[], Any],
                         rows: list[tuple[int, ...]], batch: bool) -> Any:
        """Run ``call`` (predicting ``rows``) behind the degrade ladder.

        Breaker open, quota exhausted, or a transport fault after
        retries each answer every row with the static fallback: a list
        for a batch, the single score otherwise.  Quota rejections are
        never retried and never trip the breaker - a retry cannot
        un-exhaust a budget, and the transport itself is healthy.
        """
        self.stats.predictions += len(rows)
        self._last_was_fallback = False
        if not self._breaker.allow():
            reason = "breaker_open"
        else:
            try:
                result = self._attempt(call)
            except QuotaExceededError:
                self.stats.quota_rejections += 1
                reason = "quota"
            except TransportFault:
                self.stats.transport_failures += 1
                self._breaker.record_failure()
                reason = "transport_fault"
            else:
                self._breaker.record_success()
                return result
        self._last_was_fallback = True
        self.stats.fallback_predictions += len(rows)
        if self._tracer.enabled:
            detail: dict[str, Any] = {"reason": reason}
            if batch:
                detail["rows"] = len(rows)
            self._trace_client("fallback", detail=detail)
        scores = [self.fallback_score(key) for key in rows]
        return scores if batch else scores[0]

    @spanned("update")
    def update(self, features: Sequence[int], direction: bool) -> None:
        features = canonical_features(features)
        if not self._breaker.allow():
            self.stats.dropped_updates += 1
            return
        try:
            self._attempt(
                lambda: self._transport.update(features, direction)
            )
        except QuotaExceededError:
            # Updates are hints; an over-budget tenant's hints are
            # dropped without touching the breaker.
            self.stats.quota_rejections += 1
            self.stats.dropped_updates += 1
        except TransportFault as fault:
            self.stats.transport_failures += 1
            if fault.lost_records == 0:
                # Syscall-style update: the record never reached a
                # buffer, so _attempt could not have counted it.
                self.stats.dropped_updates += 1
            self._breaker.record_failure()
        else:
            self._breaker.record_success()

    @spanned("reset")
    def reset(self, features: Sequence[int],
              reset_all: bool = False) -> None:
        features = canonical_features(features)
        if not self._breaker.allow():
            self.stats.dropped_resets += 1
            return
        try:
            self._attempt(
                lambda: self._transport.reset(features, reset_all)
            )
        except TransportFault:
            self.stats.transport_failures += 1
            self.stats.dropped_resets += 1
            self._breaker.record_failure()
        else:
            self._breaker.record_success()

    @spanned("flush")
    def flush(self) -> None:
        if self.pending_updates == 0:
            return
        if not self._breaker.allow():
            # Leave the records buffered: they are not lost, just late,
            # and will go out once the transport heals.
            return
        # No retry: a failed flush has already drained the batch buffer,
        # so retrying would only "succeed" against an empty buffer and
        # hide the loss.
        try:
            self._transport.flush()
        except QuotaExceededError as exc:
            self.stats.quota_rejections += 1
            self.stats.dropped_updates += getattr(exc, "lost_records", 0)
        except TransportFault as fault:
            self.stats.transport_failures += 1
            self.stats.dropped_updates += fault.lost_records
            self._breaker.record_failure()
        else:
            self._breaker.record_success()

    def close(self) -> None:
        try:
            self._transport.close()
        except QuotaExceededError as exc:
            self.stats.quota_rejections += 1
            self.stats.dropped_updates += getattr(exc, "lost_records", 0)
        except TransportFault as fault:
            self.stats.transport_failures += 1
            self.stats.dropped_updates += fault.lost_records

    # -- retry machinery ------------------------------------------------------

    def _attempt(self, operation: Callable[[], object]):
        """Run ``operation`` with bounded retry + exponential backoff.

        Batch records lost with any failed crossing are counted here
        (they are gone whether or not a later attempt succeeds).
        """
        config = self.resilience
        for attempt in range(config.max_attempts):
            try:
                return operation()
            except TransportFault as fault:
                self.stats.dropped_updates += fault.lost_records
                if attempt + 1 >= config.max_attempts:
                    raise
                self.stats.retries += 1
                backoff = (config.backoff_base_ns
                           * config.backoff_multiplier ** attempt)
                self.stats.backoff_ns += backoff
                if self._tracer.enabled:
                    self._trace_client("retry", detail={
                        "attempt": attempt + 1,
                        "errno": fault.errno_name,
                        "backoff_ns": backoff,
                    })
