"""Transports: how a client crosses into the service (paper Section 3.3).

The paper's key latency observation is that predictions can be served
read-only through a vDSO mapping (4.19 ns) while updates must cross via a
syscall (68 ns), and that pooling updates into batches "amortizes the
boundary crossing".  This module reproduces that cost structure with a
simulated-nanosecond account so experiments can compare:

* :class:`SyscallTransport` - every operation pays the syscall cost
  (the paper's "PSS-syscall" configuration in Figure 5).
* :class:`VdsoTransport`    - predictions pay only the vDSO read cost;
  updates are pooled in a :class:`BatchUpdateBuffer` and flushed as one
  syscall per batch (the paper's default "PSS" configuration).

Transports do not interpret features or results; they only move calls and
charge time.  The wrapped target is any object with the service's
``predict``/``update``/``reset`` signature, normally a
:class:`repro.core.service.DomainHandle`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Protocol, Sequence

from repro.core.config import LatencyModel
from repro.core.errors import (
    AdmissionError,
    ShardDownError,
    TransportClosedError,
    TransportError,
    TransportFault,
)
from repro.core.faults import FaultInjector
from repro.core.features import canonical_features
from repro.core.stats import LatencyAccount
from repro.obs.trace import NULL_TRACER, SpanHandleLike, batch_rows, spanned

#: score-cache probe sentinel distinct from the ``None`` placeholders
#: that :meth:`VdsoTransport.predict_batch` parks for in-flight misses
_ABSENT: object = object()


class ServiceTarget(Protocol):
    """What a transport needs from the service side."""

    def predict(self, features: Sequence[int]) -> int: ...

    def update(self, features: Sequence[int], direction: bool) -> None: ...

    def reset(self, features: Sequence[int], reset_all: bool) -> None: ...


class Transport:
    """Base transport: owns the latency model, account, and fault hooks."""

    #: human-readable name used in reports ("vdso" / "syscall")
    name = "base"

    def __init__(self, target: ServiceTarget,
                 latency: LatencyModel | None = None,
                 account: LatencyAccount | None = None) -> None:
        self._target = target
        self._latency = latency or LatencyModel()
        self.account = account or LatencyAccount()
        self._injector: FaultInjector | None = None
        self._closed = False
        #: structured event tracer; NULL_TRACER keeps the hot path to a
        #: single ``enabled`` attribute check when tracing is off
        self._tracer = NULL_TRACER
        self._obs_domain = getattr(target, "domain_name", "")
        # Empty on single-shard services, so their traces and metric
        # series stay byte-identical to the pre-kernel monolith.
        self._obs_shard = getattr(target, "shard_label", "")

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def injector(self) -> FaultInjector | None:
        return self._injector

    @property
    def tracer(self):
        return self._tracer

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Attach a :class:`repro.obs.Tracer` and/or a
        :class:`repro.obs.MetricsRegistry` to this transport.

        The tracer receives typed events for every crossing (timestamps
        are the account's cumulative simulated ns); the registry gets
        latency histograms via :meth:`LatencyAccount.attach_metrics`.
        An already-attached fault injector starts tracing its decisions
        through the same tracer.
        """
        if tracer is not None:
            self._tracer = tracer
            if self._injector is not None:
                self._injector.tracer = tracer
        if metrics is not None:
            self.account.attach_metrics(
                metrics, domain=self._obs_domain, transport=self.name,
                shard=self._obs_shard,
            )

    def attach_injector(self, injector: FaultInjector | None) -> None:
        """Attach (or, with None, detach) a fault injector.

        Every subsequent crossing consults the injector; detaching mid
        run models a transport that healed.
        """
        self._injector = injector
        if injector is not None and self._tracer.enabled:
            injector.tracer = self._tracer

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportClosedError(
                f"{self.name} transport used after close()"
            )

    def _syscall_fault(self):
        """Injected fault for one syscall crossing, or None."""
        if self._injector is None:
            return None
        return self._injector.syscall_fault()

    def predict(self, features: Sequence[int]) -> int:
        raise NotImplementedError

    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Scores for a whole batch of feature vectors.

        The base contract is a scalar loop - trivially bit-identical to
        ``[predict(r) for r in feature_rows]`` in scores, stats, and
        fault behaviour.  Concrete transports override this to amortize
        what their cost model allows (one syscall crossing, one pass
        over the score cache) while preserving that identity for scores
        and model-side stats.
        """
        return [self.predict(features) for features in feature_rows]

    def _target_predict_rows(
        self, rows: Sequence[tuple[int, ...]]
    ) -> list[int]:
        """Service-side scores for ``rows``, batched when the target can.

        A batch-aware target (:class:`repro.core.service.DomainHandle`)
        charges admission once for N predicts and scores through the
        domain's specialized plan; anything else is scored row by row.
        Either way the per-row model stats are identical.
        """
        batch = getattr(self._target, "predict_batch", None)
        if batch is not None:
            return batch(rows)
        predict = self._target.predict
        return [predict(key) for key in rows]

    def update(self, features: Sequence[int], direction: bool) -> None:
        raise NotImplementedError

    def _trace(self, kind: str, dur_ns: float = 0.0,
               detail: dict | None = None) -> None:
        """Record one event on this transport's track (pre-checked for
        ``enabled`` by callers on the hot path; safe either way)."""
        self._tracer.record(
            kind, domain=self._obs_domain, transport=self.name,
            ts_ns=self.account.total_ns, dur_ns=dur_ns,
            generation=getattr(self._target, "generation", 0),
            detail=detail, shard=self._obs_shard,
        )

    def _span(self, op: str, detail: dict | None) -> SpanHandleLike:
        """Span covering one boundary crossing on this transport's
        timeline (see :func:`~repro.obs.trace.spanned`; the account
        clock makes durations simulated ns, so the span is exactly what
        the crossing charged)."""
        return self._tracer.span(
            f"{self.name}.{op}", domain=self._obs_domain,
            transport=self.name, shard=self._obs_shard, detail=detail,
            clock=lambda: self.account.total_ns,
        )

    @spanned("reset")
    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        """Resets always cross via syscall: they write kernel state."""
        self._ensure_open()
        self.account.charge_syscall(self._latency.syscall_ns)
        self.account.charge_op("reset", self._latency.syscall_ns)
        if self._tracer.enabled:
            self._trace("reset", dur_ns=self._latency.syscall_ns,
                        detail={"reset_all": reset_all})
        self.flush()
        fault = self._syscall_fault()
        if fault is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={"op": "reset",
                                             "errno": fault.errno_name})
            raise fault
        self._target.reset(features, reset_all)

    def flush(self) -> None:
        """Deliver any buffered updates (no-op for unbuffered transports)."""
        self._ensure_open()

    def close(self) -> None:
        """Flush and detach; any later predict/update/reset/flush raises
        :class:`~repro.core.errors.TransportClosedError`.  Idempotent."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True


class SyscallTransport(Transport):
    """Every predict/update is an individual syscall.

    This is the paper's ablation point: correct but slow, because the
    prediction sits on the application's critical path.
    """

    name = "syscall"

    @spanned("predict")
    def predict(self, features: Sequence[int]) -> int:
        self._ensure_open()
        self.account.charge_syscall(self._latency.syscall_ns)
        self.account.charge_op("predict", self._latency.syscall_ns)
        if self._tracer.enabled:
            self._trace("predict", dur_ns=self._latency.syscall_ns)
        fault = self._syscall_fault()
        if fault is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={"op": "predict",
                                             "errno": fault.errno_name})
            raise fault  # the failed crossing still cost a syscall
        return self._target.predict(features)

    @spanned("predict_batch", detail=batch_rows)
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """One syscall round-trip for the whole batch.

        The crossing is priced like a batched update flush - one syscall
        plus one record cost per row - which is the whole point: at
        batch=N the per-prediction boundary cost drops from
        ``syscall_ns`` to ``syscall_ns / N + batch_record_ns``.  Scores
        and model-side stats are bit-identical to the scalar loop.

        Fault semantics intentionally diverge from the scalar loop and
        are the documented contract: the injector's syscall dice roll
        *once per batch*, not once per row, because there is only one
        crossing to fail - a fault loses the whole batch (no partial
        scores), and a fault sequence observed under scalar predicts
        will not line up with one observed under batching.
        """
        self._ensure_open()
        rows = [canonical_features(features) for features in feature_rows]
        if not rows:
            return []
        cost = (self._latency.syscall_ns
                + self._latency.batch_record_ns * len(rows))
        self.account.charge_syscall(cost)
        self.account.charge_op("predict", cost)
        if self._tracer.enabled:
            self._trace("predict_batch", dur_ns=cost,
                        detail={"rows": len(rows)})
        fault = self._syscall_fault()
        if fault is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={"op": "predict_batch",
                                             "errno": fault.errno_name})
            raise fault  # the failed crossing still cost a syscall
        return self._target_predict_rows(rows)

    @spanned("update")
    def update(self, features: Sequence[int], direction: bool) -> None:
        self._ensure_open()
        fault = self._syscall_fault()
        if fault is not None:
            # Crossing attempted and paid for, but no record delivered.
            self.account.charge_syscall(self._latency.syscall_ns)
            self.account.charge_op("update", self._latency.syscall_ns)
            if self._tracer.enabled:
                self._trace("fault", detail={"op": "update",
                                             "errno": fault.errno_name})
            raise fault
        self.account.charge_syscall(self._latency.syscall_ns, records=1)
        self.account.charge_op("update", self._latency.syscall_ns)
        if self._tracer.enabled:
            self._trace("update", dur_ns=self._latency.syscall_ns,
                        detail={"direction": direction})
        self._target.update(features, direction)


class BatchUpdateBuffer:
    """Local pool of pending update records (paper Section 3.3).

    "A local buffer aggregates updates and allows us to amortize the
    boundary crossing."  Records are (features, direction) tuples; a flush
    delivers them in arrival order in one simulated syscall.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise TransportError(
                f"batch capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._records: list[tuple[tuple[int, ...], bool]] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        return len(self._records) >= self.capacity

    def add(self, features: Sequence[int], direction: bool) -> None:
        if self.full:
            raise TransportError("buffer full; flush before adding")
        # Clients canonicalize to tuples at the boundary; only re-tuple
        # vectors that arrived through some other path.
        self._records.append((canonical_features(features), direction))

    def drain(self) -> list[tuple[tuple[int, ...], bool]]:
        records, self._records = self._records, []
        return records


def _pending_records(transport: "VdsoTransport") -> dict[str, int] | None:
    """``VdsoTransport.flush``'s span detail: a flush with nothing
    pending opens no span."""
    pending = len(transport._buffer)
    return {"records": pending} if pending else None


class VdsoTransport(Transport):
    """Read-only vDSO fast path for predictions, batched syscall updates.

    A vDSO "can be only used in a read-only manner", so ``predict`` is a
    direct memory read at vDSO cost, while ``update`` records are pooled
    and flushed once the batch fills (or on an explicit :meth:`flush`).

    When the target publishes a weight-``generation`` counter (a
    :class:`repro.core.service.DomainHandle` does), predictions are
    additionally memoized in a generation-keyed score cache: a feature
    vector predicted again while the weights have not changed is answered
    from the cache without re-evaluating the model - exactly the paper's
    read-only mapping, where repeated reads of unchanged kernel state
    cost only the read.  Cached answers are bit-identical (the weights
    did not move), still charge the vDSO read cost, and still count in
    the domain's prediction stats.  Any weight mutation bumps the
    generation and invalidates the whole cache.

    While a fault injector that can inject stale reads is attached, the
    score cache is bypassed: the injector's stale-read dice must roll on
    every read (determinism), injected staleness must not be masked by a
    memoized fresh score, and stale answers must never poison the cache.
    An injector with a zero stale-read rate leaves the fast path intact -
    its stale dice consume no randomness, so caching cannot perturb the
    fault sequence.

    Note the behavioural consequence the paper accepts: between flushes the
    model has not yet seen the buffered feedback, so learning lags by up to
    ``batch_size`` updates.  The transport ablation benchmark measures this
    latency/freshness trade-off.
    """

    name = "vdso"

    #: feature vectors remembered for stale-read injection
    STALE_CACHE_ENTRIES = 512

    #: bound on the generation-keyed score cache
    SCORE_CACHE_ENTRIES = 1024

    def __init__(self, target: ServiceTarget,
                 latency: LatencyModel | None = None,
                 account: LatencyAccount | None = None,
                 batch_size: int = 32) -> None:
        super().__init__(target, latency, account)
        self._buffer = BatchUpdateBuffer(batch_size)
        # Both caches are FIFO-bounded OrderedDicts: ``popitem(last=False)``
        # evicts the same victim as ``pop(next(iter(cache)))`` on a plain
        # dict but in O(1), where the plain-dict spelling rescans an
        # ever-growing tombstone prefix under churn (hits never reorder -
        # these are insertion-order caches, not LRU).
        #: last fresh score per feature vector, kept only under injection
        self._stale_cache: OrderedDict[tuple[int, ...], int] = OrderedDict()
        #: fresh score per feature vector, valid for one weight
        #: generation.  Values are scores, except transiently inside
        #: :meth:`predict_batch`, where a miss parks a ``None``
        #: placeholder until the batched service call fills it.
        self._score_cache: OrderedDict[
            tuple[int, ...], int | None
        ] = OrderedDict()
        self._score_cache_generation = -1
        # Capability probe, once: caching needs a generation counter to
        # key validity on; stats parity additionally needs the recorder.
        self._generation_source = (
            target if hasattr(target, "generation") else None
        )
        self._cached_recorder = getattr(
            target, "record_cached_prediction", None
        )

    @property
    def pending_updates(self) -> int:
        """Updates buffered but not yet delivered to the service."""
        return len(self._buffer)

    @property
    def score_cache_size(self) -> int:
        """Entries currently held by the generation-keyed score cache."""
        return len(self._score_cache)

    @spanned("predict")
    def predict(self, features: Sequence[int]) -> int:
        self._ensure_open()
        self.account.charge_vdso(self._latency.vdso_predict_ns)
        self.account.charge_op("predict", self._latency.vdso_predict_ns)
        traced = self._tracer.enabled
        if traced:
            self._trace("predict", dur_ns=self._latency.vdso_predict_ns)
        key = canonical_features(features)
        injector = self._injector
        if injector is not None and injector.plan.stale_read_rate > 0.0:
            return self._predict_injected(key)
        source = self._generation_source
        if source is None:
            return self._target.predict(key)
        cache = self._score_cache
        generation = source.generation
        if generation != self._score_cache_generation:
            if cache:
                cache.clear()
            self._score_cache_generation = generation
        else:
            score = cache.get(key)
            if score is not None:
                self.account.record_cache_hit()
                if traced:
                    self._trace("cache_hit")
                if self._cached_recorder is not None:
                    self._cached_recorder(score)
                return score
        self.account.record_cache_miss()
        if traced:
            self._trace("cache_miss")
        score = self._target.predict(key)
        if len(cache) >= self.SCORE_CACHE_ENTRIES:
            cache.popitem(last=False)
        cache[key] = score
        return score

    @spanned("predict_batch", detail=batch_rows)
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Batch of vDSO reads with one service call for the misses.

        Every row keeps the scalar path's exact per-read semantics -
        one vDSO charge, one ``predict`` trace event, one score-cache
        probe with the same hit/miss counters and FIFO eviction
        sequence, one stale-read die while staleness injection is armed
        - so scores, stats, and the injector's randomness stream are
        bit-identical to ``[predict(r) for r in feature_rows]``.  What
        batching amortizes is the service side: cache misses are
        collected and resolved through one
        :meth:`Transport._target_predict_rows` call, which a
        batch-aware target scores in a single pass over its weights.

        A miss eagerly reserves its cache slot with a ``None``
        placeholder so eviction decisions match a scalar replay even
        when the batch itself overflows the cache; a second occurrence
        of a pending row counts as the cache hit it would have been
        (its score is filled in once the batched call returns).
        """
        self._ensure_open()
        rows = [canonical_features(features) for features in feature_rows]
        account = self.account
        vdso_ns = self._latency.vdso_predict_ns
        traced = self._tracer.enabled
        injector = self._injector
        if injector is not None and injector.plan.stale_read_rate > 0.0:
            # Staleness injection bypasses the score cache and must
            # roll its dice once per read, in row order: no batching.
            out = []
            for key in rows:
                account.charge_vdso(vdso_ns)
                account.charge_op("predict", vdso_ns)
                if traced:
                    self._trace("predict", dur_ns=vdso_ns)
                out.append(self._predict_injected(key))
            return out
        source = self._generation_source
        if source is None:
            for key in rows:
                account.charge_vdso(vdso_ns)
                account.charge_op("predict", vdso_ns)
                if traced:
                    self._trace("predict", dur_ns=vdso_ns)
            return self._target_predict_rows(rows)
        cache = self._score_cache
        # Predictions never move weights, so one generation check covers
        # the whole batch (the scalar path re-checks an unchanged value).
        generation = source.generation
        if generation != self._score_cache_generation:
            if cache:
                cache.clear()
            self._score_cache_generation = generation
        recorder = self._cached_recorder
        limit = self.SCORE_CACHE_ENTRIES
        scores: list[int | None] = []
        #: (key, output position) per cache miss, in probe order
        pending: list[tuple[tuple[int, ...], int]] = []
        #: hits on a ``None`` placeholder parked by this very batch:
        #: score and cached-prediction stat are filled at resolve time
        aliases: list[tuple[tuple[int, ...], int]] = []
        for key in rows:
            account.charge_vdso(vdso_ns)
            account.charge_op("predict", vdso_ns)
            if traced:
                self._trace("predict", dur_ns=vdso_ns)
            cached = cache.get(key, _ABSENT)
            if cached is _ABSENT:
                account.record_cache_miss()
                if traced:
                    self._trace("cache_miss")
                if len(cache) >= limit:
                    cache.popitem(last=False)
                cache[key] = None
                pending.append((key, len(scores)))
                scores.append(None)
                continue
            account.record_cache_hit()
            if traced:
                self._trace("cache_hit")
            if cached is None:
                aliases.append((key, len(scores)))
                scores.append(None)
                continue
            if recorder is not None:
                recorder(cached)
            scores.append(cached)
        if pending:
            resolved = self._target_predict_rows(
                [key for key, _position in pending]
            )
            fresh: dict[tuple[int, ...], int] = {}
            for (key, position), score in zip(pending, resolved):
                # Fill the reserved slot in place; a placeholder the
                # batch itself evicted stays evicted, exactly as in a
                # scalar replay.
                if cache.get(key, _ABSENT) is None:
                    cache[key] = score
                scores[position] = score
                fresh[key] = score
            for key, position in aliases:
                score = fresh[key]
                if recorder is not None:
                    recorder(score)
                scores[position] = score
        return scores  # type: ignore[return-value]

    def _predict_injected(self, key: tuple[int, ...]) -> int:
        # A read-only mapping can lag the kernel's weight writes: a
        # stale read answers from the last score observed for this
        # feature vector.  Reads never fail - staleness is the vDSO's
        # only failure mode.
        if self._injector.stale_read():
            stale = self._stale_cache.get(key)
            if stale is not None:
                if self._tracer.enabled:
                    self._trace("stale_read")
                return stale
        score = self._target.predict(key)
        if key not in self._stale_cache \
                and len(self._stale_cache) >= self.STALE_CACHE_ENTRIES:
            self._stale_cache.popitem(last=False)
        self._stale_cache[key] = score
        return score

    def close(self) -> None:
        """Flush buffered updates, then drop the score and stale-read
        caches with the connection: a closed mapping must not keep
        answers alive past the handle they were read through."""
        try:
            super().close()
        finally:
            self._score_cache.clear()
            self._stale_cache.clear()
            self._score_cache_generation = -1

    @spanned("update")
    def update(self, features: Sequence[int], direction: bool) -> None:
        self._ensure_open()
        self._buffer.add(features, direction)
        if self._tracer.enabled:
            self._trace("update", detail={"direction": direction,
                                          "buffered": True})
        if self._buffer.full:
            self.flush()

    @spanned("flush", detail=_pending_records)
    def flush(self) -> None:
        self._ensure_open()
        records = self._buffer.drain()
        if not records:
            return
        cost = (self._latency.syscall_ns
                + self._latency.batch_record_ns * len(records))
        self.account.charge_op("flush", cost)
        delivered = len(records)
        fault = self._syscall_fault()
        if fault is None and self._injector is not None:
            delivered = self._injector.flush_outcome(len(records))
            if delivered < len(records):
                fault = TransportFault(
                    "EAGAIN", lost_records=len(records) - delivered,
                    message=(
                        f"batch flush delivered {delivered} of "
                        f"{len(records)} records"
                    ),
                )
        elif fault is not None:
            delivered = 0
            fault.lost_records = len(records)
        self.account.charge_syscall(cost, records=delivered)
        if self._tracer.enabled:
            self._trace("flush", dur_ns=cost,
                        detail={"records": len(records),
                                "delivered": delivered})
            if fault is not None:
                self._trace("fault", detail={
                    "op": "flush", "errno": fault.errno_name,
                    "lost_records": fault.lost_records,
                })
        quota_error: AdmissionError | None = None
        down_error: ShardDownError | None = None
        for index, (features, direction) in enumerate(records[:delivered]):
            try:
                self._target.update(features, direction)
            except AdmissionError as exc:
                # Budgets are monotonic: once one record is refused, the
                # rest of the batch would be too.  The suffix is dropped
                # and reported on the error like a lost batch.
                quota_error = exc
                quota_error.lost_records = delivered - index
                break
            except ShardDownError as exc:
                # The owning shard crashed: the primary refuses writes
                # until promotion, so the batch suffix is lost exactly
                # like an undelivered crossing.
                down_error = exc
                down_error.lost_records = delivered - index
                break
        if fault is not None:
            # The undelivered suffix is gone: updates are hints, and the
            # batch buffer was already drained when the crossing failed.
            raise fault
        if quota_error is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={
                    "op": "flush", "errno": "EDQUOT",
                    "lost_records": quota_error.lost_records,
                })
            raise quota_error
        if down_error is not None:
            if self._tracer.enabled:
                self._trace("fault", detail={
                    "op": "flush", "errno": down_error.errno_name,
                    "lost_records": down_error.lost_records,
                })
            raise down_error


def make_transport(kind: str, target: ServiceTarget,
                   latency: LatencyModel | None = None,
                   batch_size: int = 32) -> Transport:
    """Factory mapping a config string to a transport instance."""
    if kind == "vdso":
        return VdsoTransport(target, latency, batch_size=batch_size)
    if kind == "syscall":
        return SyscallTransport(target, latency)
    raise TransportError(f"unknown transport kind {kind!r}")
