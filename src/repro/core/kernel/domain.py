"""Domains and policy-checked handles: the kernel's innermost layer.

A :class:`Domain` is one named predictor (model + config + policy +
stats); a :class:`DomainHandle` is the policy- and admission-checked
view of a domain that transports dispatch into.  Both moved here
verbatim from the pre-kernel ``core/service.py`` monolith; the only
additions are the shard identity a :class:`~repro.core.kernel.service
.ShardedService` stamps on each domain and the optional admission
charge on the handle's client-facing operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.config import PSSConfig
from repro.core.errors import ShardDownError
from repro.core.models import PredictorModel
from repro.core.policy import ClientIdentity, DomainPolicy, open_policy
from repro.core.stats import DomainReport, PredictionStats
from repro.obs.trace import (
    NULL_TRACER,
    SpanHandleLike,
    TracerLike,
    batch_rows,
    nonempty_batch_rows,
    spanned,
)

if TYPE_CHECKING:
    from repro.core.kernel.admission import AdmissionController
    from repro.core.kernel.shard import Shard


@dataclass
class Domain:
    """One named predictor hosted by the service."""

    name: str
    config: PSSConfig
    model: PredictorModel
    model_name: str
    policy: DomainPolicy = field(default_factory=open_policy)
    stats: PredictionStats = field(default_factory=PredictionStats)
    #: weight-generation offset: bumped per mutation for models that do
    #: not track their own generation, and once per restore that swaps
    #: learned state in (see :attr:`generation`)
    generation_offset: int = 0
    #: shard owning this domain (0 on single-shard services)
    shard_id: int = 0
    #: obs label for the owning shard; empty on single-shard services so
    #: traces and metrics stay byte-identical to the pre-kernel monolith
    shard_label: str = ""
    #: identity charged for this domain by admission control, if any
    created_by: ClientIdentity | None = None
    #: back-reference to the owning :class:`~repro.core.kernel.shard
    #: .Shard` (None for domains never hosted by a sharded service);
    #: restamped by migration, consulted by handles for crash failover
    shard: "Shard | None" = field(default=None, repr=False)
    #: the owning shard's tracer, stamped with :attr:`shard` by
    #: :meth:`attach_shard`: a plain attribute, so the span seam's
    #: untraced check costs no property call
    tracer: TracerLike = field(default=NULL_TRACER, init=False,
                               repr=False, compare=False)

    def attach_shard(self, shard: "Shard | None") -> None:
        """Set (or, with None, clear) the owning shard and its tracer."""
        self.shard = shard
        self.tracer = shard.tracer if shard is not None else NULL_TRACER

    def _span(self, op: str, detail: dict[str, Any]) -> SpanHandleLike:
        """One span per batched pass over the weights: this is where
        the specialized plan (when the model holds one) executes."""
        return self.tracer.span(
            f"plan.{op}", domain=self.name, transport="kernel",
            shard=self.shard_label, detail=detail,
        )

    @property
    def generation(self) -> int:
        """Monotonic counter that changes whenever the weights may have.

        Read-only fast paths (the vDSO transport's score cache) treat a
        cached score as current exactly while this value is unchanged -
        the paper's vDSO semantics, where the mapping exposes the
        kernel's latest published weight version.  Models that track
        their own mutation counter (the hashed perceptron) contribute it
        directly, so feedback the margin rule discarded does not
        invalidate anything; other models are bumped per update/reset.
        """
        model_generation = getattr(self.model, "generation", None)
        if model_generation is None:
            return self.generation_offset
        return self.generation_offset + model_generation

    def predict(self, features: Sequence[int]) -> int:
        score = self.model.predict(features)
        self.stats.record_prediction(score, self.config.threshold)
        return score

    @spanned("execute", detail=batch_rows, tracer="tracer")
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Scores for a whole batch, bit-identical to a scalar replay.

        Batch-aware models (the hashed perceptron) score all rows in
        one pass over their weights; others fall back to a scalar loop.
        Stats are recorded per row either way.
        """
        batch = getattr(self.model, "predict_batch", None)
        if batch is not None:
            scores = batch(feature_rows)
        else:
            predict = self.model.predict
            scores = [predict(features) for features in feature_rows]
        record = self.stats.record_prediction
        threshold = self.config.threshold
        for score in scores:
            record(score, threshold)
        return scores

    def record_cached_prediction(self, score: int) -> None:
        """Account a prediction a client served from its score cache."""
        self.stats.record_cached_prediction(score, self.config.threshold)

    def update(self, features: Sequence[int], direction: bool) -> None:
        self.model.update(features, direction)
        if getattr(self.model, "generation", None) is None:
            self.generation_offset += 1
        self.stats.record_update(direction)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self.model.reset(features, reset_all)
        if getattr(self.model, "generation", None) is None:
            self.generation_offset += 1
        self.stats.record_reset()

    def report(self) -> DomainReport:
        weights = getattr(self.model, "weights", None)
        return DomainReport(
            name=self.name, model=self.model_name, stats=self.stats,
            generation=self.generation,
            shard=self.shard_id,
            index_cache_hits=getattr(weights, "index_cache_hits", 0),
            index_cache_misses=getattr(weights, "index_cache_misses", 0),
        )


class DomainHandle:
    """Policy- and admission-checked view of a domain for one identity.

    This is the object transports call into; it is what the kernel-side
    of the vDSO/syscall boundary would dispatch to.  ``admission`` is
    the owning service's :class:`AdmissionController` (or None): every
    client-facing prediction and delivered update record is charged to
    the handle's identity, after the policy check.
    """

    def __init__(self, domain: Domain, identity: ClientIdentity,
                 admission: "AdmissionController | None" = None) -> None:
        self._domain = domain
        self._identity = identity
        self._admission = admission
        #: bound once: every shard of a service shares its tracer, so
        #: migration never changes which tracer a handle's spans go to
        self._tracer = domain.tracer

    @property
    def domain_name(self) -> str:
        return self._domain.name

    @property
    def identity(self) -> ClientIdentity:
        return self._identity

    @property
    def threshold(self) -> int:
        return self._domain.config.threshold

    @property
    def shard_id(self) -> int:
        """Shard owning the underlying domain."""
        return self._domain.shard_id

    @property
    def shard_label(self) -> str:
        """Obs label for the owning shard ("" on single-shard services)."""
        return self._domain.shard_label

    @property
    def generation(self) -> int:
        """The domain's weight-generation counter (read-only, no policy).

        Mirrors reading a version word out of the vDSO page: transports
        poll it to decide whether their cached scores are still current.
        """
        return self._domain.generation

    def _span(self, op: str,
              detail: dict[str, Any] | None) -> SpanHandleLike:
        """Span for one kernel-side dispatch into this handle's domain
        (see :func:`~repro.obs.trace.spanned`; nested spans inherit the
        enclosing transport span's simulated clock)."""
        return self._tracer.span(
            f"kernel.{op}", domain=self._domain.name, transport="kernel",
            shard=self._domain.shard_label, detail=detail,
        )

    def _charge_predict(self, count: int = 1) -> None:
        """Admission charge, wrapped in its own span when traced so the
        tree shows admission as a distinct stage of the request (an
        inline guard: a spanned helper would cost a frame per call)."""
        admission = self._admission
        if admission is None:
            return
        if self._tracer.enabled:
            with self._span("admission", {"count": count}):
                admission.charge_predict(self._identity, count=count)
            return
        admission.charge_predict(self._identity, count=count)

    @spanned("predict")
    def predict(self, features: Sequence[int]) -> int:
        self._domain.policy.check_predict(self._identity, self._domain.name)
        self._charge_predict()
        shard = self._domain.shard
        if shard is not None and shard.down:
            # Crashed primary: serve the bounded-stale follower answer
            # instead (raises ShardDownError when no follower holds
            # the domain) - reads survive the outage.
            return shard.failover_predict(self._domain, features)
        return self._domain.predict(features)

    @spanned("predict_batch", detail=nonempty_batch_rows)
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Policy- and admission-checked batch predict.

        The policy decision is stateless per identity/domain, so one
        check covers the batch; admission is charged as N predicts
        against the tenant budget in one all-or-nothing step (see
        :meth:`AdmissionController.charge_predict`).  On a crashed
        primary every row takes the same follower-failover path a
        scalar predict would.
        """
        if not feature_rows:
            return []
        self._domain.policy.check_predict(self._identity, self._domain.name)
        self._charge_predict(len(feature_rows))
        shard = self._domain.shard
        if shard is not None and shard.down:
            domain = self._domain
            return [shard.failover_predict(domain, features)
                    for features in feature_rows]
        return self._domain.predict_batch(feature_rows)

    def record_cached_prediction(self, score: int) -> None:
        """Account a cache-served prediction, with the same policy and
        admission checks a real predict would have passed."""
        self._domain.policy.check_predict(self._identity, self._domain.name)
        if self._admission is not None:
            self._admission.charge_predict(self._identity)
        self._domain.record_cached_prediction(score)

    @spanned("update")
    def update(self, features: Sequence[int], direction: bool) -> None:
        self._domain.policy.check_update(self._identity, self._domain.name)
        shard = self._domain.shard
        if shard is not None and shard.down:
            # Replicas are read-only: the record cannot be applied
            # anywhere, so refuse before charging the tenant's budget.
            raise ShardDownError(shard.shard_id, self._domain.name)
        if self._admission is not None:
            self._admission.charge_update(self._identity)
        self._domain.update(features, direction)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._domain.policy.check_reset(self._identity, self._domain.name)
        shard = self._domain.shard
        if shard is not None and shard.down:
            raise ShardDownError(shard.shard_id, self._domain.name)
        self._domain.reset(features, reset_all)
