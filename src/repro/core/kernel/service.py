"""The sharded, multi-tenant service kernel.

:class:`ShardedService` is the kernel (also exported under its
historical name :class:`~repro.core.service.PredictionService`): it
places every domain on one of ``num_shards`` shards via stable hashing
(:class:`~repro.core.kernel.sharding.ShardRouter`), keeps per-shard
stats and latency accounting
(:class:`~repro.core.kernel.shard.Shard`), and runs every client-facing
entry point through an optional :class:`~repro.core.kernel.admission
.AdmissionController` enforcing per-tenant quotas.

Single-shard mode is bit-identical to the pre-kernel monolith: with
``num_shards=1`` and no admission controller, every score, stat,
generation counter, and snapshot matches the old ``PredictionService``
exactly (property-tested against the frozen reference implementation in
``tests/core/reference_impl.py``).  Sharding is transparent to clients:
placement only decides which shard's bookkeeping a domain lands in, so
an N-shard service is behaviourally identical to a 1-shard one - what
it buys is independently checkpointable state slices and per-shard
observability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.config import (
    PSSConfig,
    ResilienceConfig,
    ServiceConfig,
)
from repro.core.errors import ConfigError, DomainError, ShardDownError
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.domain import Domain, DomainHandle
from repro.core.kernel.migrate import MigrationReport, SlotMigrator
from repro.core.kernel.shard import Shard
from repro.core.kernel.sharding import ShardRouter, SlotRing
from repro.core.models import create_model, ensure_builtin_models
from repro.core.plans import PlanCompiler, plan_signature
from repro.core.policy import ClientIdentity, DomainPolicy, open_policy
from repro.core.stats import DomainReport, ResilienceStats
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    MIGRATED_SLOTS_TOTAL,
    REPLICA_LAG_GENERATIONS,
    SHARD_CRASHES_TOTAL,
)
from repro.obs.trace import (
    NULL_TRACER,
    SpanHandleLike,
    TracerLike,
    nonempty_batch_rows,
    spanned,
)

if TYPE_CHECKING:
    from repro.core.client import Fallback, PSSClient
    from repro.core.faults import FaultInjector, FaultPlan


class ShardedService:
    """Container and dispatcher for prediction domains, in N shards.

    Passing a :class:`repro.obs.Tracer` and/or
    :class:`repro.obs.MetricsRegistry` turns on white-box observability:
    every client opened through :meth:`connect` is wired to them, and
    :meth:`reports` aggregates latency histogram percentiles and
    resilient-client stats per domain.  On multi-shard services every
    trace event and metric series additionally carries a ``shard``
    label.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 tracer: TracerLike | None = None,
                 metrics: MetricsRegistry | None = None,
                 num_shards: int = 1,
                 admission: AdmissionController | None = None,
                 num_replicas: int = 0) -> None:
        ensure_builtin_models()
        self.config = config or ServiceConfig()
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else NULL_TRACER)
        self.metrics = metrics
        self.admission = admission
        if num_replicas < 0:
            raise ConfigError(
                f"num_replicas must be >= 0, got {num_replicas}"
            )
        #: follower replicas attached to every shard (current and
        #: future - shards grown by a reshard get the same K)
        self.num_replicas = num_replicas
        self._router = ShardRouter(num_shards)
        self._shards = [
            Shard(i, tracer=self.tracer, num_replicas=num_replicas,
                  metrics=metrics)
            for i in range(num_shards)
        ]
        self._active_migration: SlotMigrator | None = None
        #: per-domain aggregate resilient-client stats (shared by every
        #: resilient client connect() opens on that domain)
        self._resilience_stats: dict[str, ResilienceStats] = {}
        #: PRETZEL-style plan cache: every domain this kernel creates
        #: binds its weights through this compiler, so identical-shape
        #: domains - across shards and tenants - share one read-only
        #: :class:`~repro.core.plans.SpecializedPlan` (see
        #: docs/PERFORMANCE.md); hit/miss stats surface in
        #: :meth:`shard_summaries`
        self.plans = PlanCompiler(self.tracer)

    # -- shard topology ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def ring(self) -> SlotRing:
        """The slot ring placement table (shared with the router)."""
        return self._router.ring

    @property
    def shards(self) -> tuple[Shard, ...]:
        return tuple(self._shards)

    def shard(self, shard_id: int) -> Shard:
        try:
            return self._shards[shard_id]
        except IndexError:
            raise DomainError(
                f"unknown shard {shard_id} "
                f"(service has {self.num_shards})"
            ) from None

    def shard_of(self, name: str) -> int:
        """The shard id that owns (or would own) domain ``name``."""
        return self._router.shard_of(name)

    def _domain_count(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # -- live resharding ---------------------------------------------------

    def begin_reshard(self, new_shard_count: int,
                      injector: FaultInjector | None = None
                      ) -> SlotMigrator:
        """Start an incremental live migration to ``new_shard_count``.

        Returns the :class:`~repro.core.kernel.migrate.SlotMigrator`;
        the caller drives it one slot handoff per ``step()``, with the
        service fully live (and routing consistent) in between.  At
        most one migration may be active at a time.
        """
        if self._active_migration is not None \
                and not self._active_migration.done:
            raise DomainError(
                "a reshard is already in progress "
                f"({self._active_migration.pending_slots} slots pending)"
            )
        migrator = SlotMigrator(self, new_shard_count, injector=injector)
        self._active_migration = migrator
        return migrator

    def reshard(self, new_shard_count: int) -> MigrationReport:
        """Run a complete live migration to ``new_shard_count``.

        Equivalent to driving :meth:`begin_reshard` to completion with
        no traffic interleaved; every handoff still follows the
        generation-verified slot protocol, so scores are bit-identical
        before and after.
        """
        for shard in self._shards:
            if shard.down:
                raise DomainError(
                    f"cannot reshard while shard {shard.shard_id} is "
                    f"down; promote it first"
                )
        migrator = self.begin_reshard(new_shard_count)
        while not migrator.done:
            migrator.step()
        return migrator.report()

    def grow_shards(self, new_shard_count: int) -> None:
        """Extend the shard list for a growing migration (migrator
        hook; the ring still routes every slot to its old owner until
        the individual handoffs commit)."""
        for shard_id in range(len(self._shards), new_shard_count):
            self._shards.append(
                Shard(shard_id, tracer=self.tracer,
                      num_replicas=self.num_replicas,
                      metrics=self.metrics)
            )

    def finish_reshard(self, new_shard_count: int) -> None:
        """Finalize a completed migration (migrator hook): truncate
        doomed shards (they are empty - their last slot was handed
        off) and restamp every domain's obs label for the new
        topology."""
        if new_shard_count < len(self._shards):
            for shard in self._shards[new_shard_count:]:
                if shard.domains:  # pragma: no cover - protocol guard
                    raise DomainError(
                        f"shard {shard.shard_id} still hosts "
                        f"{len(shard)} domains at reshard finalization"
                    )
            del self._shards[new_shard_count:]
        for shard in self._shards:
            label = str(shard.shard_id) if new_shard_count > 1 else ""
            for domain in shard.domains.values():
                domain.shard_label = label
        if self.metrics is not None \
                and self._active_migration is not None:
            self.metrics.counter(MIGRATED_SLOTS_TOTAL).inc(
                self._active_migration.moved_slots
            )

    # -- crash / failover / replication ------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Fault-inject a primary crash: destroy the shard's in-memory
        model state and mark it down.

        Domains stay registered (their stats and identity survive, as
        directory metadata would) but every model restarts cold with a
        generation strictly above all pre-crash values, so stale score
        caches self-invalidate.  Reads fail over to follower replicas;
        writes raise :class:`~repro.core.errors.ShardDownError` until a
        :class:`~repro.core.kernel.replica.ReplicaPromoter` revives the
        shard.
        """
        shard = self.shard(shard_id)
        if shard.down:
            raise DomainError(f"shard {shard_id} is already down")
        for name in sorted(shard.domains):
            domain = shard.domains[name]
            survivor_generation = domain.generation
            domain.model = create_model(domain.model_name, domain.config)
            domain.generation_offset = survivor_generation + 1
            # The cold model re-binds the shared plan: shape survived
            # the crash even though the learned state did not.
            self._bind_plan(domain)
        shard.down = True
        if self.tracer.enabled:
            self.tracer.record(
                "shard_crash", transport="kernel",
                detail={"domains": len(shard)},
                shard=str(shard_id),
            )
        if self.metrics is not None:
            self.metrics.counter(
                SHARD_CRASHES_TOTAL, shard=str(shard_id)
            ).inc()

    def sync_replicas(self, injector: FaultInjector | None = None) -> int:
        """Refresh every up shard's follower replicas (a flush /
        generation boundary); returns total followers refreshed.

        Down shards are skipped: their primaries hold post-crash cold
        state, and syncing would destroy the very follower snapshots a
        promotion needs.
        """
        refreshed = 0
        for shard in self._shards:
            if shard.down or not shard.replicas:
                continue
            for replica in shard.replicas:
                refreshed += replica.sync(
                    shard, injector=injector, tracer=self.tracer
                )
            if self.metrics is not None:
                self.metrics.gauge(
                    REPLICA_LAG_GENERATIONS, shard=str(shard.shard_id)
                ).set(float(shard.replica_lag()))
        return refreshed

    # -- domain management -------------------------------------------------

    def create_domain(self, name: str,
                      config: PSSConfig | None = None,
                      model: str = "perceptron",
                      policy: DomainPolicy | None = None,
                      identity: ClientIdentity | None = None) -> Domain:
        """Register a new prediction domain on its owning shard.

        ``identity`` is the tenant charged by admission control; direct
        kernel-side callers (tests, persistence restore) pass None and
        are never charged.

        Raises:
            DomainError: if the name is taken or the service is full.
            QuotaExceededError: if the identity's domain quota is spent.
        """
        shard = self._shards[self._router.shard_of(name)]
        if name in shard:
            raise DomainError(f"domain {name!r} already exists")
        if self._domain_count() >= self.config.max_domains:
            raise DomainError(
                f"service is full ({self.config.max_domains} domains)"
            )
        if self.admission is not None and identity is not None:
            self.admission.admit_domain(identity, name)
        domain_config = config or PSSConfig()
        domain = Domain(
            name=name,
            config=domain_config,
            model=create_model(model, domain_config),
            model_name=model,
            policy=policy or open_policy(),
            shard_id=shard.shard_id,
            shard_label=(str(shard.shard_id)
                         if self.num_shards > 1 else ""),
            created_by=identity,
        )
        shard.domains[name] = domain
        domain.attach_shard(shard)
        self._bind_plan(domain)
        return domain

    def _bind_plan(self, domain: Domain) -> None:
        """Bind the model's weights to the kernel's shared plan cache.

        Models without a plan-capable weight matrix (nothing to
        specialize) are left alone; they score through their own
        ``predict`` as before.
        """
        weights = getattr(domain.model, "weights", None)
        if weights is not None and hasattr(weights, "attach_plan"):
            weights.attach_plan(self.plans.plan_for(domain.config))

    def domain(self, name: str) -> Domain:
        try:
            return self._shards[self._router.shard_of(name)].domains[name]
        except KeyError:
            raise DomainError(f"unknown domain {name!r}") from None

    def has_domain(self, name: str) -> bool:
        return name in self._shards[self._router.shard_of(name)]

    def remove_domain(self, name: str) -> None:
        shard = self._shards[self._router.shard_of(name)]
        domain = shard.domains.pop(name, None)
        if domain is None:
            raise DomainError(f"unknown domain {name!r}")
        domain.attach_shard(None)
        shard._accounts.pop(name, None)
        if self.admission is not None and domain.created_by is not None:
            self.admission.release_domain(domain.created_by)

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(
            name for shard in self._shards for name in shard.domains
        ))

    def _resolve(self, name: str, config: PSSConfig | None,
                 model: str,
                 identity: ClientIdentity | None = None) -> Domain:
        """Find a domain, creating it implicitly when configured to."""
        shard = self._shards[self._router.shard_of(name)]
        domain = shard.domains.get(name)
        if domain is not None:
            return domain
        if not self.config.implicit_domains:
            raise DomainError(f"unknown domain {name!r}")
        return self.create_domain(name, config=config, model=model,
                                  identity=identity)

    # -- client access -----------------------------------------------------

    def handle(self, name: str,
               identity: ClientIdentity | None = None,
               config: PSSConfig | None = None,
               model: str = "perceptron") -> DomainHandle:
        """Policy-checked handle on a (possibly implicitly created) domain."""
        who = identity or ClientIdentity()
        domain = self._resolve(name, config, model, identity=who)
        return DomainHandle(domain, who, admission=self.admission)

    def connect(self, name: str,
                identity: ClientIdentity | None = None,
                transport: str = "vdso",
                config: PSSConfig | None = None,
                model: str = "perceptron",
                batch_size: int | None = None,
                resilience: ResilienceConfig | None = None,
                fallback: Fallback | None = None,
                fault_plan: FaultPlan | FaultInjector | dict[str, Any]
                | None = None) -> PSSClient:
        """Open a :class:`repro.core.client.PSSClient` on a domain.

        This is the normal entry point for applications: it wires the
        policy-checked handle through the requested transport (vDSO by
        default, matching the paper's deployment).

        Passing ``resilience`` (a :class:`~repro.core.config
        .ResilienceConfig`) or ``fallback`` (a static fallback score or
        ``features -> score`` callable) upgrades the client to a
        :class:`~repro.core.client.ResilientClient` with retry/backoff,
        a circuit breaker, and degraded-mode fallbacks.  ``fault_plan``
        (a :class:`~repro.core.faults.FaultPlan` or ready-made
        :class:`~repro.core.faults.FaultInjector`) attaches fault
        injection to the client's transport - combine both to exercise
        graceful degradation, or inject without resilience to observe
        raw :class:`~repro.core.errors.TransportFault` propagation.
        """
        # Local import: client builds on service, not the other way around.
        from repro.core.client import PSSClient, ResilientClient
        from repro.core.faults import FaultInjector, FaultPlan

        who = identity or ClientIdentity()
        domain = self._resolve(name, config, model, identity=who)
        handle = DomainHandle(domain, who, admission=self.admission)
        effective_batch = (batch_size if batch_size is not None
                           else domain.config.update_batch_size)
        if resilience is not None or fallback is not None:
            shared_stats = self._resilience_stats.setdefault(
                name, ResilienceStats()
            )
            client = ResilientClient(
                handle,
                transport_kind=transport,
                latency=self.config.latency,
                batch_size=effective_batch,
                resilience=resilience,
                fallback=0 if fallback is None else fallback,
                stats=shared_stats,
            )
        else:
            client = PSSClient(
                handle,
                transport_kind=transport,
                latency=self.config.latency,
                batch_size=effective_batch,
            )
        self._shards[domain.shard_id].register_account(
            client.latency, domain.name
        )
        if self.tracer.enabled or self.metrics is not None:
            client.attach_observability(
                tracer=self.tracer if self.tracer.enabled else None,
                metrics=self.metrics,
            )
        if fault_plan is not None:
            injector = (fault_plan if isinstance(fault_plan, FaultInjector)
                        else FaultInjector(FaultPlan(**fault_plan)
                                           if isinstance(fault_plan, dict)
                                           else fault_plan))
            client.attach_fault_injector(injector)
        return client

    # -- paper-signature convenience (kernel-internal callers) --------------

    def predict(self, name: str, features: Sequence[int]) -> int:
        """Direct in-kernel predict; no transport latency is charged.

        Follows the same failover rule as client handles: a crashed
        shard's predictions are served by its freshest follower.
        """
        domain = self.domain(name)
        shard = domain.shard
        if shard is not None and shard.down:
            return shard.failover_predict(domain, features)
        return domain.predict(features)

    def _span(self, op: str, detail: dict[str, Any],
              shard: str = "") -> SpanHandleLike:
        """Kernel-track span (see :func:`~repro.obs.trace.spanned`)."""
        return self.tracer.span(f"kernel.{op}", transport="kernel",
                                shard=shard, detail=detail)

    @spanned("predict_batch", detail=nonempty_batch_rows, tracer="tracer")
    def predict_batch(
        self, requests: Sequence[tuple[str, Sequence[int]]],
        identity: ClientIdentity | None = None,
    ) -> list[int]:
        """Batch predict across domains, fanned out shard by shard.

        ``requests`` are ``(domain_name, features)`` pairs; rows are
        grouped by owning shard and visited in shard-id order, each
        domain scoring its rows in one specialized pass
        (:meth:`Domain.predict_batch`), and scores return in request
        order.  Scores and per-domain stats are bit-identical to the
        scalar loop ``[self.predict(name, f) for name, f in requests]``.

        Like the scalar convenience this is a kernel-internal entry and
        charges no transport latency; passing an ``identity`` opts the
        whole batch into admission control as N predicts against that
        tenant's budget, all-or-nothing (see
        :meth:`AdmissionController.charge_predict`).
        """
        if not requests:
            return []
        # The admission/route/dispatch stages guard their spans inline:
        # a spanned helper per stage would cost a frame per batch.
        traced = self.tracer.enabled
        resolved = [(self.domain(name), features)
                    for name, features in requests]
        if identity is not None and self.admission is not None:
            if traced:
                with self._span("admission", {"count": len(resolved)}):
                    self.admission.charge_predict(identity,
                                                  count=len(resolved))
            else:
                self.admission.charge_predict(identity,
                                              count=len(resolved))
        #: shard id -> domain name -> request positions, insertion-ordered
        groups: dict[int, dict[str, list[int]]] = {}
        if traced:
            with self._span("route", {"rows": len(resolved)}) as route:
                for position, (domain, _features) in enumerate(resolved):
                    groups.setdefault(domain.shard_id, {}) \
                          .setdefault(domain.name, []).append(position)
                route.annotate(shards=len(groups))
        else:
            for position, (domain, _features) in enumerate(resolved):
                groups.setdefault(domain.shard_id, {}) \
                      .setdefault(domain.name, []).append(position)
        scores: list[int | None] = [None] * len(resolved)
        for shard_id in sorted(groups):
            if traced:
                rows_here = sum(len(positions)
                                for positions in groups[shard_id].values())
                with self._span("dispatch", {"rows": rows_here},
                                shard=str(shard_id)):
                    self._dispatch_shard_batch(groups[shard_id],
                                               resolved, scores)
            else:
                self._dispatch_shard_batch(groups[shard_id],
                                           resolved, scores)
        return scores  # type: ignore[return-value]

    def _dispatch_shard_batch(
        self, by_domain: dict[str, list[int]],
        resolved: Sequence[tuple[Domain, Sequence[int]]],
        scores: list[int | None],
    ) -> None:
        """Score one shard's slice of a batch into ``scores`` in place."""
        for _name, positions in by_domain.items():
            domain = resolved[positions[0]][0]
            rows = [resolved[position][1] for position in positions]
            shard = domain.shard
            if shard is not None and shard.down:
                row_scores = [shard.failover_predict(domain, row)
                              for row in rows]
            else:
                row_scores = domain.predict_batch(rows)
            for position, score in zip(positions, row_scores):
                scores[position] = score

    def update(self, name: str, features: Sequence[int],
               direction: bool) -> None:
        """Direct in-kernel update (refused while the shard is down)."""
        domain = self.domain(name)
        shard = domain.shard
        if shard is not None and shard.down:
            raise ShardDownError(shard.shard_id, name)
        domain.update(features, direction)

    def reset(self, name: str, features: Sequence[int],
              reset_all: bool = False) -> None:
        """Direct in-kernel reset (refused while the shard is down)."""
        domain = self.domain(name)
        shard = domain.shard
        if shard is not None and shard.down:
            raise ShardDownError(shard.shard_id, name)
        domain.reset(features, reset_all)

    # -- introspection -------------------------------------------------------

    def reports(self) -> list[DomainReport]:
        """Per-domain activity reports, sorted by domain name.

        When the service carries a metrics registry, each report also
        gets latency-histogram percentile summaries (vDSO reads and
        syscalls, merged across every transport that served the domain);
        domains that ever had a resilient client attached additionally
        carry the aggregated :class:`ResilienceStats`.
        """
        reports: list[DomainReport] = []
        for name in self.domain_names():
            report = self.domain(name).report()
            resilience = self._resilience_stats.get(name)
            if resilience is not None and resilience.any_activity:
                report.resilience = resilience
            if self.metrics is not None:
                for path, metric in (("vdso_read_ns",
                                      "pss_vdso_read_ns"),
                                     ("syscall_ns", "pss_syscall_ns")):
                    merged = self.metrics.merged_histogram(
                        metric, domain=name
                    )
                    if merged.count:
                        report.latency_percentiles[path] = \
                            merged.snapshot()
            reports.append(report)
        return reports

    def shard_summaries(self) -> list[dict[str, Any]]:
        """Per-shard load view for shard-scaling reports.

        One dict per shard: domain count, slots owned on the ring,
        aggregate prediction/update volume, the merged
        boundary-crossing account, liveness and failover counters, and
        - when the service carries a metrics registry - vDSO/syscall
        latency percentile snapshots merged over the shard's domains.
        Replicated shards additionally report their worst follower lag
        (``replica_lag``, in generations).
        """
        summaries: list[dict[str, Any]] = []
        for shard in self._shards:
            stats = shard.merged_stats()
            latency = shard.merged_latency()
            summary: dict[str, Any] = {
                "shard": shard.shard_id,
                "domains": len(shard),
                "domain_names": shard.domain_names(),
                "slots": len(self.ring.slots_of(shard.shard_id)),
                "predictions": stats.predictions,
                "updates": stats.updates,
                "latency": latency,
                "latency_percentiles": {},
                "down": shard.down,
                "failover_predictions": shard.failover_predictions,
            }
            if shard.replicas:
                summary["replicas"] = len(shard.replicas)
                summary["replica_lag"] = shard.replica_lag()
            if len(self.plans):
                # Distinct model shapes hosted here; the service-wide
                # compiler sharing stats ride along on every row (the
                # cache itself is kernel-global, not per shard).
                summary["plans"] = len({
                    plan_signature(domain.config)
                    for domain in shard.domains.values()
                })
                summary["plan_cache"] = self.plans.stats()
            if self.metrics is not None and shard.domains:
                for path, metric in (("vdso_read_ns",
                                      "pss_vdso_read_ns"),
                                     ("syscall_ns", "pss_syscall_ns")):
                    merged: Histogram | None = None
                    for name in shard.domain_names():
                        part = self.metrics.merged_histogram(
                            metric, domain=name
                        )
                        if merged is None:
                            merged = part
                        else:
                            merged.merge(part)
                    if merged is not None and merged.count:
                        summary["latency_percentiles"][path] = \
                            merged.snapshot()
            summaries.append(summary)
        return summaries
