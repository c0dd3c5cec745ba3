"""Accounting for predictions, feedback, and boundary-crossing latency.

Two concerns live here:

* :class:`PredictionStats` - per-domain counts of predictions and feedback,
  enough to compute the accuracy proxy the scenarios report.
* :class:`LatencyAccount` - simulated nanoseconds spent crossing the
  user/kernel boundary, broken down by transport path.  The paper's headline
  latency claim (4.19 ns vDSO vs 68 ns syscall) is reproduced by comparing
  these accounts across transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


def _add_fields(total: Any, other: Any) -> None:
    """Add every dataclass field of ``other`` into ``total``: a counter
    added to the class is merged without touching this code."""
    for spec in fields(total):
        name = spec.name
        setattr(total, name, getattr(total, name) + getattr(other, name))


@dataclass
class PredictionStats:
    """Counts of service activity for one domain."""

    predictions: int = 0
    positive_predictions: int = 0
    updates: int = 0
    rewards: int = 0
    penalties: int = 0
    resets: int = 0
    #: predictions answered by a client-side score cache without
    #: re-evaluating the model (the weights had not changed)
    cached_predictions: int = 0
    #: predictions served by a follower replica while the owning
    #: shard's primary was down (bounded-stale answers)
    failover_predictions: int = 0

    def record_prediction(self, score: int, threshold: int) -> None:
        self.predictions += 1
        if score >= threshold:
            self.positive_predictions += 1

    def record_cached_prediction(self, score: int, threshold: int) -> None:
        """A prediction served from a generation-keyed score cache.

        Counted as a normal prediction too, so accuracy proxies and
        activity totals stay identical whether or not the fast path hit.
        """
        self.record_prediction(score, threshold)
        self.cached_predictions += 1

    def record_failover_prediction(self, score: int,
                                   threshold: int) -> None:
        """A prediction a follower replica served during an outage.

        Counted as a normal prediction too: failover is transparent to
        accuracy proxies and activity totals.
        """
        self.record_prediction(score, threshold)
        self.failover_predictions += 1

    def record_update(self, direction: bool) -> None:
        self.updates += 1
        if direction:
            self.rewards += 1
        else:
            self.penalties += 1

    def record_reset(self) -> None:
        self.resets += 1

    @property
    def negative_predictions(self) -> int:
        return self.predictions - self.positive_predictions

    @property
    def reward_rate(self) -> float:
        """Fraction of feedback that was positive (accuracy proxy)."""
        if not self.updates:
            return 0.0
        return self.rewards / self.updates

    def merge(self, other: "PredictionStats") -> None:
        """Accumulate another stats block into this one."""
        _add_fields(self, other)


@dataclass
class LatencyAccount:
    """Simulated nanoseconds charged per boundary-crossing category.

    Means and counts are always maintained; attaching a
    :class:`repro.obs.metrics.MetricsRegistry` via :meth:`attach_metrics`
    additionally feeds every charge into log-bucketed latency histograms
    (p50/p90/p99/max) - the distribution view the mean-only seed
    accounting could not express.  Unattached accounts pay one ``None``
    check per charge.
    """

    vdso_ns: float = 0.0
    syscall_ns: float = 0.0
    vdso_calls: int = 0
    syscalls: int = 0
    #: update records delivered (across however many syscalls)
    update_records: int = 0
    #: predictions answered by the transport's score cache (no service call)
    cache_hits: int = 0
    #: predictions that had to evaluate the model (cacheable path only)
    cache_misses: int = 0
    #: simulated ns charged, broken down by operation kind
    op_ns: dict[str, float] = field(default_factory=dict)
    #: call counts, broken down by operation kind
    op_calls: dict[str, int] = field(default_factory=dict)

    # Metrics attachment state (class attributes, not dataclass fields:
    # an unattached account stays a plain counter block).
    _hist_vdso = None
    _hist_syscall = None
    _metrics = None
    _metric_labels = None

    def attach_metrics(self, registry, domain: str = "",
                       transport: str = "", shard: str = "") -> None:
        """Mirror every future charge into ``registry`` histograms.

        Creates ``pss_vdso_read_ns`` and ``pss_syscall_ns`` histograms
        labeled ``{domain, transport}`` plus per-operation
        ``pss_op_ns{op=...}`` histograms (resolved lazily per op kind).
        A ``shard`` label is added only when non-empty, so single-shard
        services emit byte-identical metric series to the pre-kernel
        monolith.
        """
        self._metrics = registry
        self._metric_labels = {"domain": domain, "transport": transport}
        if shard:
            self._metric_labels["shard"] = shard
        self._hist_vdso = registry.histogram(
            "pss_vdso_read_ns", **self._metric_labels
        )
        self._hist_syscall = registry.histogram(
            "pss_syscall_ns", **self._metric_labels
        )
        self._op_hists = {}
        self._cache_hit_counter = registry.counter(
            "pss_score_cache_hits_total", **self._metric_labels
        )
        self._cache_miss_counter = registry.counter(
            "pss_score_cache_misses_total", **self._metric_labels
        )

    def charge_vdso(self, ns: float) -> None:
        self.vdso_ns += ns
        self.vdso_calls += 1
        if self._hist_vdso is not None:
            self._hist_vdso.observe(ns)

    def charge_syscall(self, ns: float, records: int = 0) -> None:
        self.syscall_ns += ns
        self.syscalls += 1
        self.update_records += records
        if self._hist_syscall is not None:
            self._hist_syscall.observe(ns)

    def charge_op(self, op: str, ns: float) -> None:
        """Attribute ``ns`` of already-charged crossing time to one op kind.

        Transports call this alongside :meth:`charge_vdso` /
        :meth:`charge_syscall`, so ``op_ns`` is a *breakdown* of
        :attr:`total_ns` by operation, not additional time.
        """
        self.op_ns[op] = self.op_ns.get(op, 0.0) + ns
        self.op_calls[op] = self.op_calls.get(op, 0) + 1
        if self._metrics is not None:
            hist = self._op_hists.get(op)
            if hist is None:
                hist = self._op_hists[op] = self._metrics.histogram(
                    "pss_op_ns", op=op, **self._metric_labels
                )
            hist.observe(ns)

    def record_cache_hit(self) -> None:
        self.cache_hits += 1
        if self._metrics is not None:
            self._cache_hit_counter.inc()

    def record_cache_miss(self) -> None:
        self.cache_misses += 1
        if self._metrics is not None:
            self._cache_miss_counter.inc()

    def merge(self, other: "LatencyAccount") -> None:
        """Accumulate another account into this one (multi-client runs).

        Counterpart of :meth:`PredictionStats.merge`; histograms are not
        merged here - attach the same registry to every account instead.
        """
        self.vdso_ns += other.vdso_ns
        self.syscall_ns += other.syscall_ns
        self.vdso_calls += other.vdso_calls
        self.syscalls += other.syscalls
        self.update_records += other.update_records
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        for op, ns in other.op_ns.items():
            self.op_ns[op] = self.op_ns.get(op, 0.0) + ns
        for op, calls in other.op_calls.items():
            self.op_calls[op] = self.op_calls.get(op, 0) + calls

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cacheable predictions served without the service."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def mean_op_ns(self, op: str) -> float:
        """Average simulated ns per call of one operation kind."""
        calls = self.op_calls.get(op, 0)
        return self.op_ns.get(op, 0.0) / calls if calls else 0.0

    @property
    def total_ns(self) -> float:
        return self.vdso_ns + self.syscall_ns

    @property
    def mean_vdso_ns(self) -> float:
        return self.vdso_ns / self.vdso_calls if self.vdso_calls else 0.0

    @property
    def mean_syscall_ns(self) -> float:
        return self.syscall_ns / self.syscalls if self.syscalls else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "vdso_ns": self.vdso_ns,
            "syscall_ns": self.syscall_ns,
            "total_ns": self.total_ns,
            "vdso_calls": self.vdso_calls,
            "syscalls": self.syscalls,
            "update_records": self.update_records,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "ops": {
                op: {
                    "calls": self.op_calls.get(op, 0),
                    "ns": self.op_ns.get(op, 0.0),
                }
                for op in sorted(set(self.op_calls) | set(self.op_ns))
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "LatencyAccount":
        """Rebuild an account from a :meth:`snapshot` dict (round-trip).

        Derived values (``total_ns``, ``cache_hit_rate``) are recomputed
        from the restored counters, not read back.
        """
        ops = snapshot.get("ops", {})
        return cls(
            vdso_ns=snapshot["vdso_ns"],
            syscall_ns=snapshot["syscall_ns"],
            vdso_calls=snapshot["vdso_calls"],
            syscalls=snapshot["syscalls"],
            update_records=snapshot["update_records"],
            cache_hits=snapshot["cache_hits"],
            cache_misses=snapshot["cache_misses"],
            op_ns={op: entry["ns"] for op, entry in ops.items()},
            op_calls={op: entry["calls"] for op, entry in ops.items()},
        )


@dataclass
class ResilienceStats:
    """Degraded-mode accounting for one resilient client.

    Counts what the retry/breaker/fallback machinery did, so experiments
    can report how much of a run was served degraded and what the faults
    cost.  ``backoff_ns`` is simulated application-side wait time (it is
    not boundary-crossing time, so it is kept out of the
    :class:`LatencyAccount`).
    """

    predictions: int = 0
    fallback_predictions: int = 0
    retries: int = 0
    transport_failures: int = 0
    dropped_updates: int = 0
    dropped_resets: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    backoff_ns: float = 0.0
    #: operations the admission layer refused (quota exhausted); served
    #: degraded immediately - quota errors are never retried
    quota_rejections: int = 0
    #: async submits refused by serve-mode back-pressure (queue full or
    #: a paging SLO under enforcement); served by the static fallback
    #: without retry - shedding exists precisely to avoid more load
    shed_requests: int = 0

    @property
    def degraded_fraction(self) -> float:
        """Share of predictions answered by the static fallback."""
        if not self.predictions:
            return 0.0
        return self.fallback_predictions / self.predictions

    @property
    def any_activity(self) -> bool:
        """Whether this stats block recorded anything at all."""
        return any(getattr(self, spec.name) for spec in fields(self))

    def merge(self, other: "ResilienceStats") -> None:
        """Accumulate another resilient client's stats into this one."""
        _add_fields(self, other)


@dataclass
class DomainReport:
    """Bundled per-domain stats as returned by the service introspection."""

    name: str
    model: str
    stats: PredictionStats = field(default_factory=PredictionStats)
    latency: LatencyAccount = field(default_factory=LatencyAccount)
    #: weight-generation counter at report time (see Domain.generation)
    generation: int = 0
    #: shard hosting the domain (0 on single-shard services)
    shard: int = 0
    #: feature-vector -> selected-indices cache activity (model side)
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: aggregated resilient-client stats for this domain (None when no
    #: resilient client ever connected)
    resilience: ResilienceStats | None = None
    #: latency histogram summaries per boundary path, populated when the
    #: owning service has a metrics registry attached: maps a path name
    #: ("vdso_read_ns" / "syscall_ns") to a Histogram.snapshot() dict
    #: with count/mean/min/max/p50/p90/p99
    latency_percentiles: dict[str, dict[str, float]] = \
        field(default_factory=dict)

    @property
    def index_cache_hit_rate(self) -> float:
        lookups = self.index_cache_hits + self.index_cache_misses
        return self.index_cache_hits / lookups if lookups else 0.0

    @property
    def cached_prediction_rate(self) -> float:
        """Share of predictions served from client-side score caches."""
        if not self.stats.predictions:
            return 0.0
        return self.stats.cached_predictions / self.stats.predictions
