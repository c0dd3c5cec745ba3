"""Tests for prediction and latency accounting."""

from dataclasses import fields

import pytest

from repro.core.stats import (
    DomainReport,
    LatencyAccount,
    PredictionStats,
    ResilienceStats,
)


class TestPredictionStats:
    def test_prediction_counting_respects_threshold(self):
        stats = PredictionStats()
        stats.record_prediction(5, threshold=0)
        stats.record_prediction(-3, threshold=0)
        stats.record_prediction(0, threshold=0)  # ties are positive
        assert stats.predictions == 3
        assert stats.positive_predictions == 2
        assert stats.negative_predictions == 1

    def test_update_counting(self):
        stats = PredictionStats()
        for direction in (True, True, False):
            stats.record_update(direction)
        assert stats.updates == 3
        assert stats.rewards == 2
        assert stats.penalties == 1
        assert stats.reward_rate == pytest.approx(2 / 3)

    def test_reward_rate_empty(self):
        assert PredictionStats().reward_rate == 0.0

    def test_merge(self):
        a = PredictionStats(predictions=3, positive_predictions=2,
                            updates=4, rewards=1, penalties=3, resets=1)
        b = PredictionStats(predictions=1, positive_predictions=1,
                            updates=2, rewards=2, penalties=0, resets=0)
        a.merge(b)
        assert a.predictions == 4
        assert a.rewards == 3
        assert a.resets == 1


class TestLatencyAccount:
    def test_charges_accumulate(self):
        account = LatencyAccount()
        account.charge_vdso(4.19)
        account.charge_vdso(4.19)
        account.charge_syscall(68.0, records=5)
        assert account.vdso_calls == 2
        assert account.syscalls == 1
        assert account.update_records == 5
        assert account.total_ns == pytest.approx(8.38 + 68.0)

    def test_means(self):
        account = LatencyAccount()
        assert account.mean_vdso_ns == 0.0
        assert account.mean_syscall_ns == 0.0
        account.charge_vdso(4.0)
        account.charge_vdso(6.0)
        assert account.mean_vdso_ns == pytest.approx(5.0)

    def test_snapshot_keys(self):
        snap = LatencyAccount().snapshot()
        assert set(snap) == {
            "vdso_ns", "syscall_ns", "total_ns", "vdso_calls",
            "syscalls", "update_records",
            "cache_hits", "cache_misses", "cache_hit_rate", "ops",
        }

    def test_op_aggregates(self):
        account = LatencyAccount()
        account.charge_op("predict", 4.0)
        account.charge_op("predict", 6.0)
        account.charge_op("flush", 100.0)
        assert account.mean_op_ns("predict") == pytest.approx(5.0)
        assert account.mean_op_ns("flush") == pytest.approx(100.0)
        assert account.mean_op_ns("reset") == 0.0
        snap = account.snapshot()
        assert snap["ops"]["predict"] == {"calls": 2, "ns": 10.0}

    def test_cache_counters(self):
        account = LatencyAccount()
        assert account.cache_hit_rate == 0.0
        account.record_cache_hit()
        account.record_cache_hit()
        account.record_cache_miss()
        assert account.cache_hits == 2
        assert account.cache_misses == 1
        assert account.cache_hit_rate == pytest.approx(2 / 3)

    def test_merge(self):
        a = LatencyAccount()
        a.charge_vdso(4.0)
        a.charge_op("predict", 4.0)
        a.record_cache_hit()
        b = LatencyAccount()
        b.charge_vdso(6.0)
        b.charge_syscall(68.0, records=3)
        b.charge_op("predict", 6.0)
        b.charge_op("flush", 68.0)
        b.record_cache_miss()
        a.merge(b)
        assert a.vdso_calls == 2
        assert a.mean_vdso_ns == pytest.approx(5.0)
        assert a.syscalls == 1
        assert a.update_records == 3
        assert a.cache_hits == 1 and a.cache_misses == 1
        assert a.op_calls["predict"] == 2
        assert a.mean_op_ns("predict") == pytest.approx(5.0)
        assert a.op_calls["flush"] == 1

    def test_merge_with_empty_is_identity(self):
        a = LatencyAccount()
        a.charge_vdso(4.19)
        before = a.snapshot()
        a.merge(LatencyAccount())
        assert a.snapshot() == before

    def test_snapshot_round_trip(self):
        account = LatencyAccount()
        account.charge_vdso(4.19)
        account.charge_syscall(68.0, records=2)
        account.charge_op("predict", 4.19)
        account.charge_op("flush", 68.0)
        account.record_cache_hit()
        account.record_cache_miss()
        restored = LatencyAccount.from_snapshot(account.snapshot())
        assert restored.snapshot() == account.snapshot()
        assert restored.total_ns == pytest.approx(account.total_ns)
        assert restored.cache_hit_rate == \
            pytest.approx(account.cache_hit_rate)

    def test_from_snapshot_tolerates_missing_ops(self):
        snap = LatencyAccount().snapshot()
        del snap["ops"]
        restored = LatencyAccount.from_snapshot(snap)
        assert restored.op_ns == {}


class TestResilienceStats:
    def test_any_activity(self):
        assert not ResilienceStats().any_activity
        assert ResilienceStats(predictions=1).any_activity
        assert ResilienceStats(breaker_opens=1).any_activity

    def test_any_single_field_is_activity(self):
        for spec in fields(ResilienceStats):
            stats = ResilienceStats(**{spec.name: 1})
            assert stats.any_activity, spec.name

    def test_merge(self):
        a = ResilienceStats(predictions=5, fallback_predictions=2,
                            retries=1, backoff_ns=100.0)
        b = ResilienceStats(predictions=3, fallback_predictions=1,
                            dropped_updates=4, backoff_ns=50.0)
        a.merge(b)
        assert a.predictions == 8
        assert a.fallback_predictions == 3
        assert a.dropped_updates == 4
        assert a.backoff_ns == pytest.approx(150.0)
        assert a.degraded_fraction == pytest.approx(3 / 8)


@pytest.mark.parametrize("cls", [PredictionStats, ResilienceStats])
class TestEveryFieldCounts:
    """Every field is merged: a counter added to a stats class cannot
    be dropped by a merge that forgot to list it."""

    @staticmethod
    def _distinct(cls):
        return cls(**{spec.name: index + 1
                      for index, spec in enumerate(fields(cls))})

    def test_merge_adds_every_field(self, cls):
        total = self._distinct(cls)
        total.merge(self._distinct(cls))
        for index, spec in enumerate(fields(cls)):
            assert getattr(total, spec.name) == 2 * (index + 1), spec.name

    def test_merge_into_empty_is_a_copy(self, cls):
        total = cls()
        total.merge(self._distinct(cls))
        assert total == self._distinct(cls)


class TestDomainReport:
    def test_defaults(self):
        report = DomainReport(name="d", model="perceptron")
        assert report.stats.predictions == 0
        assert report.latency.total_ns == 0.0
        assert report.resilience is None
        assert report.latency_percentiles == {}

    def test_index_cache_hit_rate(self):
        report = DomainReport(name="d", model="perceptron",
                              index_cache_hits=3, index_cache_misses=1)
        assert report.index_cache_hit_rate == pytest.approx(0.75)
        assert DomainReport(name="d", model="p").index_cache_hit_rate \
            == 0.0

    def test_cached_prediction_rate(self):
        stats = PredictionStats(predictions=4, cached_predictions=1)
        report = DomainReport(name="d", model="perceptron", stats=stats)
        assert report.cached_prediction_rate == pytest.approx(0.25)
        assert DomainReport(name="d", model="p").cached_prediction_rate \
            == 0.0
