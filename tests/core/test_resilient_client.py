"""Tests for the retry / circuit-breaker / fallback client layer."""

from dataclasses import asdict

import pytest

from repro.core import (
    AdmissionController,
    ClientIdentity,
    FaultInjector,
    FaultPlan,
    PredictionService,
    PSSConfig,
    ResilienceConfig,
    ResilientClient,
    TenantQuota,
    TransportFault,
)
from repro.core.client import CircuitBreaker
from repro.core.errors import ConfigError
from repro.obs import Tracer


def make_client(transport="syscall", resilience=None, fallback=1,
                plan=None, **connect_kwargs):
    service = PredictionService()
    client = service.connect(
        "dom",
        config=PSSConfig(num_features=2),
        transport=transport,
        resilience=resilience or ResilienceConfig(),
        fallback=fallback,
        fault_plan=plan,
        **connect_kwargs,
    )
    return service, client


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_threshold=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(backoff_multiplier=0.5)

    def test_connect_builds_resilient_client(self):
        _, client = make_client()
        assert isinstance(client, ResilientClient)

    def test_plain_connect_stays_plain(self):
        service = PredictionService()
        client = service.connect("dom")
        assert not isinstance(client, ResilientClient)


class TestRetry:
    def test_transient_fault_retried_and_absorbed(self):
        # Rate 0.5 with bounded attempts: most predicts succeed on a
        # retry; none may raise.
        _, client = make_client(
            plan=FaultPlan(seed=3, syscall_failure_rate=0.5),
            resilience=ResilienceConfig(max_attempts=4,
                                        breaker_threshold=1000),
        )
        for i in range(300):
            client.predict([i % 4, 1])
        assert client.stats.retries > 0
        assert client.stats.backoff_ns > 0
        # With 4 attempts at rate 0.5 almost everything goes through.
        assert client.stats.fallback_predictions < 30

    def test_backoff_grows_exponentially(self):
        config = ResilienceConfig(max_attempts=3, backoff_base_ns=100.0,
                                  backoff_multiplier=2.0)
        _, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=config,
        )
        client.predict([1, 2])  # fails all 3 attempts -> 2 backoffs
        assert client.stats.backoff_ns == pytest.approx(100.0 + 200.0)


class TestCircuitBreaker:
    def failing_client(self, threshold=3, cooldown=4):
        return make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=threshold,
                                        breaker_cooldown=cooldown),
        )

    def test_opens_after_consecutive_failures(self):
        _, client = self.failing_client(threshold=3)
        for i in range(3):
            client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        assert client.stats.breaker_opens == 1

    def test_open_breaker_serves_fallback_without_transport(self):
        _, client = self.failing_client(threshold=2, cooldown=100)
        client.predict([1, 2])
        client.predict([1, 2])
        syscalls_when_opened = client.latency.syscalls
        score = client.predict([1, 2])
        assert score == 1  # the static fallback
        assert client.last_prediction_was_fallback
        assert client.latency.syscalls == syscalls_when_opened

    def test_half_open_probe_reopens_when_still_failing(self):
        _, client = self.failing_client(threshold=2, cooldown=3)
        for i in range(20):
            client.predict([1, 2])
        # Still injecting at rate 1.0: every probe fails, breaker
        # reopens every cooldown window.
        assert client.breaker_state == CircuitBreaker.OPEN
        assert client.stats.breaker_opens > 1
        assert client.stats.breaker_closes == 0

    def test_recovers_when_transport_heals(self):
        _, client = self.failing_client(threshold=2, cooldown=3)
        client.predict([1, 2])
        client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        client.attach_fault_injector(None)  # the transport healed
        for i in range(6):
            client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.CLOSED
        assert client.stats.breaker_closes == 1
        assert not client.last_prediction_was_fallback

    def test_open_breaker_drops_updates_and_resets(self):
        _, client = self.failing_client(threshold=1, cooldown=1000)
        client.predict([1, 2])
        assert client.breaker_state == CircuitBreaker.OPEN
        client.update([1, 2], True)
        client.reset([1, 2])
        assert client.stats.dropped_updates >= 1
        assert client.stats.dropped_resets == 1


class TestFallback:
    def test_constant_fallback(self):
        _, client = make_client(
            fallback=7,
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1),
        )
        assert client.predict([1, 2]) == 7

    def test_callable_fallback_sees_features(self):
        _, client = make_client(
            fallback=lambda features: -1 if features[0] >= 8 else 1,
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1),
        )
        assert client.predict([9, 0]) == -1
        assert client.predict([1, 0]) == 1

    def test_degraded_fraction_reported(self):
        _, client = make_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=1,
                                        breaker_threshold=1,
                                        breaker_cooldown=1000),
        )
        for i in range(10):
            client.predict([1, 2])
        assert client.stats.degraded_fraction > 0.8


class TestNoExceptionGuarantee:
    @pytest.mark.parametrize("transport", ["vdso", "syscall"])
    def test_no_fault_escapes_at_half_rate(self, transport):
        _, client = make_client(
            transport=transport,
            plan=FaultPlan.uniform(0.5, seed=9),
        )
        for i in range(500):
            client.predict([i % 8, 1])
            client.update([i % 8, 1], i % 3 == 0)
            if i % 100 == 99:
                client.reset([i % 8, 1])
        client.flush()
        client.close()  # none of the above may raise

    def test_plain_client_with_plan_does_raise(self):
        # The contrast: without the resilient layer, injected faults
        # reach the caller.
        service = PredictionService()
        client = service.connect(
            "dom", transport="syscall",
            fault_plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
        )
        with pytest.raises(TransportFault):
            client.predict([1, 2])

    def test_close_never_raises(self):
        _, client = make_client(
            transport="vdso",
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
        )
        client._transport._buffer.add([1], True)
        client.close()


class TestZeroRateTransparency:
    @pytest.mark.parametrize("transport", ["vdso", "syscall"])
    def test_identical_results_and_latency_at_rate_zero(self, transport):
        def run(resilient):
            service = PredictionService()
            kwargs = {}
            if resilient:
                kwargs = dict(resilience=ResilienceConfig(),
                              fault_plan=FaultPlan.uniform(0.0, seed=4))
            client = service.connect(
                "dom", config=PSSConfig(num_features=2),
                transport=transport, **kwargs,
            )
            scores = []
            for i in range(200):
                scores.append(client.predict([i % 8, 1]))
                client.update([i % 8, 1], i % 2 == 0)
            client.flush()
            return scores, client.latency.snapshot()

        plain_scores, plain_latency = run(resilient=False)
        res_scores, res_latency = run(resilient=True)
        assert res_scores == plain_scores
        assert res_latency == plain_latency

    def test_injector_rng_does_not_touch_global_random(self):
        import random
        random.seed(123)
        expected = [random.random() for _ in range(5)]
        random.seed(123)
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=7))
        for _ in range(50):
            injector.syscall_fault()
            injector.stale_read()
        assert [random.random() for _ in range(5)] == expected


class TestBatchDegradedPaths:
    """``predict_batch`` degrades the whole batch as one guarded call.

    Each reason pins the returned scores, every ``stats`` counter, the
    breaker state and the ``fallback`` trace detail; ``rows`` appears
    in the detail only for the batch call.
    """

    ROWS = [[1, 2], [3, 4], [5, 6]]

    @staticmethod
    def fallback(features):
        return features[0] * 10

    def traced_client(self, admission=None, plan=None, resilience=None):
        tracer = Tracer()
        service = PredictionService(tracer=tracer, admission=admission)
        client = service.connect(
            "dom", config=PSSConfig(num_features=2), transport="syscall",
            resilience=resilience or ResilienceConfig(),
            fallback=self.fallback, fault_plan=plan,
        )
        return tracer, client

    @staticmethod
    def fallback_details(tracer):
        return [event.detail for event in tracer.events()
                if event.kind == "fallback"]

    @staticmethod
    def counters(client, **changed):
        expected = dict(
            predictions=0, fallback_predictions=0, retries=0,
            transport_failures=0, dropped_updates=0, dropped_resets=0,
            breaker_opens=0, breaker_closes=0, backoff_ns=0.0,
            quota_rejections=0, shed_requests=0,
        )
        expected.update(changed)
        assert asdict(client.stats) == expected

    def failing(self, threshold):
        return self.traced_client(
            plan=FaultPlan(seed=0, syscall_failure_rate=1.0),
            resilience=ResilienceConfig(max_attempts=2,
                                        backoff_base_ns=100.0,
                                        breaker_threshold=threshold,
                                        breaker_cooldown=100),
        )

    def test_transport_fault_falls_back_every_row(self):
        tracer, client = self.failing(threshold=2)
        assert client.predict_batch(self.ROWS) == [10, 30, 50]
        self.counters(client, predictions=3, fallback_predictions=3,
                      retries=1, transport_failures=1, backoff_ns=100.0)
        assert client.breaker_state == CircuitBreaker.CLOSED
        assert client.last_prediction_was_fallback
        assert self.fallback_details(tracer) == [
            {"reason": "transport_fault", "rows": 3}]

    def test_breaker_open_skips_the_transport(self):
        tracer, client = self.failing(threshold=1)
        client.predict_batch(self.ROWS)  # trips the breaker
        assert client.breaker_state == CircuitBreaker.OPEN
        syscalls = client.latency.syscalls
        assert client.predict_batch(self.ROWS[:2]) == [10, 30]
        assert client.latency.syscalls == syscalls
        self.counters(client, predictions=5, fallback_predictions=5,
                      retries=1, transport_failures=1, backoff_ns=100.0,
                      breaker_opens=1)
        assert client.breaker_state == CircuitBreaker.OPEN
        assert self.fallback_details(tracer) == [
            {"reason": "transport_fault", "rows": 3},
            {"reason": "breaker_open", "rows": 2}]

    def test_quota_falls_back_without_retry_or_trip(self):
        admission = AdmissionController()
        admission.set_quota(ClientIdentity(), TenantQuota(predict_budget=2))
        tracer, client = self.traced_client(admission=admission)
        assert client.predict_batch(self.ROWS) == [10, 30, 50]
        self.counters(client, predictions=3, fallback_predictions=3,
                      quota_rejections=1)
        assert client.breaker_state == CircuitBreaker.CLOSED
        assert client.last_prediction_was_fallback
        assert self.fallback_details(tracer) == [
            {"reason": "quota", "rows": 3}]

    def test_healthy_batch_counts_rows_only(self):
        tracer, client = self.traced_client()
        assert client.predict_batch([]) == []
        scores = client.predict_batch(self.ROWS)
        assert len(scores) == 3
        self.counters(client, predictions=3)
        assert not client.last_prediction_was_fallback
        assert self.fallback_details(tracer) == []

    def test_scalar_fallback_detail_has_no_rows(self):
        tracer, client = self.failing(threshold=1)
        assert client.predict([7, 0]) == 70
        assert client.predict([8, 0]) == 80
        self.counters(client, predictions=2, fallback_predictions=2,
                      retries=1, transport_failures=1, backoff_ns=100.0,
                      breaker_opens=1)
        assert self.fallback_details(tracer) == [
            {"reason": "transport_fault"}, {"reason": "breaker_open"}]
