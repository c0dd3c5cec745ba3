"""Seeded inputs for every workload, owned by the benchmark.

Nothing here reads a constant from ``repro``: shapes, rates, mixes and
serving settings are fixed in this file, so a change under ``src/``
cannot change what a workload asks of the program.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _zipf_picker(rng: random.Random, n: int, s: float):
    """Rank picker with weight ``1/(k+1)**s`` (rank 0 hottest)."""
    cumulative = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cumulative.append(total)
    return lambda: bisect_left(cumulative, rng.random() * total)


# -- decide_hot / decide_traced ---------------------------------------------

@dataclass(frozen=True)
class Tenant:
    """One application sharing the service, shaped like a paper scenario."""

    name: str
    uid: int
    num_features: int
    #: distinct feature vectors the tenant ever asks about
    working_set: int
    #: chance that a step feeds back an outcome after its predict
    update_rate: float
    #: share of the caller's steps that go to this tenant
    share: float
    #: hash-salt seed of the tenant's domain
    salt: int


#: HTM lock elision (2 features), page reclaim (3), JIT tuning (4)
TENANTS = (
    Tenant("htm", 1001, 2, 48, 0.10, 0.45, 11),
    Tenant("reclaim", 1002, 3, 96, 0.16, 0.35, 22),
    Tenant("jit", 1003, 4, 160, 0.25, 0.20, 33),
)
DECIDE_STEPS = 16_000
DECIDE_WEIGHT_BITS = 6
DECIDE_ZIPF_S = 1.1
#: share of outcomes that disagree with the vector's usual label
DECIDE_LABEL_NOISE = 0.1
#: feature values stay small, like rounded counters
DECIDE_FEATURE_SPACE = 64


def decide_ops(seed: int) -> list[tuple[int, bool, tuple[int, ...], bool]]:
    """``(tenant index, is update, features, direction)`` per call.

    Each step predicts one skewed pick from a tenant's working set and
    sometimes feeds back the outcome for that same vector.
    """
    rng = _rng(seed, "decide")
    sets = []
    labels = []
    pickers = []
    for tenant in TENANTS:
        vectors: list[tuple[int, ...]] = []
        seen = set()
        while len(vectors) < tenant.working_set:
            vector = tuple(rng.randrange(DECIDE_FEATURE_SPACE)
                           for _ in range(tenant.num_features))
            if vector not in seen:
                seen.add(vector)
                vectors.append(vector)
        sets.append(vectors)
        labels.append([rng.random() < 0.5 for _ in vectors])
        pickers.append(_zipf_picker(rng, tenant.working_set, DECIDE_ZIPF_S))
    cumulative = []
    total = 0.0
    for tenant in TENANTS:
        total += tenant.share
        cumulative.append(total)
    ops = []
    for _ in range(DECIDE_STEPS):
        t = min(bisect_left(cumulative, rng.random() * total),
                len(TENANTS) - 1)
        index = pickers[t]()
        features = sets[t][index]
        ops.append((t, False, features, False))
        if rng.random() < TENANTS[t].update_rate:
            direction = labels[t][index] != (rng.random()
                                             < DECIDE_LABEL_NOISE)
            ops.append((t, True, features, direction))
    return ops


# -- score_cold ------------------------------------------------------------

SCORE_DOMAINS = 4
SCORE_FEATURES = 8
SCORE_STEPS = 1000
#: candidate rows per step; always above WeightMatrix.VECTOR_MIN_ROWS (8)
SCORE_ROWS = (24, 48)
#: feature values are drawn from a space no cache can hold
SCORE_FEATURE_SPACE = 1 << 24
SCORE_REWARD_RATE = 0.6


def score_steps(seed: int) -> list[tuple[int, list[tuple[int, ...]], bool]]:
    """``(domain index, candidate rows, direction)`` per step."""
    rng = _rng(seed, "score")
    steps = []
    for _ in range(SCORE_STEPS):
        domain = rng.randrange(SCORE_DOMAINS)
        rows = [tuple(rng.randrange(SCORE_FEATURE_SPACE)
                      for _ in range(SCORE_FEATURES))
                for _ in range(rng.randint(*SCORE_ROWS))]
        steps.append((domain, rows, rng.random() < SCORE_REWARD_RATE))
    return steps


# -- serve_open ------------------------------------------------------------

SERVE_DOMAINS = 12
SERVE_REQUESTS = 8_000
SERVE_ZIPF_S = 1.1
SERVE_UPDATE_FRACTION = 0.2
SERVE_FEATURES = 2
SERVE_FEATURE_SPACE = 16
#: simulated client population and each client's request rate (per ns):
#: together 0.1 requests/ns, about 7x one shard's scalar capacity
SERVE_CLIENTS = 1_000_000
SERVE_PER_CLIENT_RATE = 1e-7


@dataclass(frozen=True)
class ServeSettings:
    """The pipeline's settings for serve_open (benchmark-owned values)."""

    max_batch: int = 32
    batch_window_ns: float = 200.0
    #: bounded, with headroom: the workload must not shed (see README)
    queue_limit: int = 256
    shed_on_page: bool = True
    slo_threshold_ns: float = 4_000.0
    slo_objective: float = 0.9
    slo_eval_interval_ns: float = 2_000.0
    slo_short_window_ns: float = 5_000.0
    slo_long_window_ns: float = 20_000.0


SERVE_SETTINGS = ServeSettings()


def serve_arrivals(seed: int
                   ) -> list[tuple[float, int, bool, tuple[int, ...], bool]]:
    """``(arrival ns, domain index, is update, features, direction)``.

    One Poisson process stands in for the whole client population.
    """
    rng = _rng(seed, "serve")
    pick = _zipf_picker(rng, SERVE_DOMAINS, SERVE_ZIPF_S)
    rate = SERVE_CLIENTS * SERVE_PER_CLIENT_RATE
    now = 0.0
    arrivals = []
    for _ in range(SERVE_REQUESTS):
        now += rng.expovariate(rate)
        features = tuple(rng.randrange(SERVE_FEATURE_SPACE)
                         for _ in range(SERVE_FEATURES))
        arrivals.append((now, pick(), rng.random() < SERVE_UPDATE_FRACTION,
                         features, rng.random() < 0.7))
    return arrivals
