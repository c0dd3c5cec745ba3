"""Deterministic work budget of the untraced request path.

Python calls per operation, counted with ``sys.setprofile``, are the
noise-free half of the layer ledger: they depend only on the code and
the inputs, so they can gate where wall-clock times cannot.  Each
ceiling is the count measured before the span seam replaced the
traced/untraced method twins (``repro.obs.trace.spanned``); a change
that pushes the untraced path past one fails here.
"""

from __future__ import annotations

import gc
import platform
import sys
from typing import Any, Callable

import pytest

from repro.core.config import PSSConfig
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="call counts are CPython frame counts; other interpreters "
           "inline, JIT or profile calls differently",
)

#: untraced Python calls per operation, client entry included
CEILINGS = {
    "cached_predict": 28,
    "uncached_predict": 37,
    "buffered_update": 10,
    "predict_batch_4": 67,
}


def _python_calls(fn: Callable[..., Any], *args: Any) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the call would count finalizers (suspended
    # generators of earlier tests' sim processes) as calls.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.fixture
def client():
    service = ShardedService(num_shards=2, admission=AdmissionController())
    client = service.connect(
        "budget", identity=ClientIdentity(uid=7, program="budget"),
        config=PSSConfig(num_features=2, weight_bits=6))
    # Warm the process-wide caches and this client's score cache.
    client.predict((1, 2))
    client.predict_batch([(1, 3), (1, 4)])
    return client


def test_cached_predict(client):
    assert _python_calls(client.predict, (1, 2)) \
        <= CEILINGS["cached_predict"]


def test_uncached_predict(client):
    assert _python_calls(client.predict, (3, 4)) \
        <= CEILINGS["uncached_predict"]


def test_buffered_update(client):
    assert client.pending_updates == 0
    assert _python_calls(client.update, (1, 2), True) \
        <= CEILINGS["buffered_update"]
    assert client.pending_updates == 1


def test_four_row_predict_batch(client):
    rows = [(5, 6), (7, 8), (9, 10), (11, 12)]
    assert _python_calls(client.predict_batch, rows) \
        <= CEILINGS["predict_batch_4"]
