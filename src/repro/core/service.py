"""The Prediction System Service: the paper-shaped entry point.

Historically this module *was* the service - one monolithic class
owning a flat dict of domains.  The implementation now lives in the
layered :mod:`repro.core.kernel` package (shards, stable-hash routing,
admission control, per-shard checkpoints); what remains here is the
name every existing caller programs against:

* :data:`PredictionService` - the :class:`~repro.core.kernel.service
  .ShardedService` kernel itself, under its historical name.  Its
  defaults (one shard, no admission controller, no replicas) are
  *bit-identical* to the pre-kernel monolith (property-tested against
  ``tests/core/reference_impl.py``); ``num_shards``/``admission`` opt
  into the kernel's multi-tenant features without changing any call
  site.  Being the same class, it cannot drift from the kernel's
  signatures.
* :class:`Domain` / :class:`DomainHandle` - re-exported from the
  kernel so historical imports (persistence, transports, tests) keep
  working unchanged.

The service API intentionally reduces to the paper's three calls::

    int  predict(int* features, int len)
    void update(int* features, int len, bool dir)
    void reset(int* features, int len, bool all)

with the domain name standing in for whatever addressing a real kernel
implementation would use (the paper's prototype exposes a single
implicit domain per registration).
"""

from __future__ import annotations

from repro.core.kernel.domain import Domain, DomainHandle
from repro.core.kernel.service import ShardedService

__all__ = ["Domain", "DomainHandle", "PredictionService"]

PredictionService = ShardedService
