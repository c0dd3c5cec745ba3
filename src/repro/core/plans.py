"""White-box plan specialization for the prediction hot path.

PRETZEL's end-to-end optimization (PAPERS.md) observes that a model
server which treats pipelines as black boxes re-pays generic dispatch
on every request, and that freezing a pipeline's *shape* into a
specialized plan - then sharing that plan across every pipeline with
the same shape - removes most of the per-request overhead.  The PSS
analogue: a domain's scoring loop is fully determined by its
``(num_features, entries_per_feature, seed)`` configuration, so the
per-feature hash/index arithmetic can be compiled once into a
:class:`SpecializedPlan` (straight-line code, splitmix64 inlined, table
bases folded into constants, power-of-two table widths reduced to bit
masks) and reused by every domain that shares the shape.  When numpy
is importable the plan additionally carries a vectorized block scorer
that hashes a whole batch of rows in a handful of uint64 array
operations; uint64 wraparound arithmetic is bit-identical to the
masked Python arithmetic, and the pure-Python compiled path remains
as the always-available fallback (no new hard dependency).

Plan lifecycle (see docs/PERFORMANCE.md, "Batched and specialized
prediction"):

* A :class:`PlanCompiler` caches plans by :func:`plan_signature`; the
  kernel owns one compiler per service, so identical-shape domains of
  different tenants resolve to the *same* read-only plan instance
  (cache hits/misses are counted and traced as ``plan.hit`` /
  ``plan.compile``).
* Plans are immutable after ``__init__``, by construction: attribute
  writes and deletes raise :class:`AttributeError` and the numpy arrays
  are read-only.  They capture salts and table geometry only, never
  weights, which is what makes cross-tenant sharing safe.
* A :class:`~repro.core.weights.WeightMatrix` *binds* a plan lazily and
  drops the binding whenever a snapshot restore swaps its learned state
  wholesale (:meth:`~repro.core.weights.WeightMatrix.load_state`) -
  the same event that bumps the weight generation and thereby clears
  the transport score cache.  Re-binding is a compiler cache hit, not a
  recompile.

Bit-identity is non-negotiable: the generated code is the same
arithmetic as :func:`repro.core.hashing.salted_hash` with the loop
unrolled, property-tested against the frozen reference implementation
in ``tests/core/reference_impl.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.config import PSSConfig
from repro.core.hashing import _MASK64, salt_table
from repro.obs.trace import NULL_TRACER, TracerLike

try:  # optional acceleration; the compiled Python path is the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the dev image
    _np = None  # type: ignore[assignment]

#: what freezes a domain's scoring loop: feature count, table width,
#: and the hash seed (weights and thresholds are deliberately absent -
#: they vary per tenant, the plan must not)
PlanSignature = tuple[int, int, int]

#: splitmix64 finalizer constants, inlined into generated plan code
#: (must match :func:`repro.core.hashing.mix64` exactly)
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def plan_signature(config: PSSConfig) -> PlanSignature:
    """The model-shape key two domains must share to share a plan."""
    return (config.num_features, config.entries_per_feature, config.seed)


def _index_expr(i: int, entries: int) -> str:
    """Source for feature ``i``'s flat index from the mixed value ``z``.

    ``z`` is already fully masked (every mix step ends ``& _MASK64``,
    and xor/shift cannot widen it), so the final splitmix64 mask is
    dropped; power-of-two table widths turn the modulo into a bit mask.
    The base offset is parenthesized *outside* the mask - ``+`` binds
    tighter than ``&`` in Python, a classic silent-corruption trap.
    """
    base = i * entries
    offset = f"{base} + " if base else ""
    if entries & (entries - 1) == 0:
        return f"i{i} = {offset}((z ^ (z >> 31)) & {entries - 1})"
    return f"i{i} = {offset}((z ^ (z >> 31)) % {entries})"


def _generate_source(signature: PlanSignature,
                     salts: tuple[int, ...]) -> str:
    """Straight-line source for one shape's ``select``.

    Per feature: one splitmix64 round with the per-slot salt pre-XORed
    (exactly :func:`~repro.core.hashing.salted_hash`), the reduction
    into the feature's table, and the row-major base offset folded into
    a constant.  No per-call tuple/zip/sum machinery survives.
    """
    num_features, entries, _seed = signature
    names = ", ".join(f"v{i}" for i in range(num_features))
    unpack = f"{names}," if num_features == 1 else names

    lines = ["def select(row):", f"    {unpack} = row"]
    for i in range(num_features):
        lines += [
            f"    z = (v{i} & {_MASK64}) ^ {salts[i]}",
            f"    z = (z ^ (z >> 30)) * {_MIX_A} & {_MASK64}",
            f"    z = (z ^ (z >> 27)) * {_MIX_B} & {_MASK64}",
            f"    {_index_expr(i, entries)}",
        ]
    indices = ", ".join(f"i{i}" for i in range(num_features))
    tail = "," if num_features == 1 else ""
    lines.append(f"    return ({indices}{tail})")
    return "\n".join(lines)


def _rows_as_u64(keys: Sequence[tuple[int, ...]]) -> Any:
    """Feature rows as a uint64 matrix, or None when they cannot be.

    Mirrors ``value & _MASK64`` (two's complement for negatives, low 64
    bits for huge ints).  The common all-machine-word case converts
    directly; anything outside falls back one step at a time, and rows
    numpy cannot represent at all return None so the caller uses the
    compiled Python path (bit-identical either way).
    """
    try:
        return _np.array(keys, dtype=_np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:  # negative machine words: int64 -> uint64 is two's complement
        return _np.array(keys, dtype=_np.int64).astype(_np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:  # arbitrary Python ints: mask down to 64 bits first
        return _np.array(
            [[value & _MASK64 for value in key] for key in keys],
            dtype=_np.uint64,
        )
    except (OverflowError, ValueError, TypeError):
        return None


class SpecializedPlan:
    """One compiled, immutable scorer for a model shape.

    ``select(row)`` maps a feature tuple to the selected flat weight
    indices; :meth:`score_select_rows` is the vectorized block variant.
    No closure holds weights: a plan is pure shape, shared read-only
    across every same-shape domain.  The type enforces that: after
    ``__init__`` every attribute write or delete raises
    :class:`AttributeError`, and the numpy arrays are read-only so no
    element write can re-salt a shared plan either.
    """

    __slots__ = ("signature", "num_features", "entries_per_feature",
                 "salts", "select",
                 "_u64_salts", "_u64_bases", "_u64_entries")

    def __init__(self, signature: PlanSignature,
                 salts: tuple[int, ...],
                 select: Callable[[Sequence[int]], tuple[int, ...]]) -> None:
        init = object.__setattr__  # the only writes a plan ever takes
        init(self, "signature", signature)
        init(self, "num_features", signature[0])
        init(self, "entries_per_feature", signature[1])
        init(self, "salts", salts)
        init(self, "select", select)
        if _np is not None:
            u64_salts = _np.array(salts, dtype=_np.uint64)
            u64_bases = (_np.arange(signature[0], dtype=_np.uint64)
                         * _np.uint64(signature[1]))
            u64_salts.flags.writeable = False
            u64_bases.flags.writeable = False
            u64_entries = _np.uint64(signature[1])
        else:  # pragma: no cover - numpy is in the dev image
            u64_salts = u64_bases = u64_entries = None
        init(self, "_u64_salts", u64_salts)
        init(self, "_u64_bases", u64_bases)
        init(self, "_u64_entries", u64_entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"SpecializedPlan is immutable: cannot set {name!r} (plans "
            f"are shared read-only across tenants)")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"SpecializedPlan is immutable: cannot delete {name!r} "
            f"(plans are shared read-only across tenants)")

    def __repr__(self) -> str:
        return (f"SpecializedPlan(features={self.num_features}, "
                f"entries={self.entries_per_feature})")

    def score_select_rows(
        self, weights: Sequence[int], bias: int,
        keys: Sequence[tuple[int, ...]],
    ) -> tuple[list[int], list[tuple[int, ...]]] | None:
        """Vectorized (scores, selected indices) for a block of rows.

        Returns None when the vector engine is unavailable or the rows
        cannot be represented as uint64; the caller then falls back to
        the compiled per-row path.  uint64 wraparound multiplication is
        exactly the ``& _MASK64`` arithmetic, so both paths produce
        bit-identical indices and scores.
        """
        if _np is None:  # pragma: no cover - numpy is in the dev image
            return None
        rows = _rows_as_u64(keys)
        if rows is None or rows.ndim != 2:
            return None
        with _np.errstate(over="ignore"):
            z = rows ^ self._u64_salts
            z = (z ^ (z >> _np.uint64(30))) * _np.uint64(_MIX_A)
            z = (z ^ (z >> _np.uint64(27))) * _np.uint64(_MIX_B)
            z = z ^ (z >> _np.uint64(31))
            flat_indices = z % self._u64_entries + self._u64_bases
        table = _np.frombuffer(weights, dtype=weights.typecode)
        scores = (table[flat_indices].sum(axis=1) + bias).tolist()
        return scores, [tuple(row) for row in flat_indices.tolist()]


def compile_plan(config: PSSConfig) -> SpecializedPlan:
    """Compile one shape into a :class:`SpecializedPlan` (uncached)."""
    signature = plan_signature(config)
    salts = salt_table(config.num_features, config.seed)
    source = _generate_source(signature, salts)
    namespace: dict[str, object] = {}
    exec(compile(source, f"<plan {signature}>", "exec"), namespace)
    return SpecializedPlan(
        signature, salts,
        namespace["select"],  # type: ignore[arg-type]
    )


class PlanCompiler:
    """Signature-keyed plan cache: PRETZEL's cross-pipeline sharing.

    The kernel owns one compiler per service; every domain created on
    any shard binds its weight matrix through it, so two tenants whose
    domains share a shape get the *same* plan object.  ``hits`` /
    ``misses`` count cache outcomes, and each is traced (``plan.hit``
    / ``plan.compile``) when a tracer is attached.
    """

    def __init__(self, tracer: TracerLike | None = None) -> None:
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else NULL_TRACER)
        self._plans: dict[PlanSignature, SpecializedPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def plan_for(self, config: PSSConfig) -> SpecializedPlan:
        """The shared plan for ``config``'s shape, compiling on miss."""
        signature = plan_signature(config)
        plan = self._plans.get(signature)
        if plan is not None:
            self.hits += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "plan.hit", transport="plan",
                    detail={"signature": list(signature)},
                )
            return plan
        self.misses += 1
        plan = compile_plan(config)
        self._plans[signature] = plan
        if self.tracer.enabled:
            self.tracer.record(
                "plan.compile", transport="plan",
                detail={"signature": list(signature)},
            )
        return plan

    def stats(self) -> dict[str, int]:
        """Cache outcome counters for reports and shard tables."""
        return {"plans": len(self._plans), "hits": self.hits,
                "misses": self.misses}


#: process-wide fallback compiler: weight matrices that were never
#: adopted by a service kernel (unit tests, direct model use) still get
#: plan sharing per shape
DEFAULT_COMPILER = PlanCompiler()
