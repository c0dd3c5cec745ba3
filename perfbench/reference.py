"""Correctness checks: replay a pass's operation log through the reference.

The reference is ``tests/core/reference_impl.ReferencePerceptron``, the
frozen, obviously-correct perceptron the repo's identity suites compare
against - one instance per domain.  Each check returns a list of error
strings; an empty list means the pass was correct.
"""

from __future__ import annotations

from typing import Sequence

from tests.core.reference_impl import ReferencePerceptron

#: how many mismatches a check spells out before it only counts them
_SHOWN = 5


class _Errors(list):
    def add(self, message: str) -> None:
        if len(self) < _SHOWN:
            self.append(message)
        elif len(self) == _SHOWN:
            self.append("... (further mismatches not shown)")


class _BufferedDomain:
    """A reference domain behind a vDSO client's update buffer: updates
    apply in one go every ``batch`` records and at the final flush."""

    def __init__(self, config, batch: int) -> None:
        self.model = ReferencePerceptron(config)
        self.batch = batch
        self.pending: list[tuple[tuple[int, ...], bool]] = []

    def update(self, features: tuple[int, ...], direction: bool) -> None:
        self.pending.append((features, direction))
        if len(self.pending) == self.batch:
            self.flush()

    def flush(self) -> None:
        for features, direction in self.pending:
            self.model.update(features, direction)
        self.pending = []


def _check_final(models: Sequence[ReferencePerceptron],
                 final_states: Sequence[dict], errors: _Errors) -> None:
    for index, (model, state) in enumerate(zip(models, final_states)):
        if model.to_state() != state:
            errors.add(f"domain {index}: final weights differ from the "
                       "reference after the last flush")


def check_decide(ops, configs, batch: int, outputs: Sequence,
                 final_states: Sequence[dict]) -> list[str]:
    """Every predict of decide_hot/decide_traced against the reference."""
    domains = [_BufferedDomain(config, batch) for config in configs]
    errors = _Errors()
    for i, (tenant, is_update, features, direction) in enumerate(ops):
        domain = domains[tenant]
        if is_update:
            domain.update(features, direction)
            continue
        expected = domain.model.predict(features)
        if outputs[i] != expected:
            errors.add(f"op {i}: predict{features} on domain {tenant} "
                       f"returned {outputs[i]!r}, reference {expected}")
    for domain in domains:
        domain.flush()
    _check_final([d.model for d in domains], final_states, errors)
    return errors


def check_score(steps, configs, batch: int, outputs: Sequence,
                final_states: Sequence[dict]) -> list[str]:
    """Every batch score of score_cold, and the row each step acted on."""
    domains = [_BufferedDomain(config, batch) for config in configs]
    errors = _Errors()
    for i, (index, rows, direction) in enumerate(steps):
        domain = domains[index]
        expected = [domain.model.predict(row) for row in rows]
        if not isinstance(outputs[i], tuple):
            errors.add(f"step {i}: failed ({outputs[i]!r})")
            continue
        scores, best = outputs[i]
        if scores != expected:
            bad = next(j for j, (got, want) in
                       enumerate(zip(scores, expected)) if got != want) \
                if len(scores) == len(expected) else 0
            errors.add(f"step {i}: row {bad} of domain {index} scored "
                       f"{scores[bad] if scores else None!r}, reference "
                       f"{expected[bad]}")
        want_best = max(range(len(expected)), key=expected.__getitem__)
        if best != want_best:
            errors.add(f"step {i}: acted on row {best}, reference best "
                       f"is row {want_best}")
        domain.update(rows[want_best], direction)
    for domain in domains:
        domain.flush()
    _check_final([d.model for d in domains], final_states, errors)
    return errors


def check_serve(arrivals, configs, pipeline, futures: Sequence,
                outputs: Sequence,
                final_states: Sequence[dict]) -> list[str]:
    """Conservation, quiescence, and a FIFO replay per domain."""
    errors = _Errors()
    settled = pipeline.completed + pipeline.shed_count + pipeline.failed
    if pipeline.submitted != settled:
        errors.add(f"submitted {pipeline.submitted} != completed "
                   f"{pipeline.completed} + shed {pipeline.shed_count} + "
                   f"failed {pipeline.failed}")
    if len(futures) != pipeline.submitted:
        errors.add(f"{len(futures)} futures for {pipeline.submitted} "
                   "submits")
    unsettled = sum(1 for future in futures if not future.done)
    if unsettled:
        errors.add(f"{unsettled} futures never settled")
    if pipeline.in_flight or any(queue.depth for queue in pipeline.queues) \
            or pipeline.engine.pending():
        errors.add("work still pending at quiescence")
    models = [ReferencePerceptron(config) for config in configs]
    # A domain lives on one shard and each shard's queue is FIFO, so a
    # domain's requests execute in submit order.
    for i, ((_at, index, is_update, features, direction), future) in \
            enumerate(zip(arrivals, futures)):
        if not future.done or future.error is not None:
            continue
        model = models[index]
        if is_update:
            model.update(features, direction)
            continue
        expected = model.predict(features)
        if outputs[i] != expected:
            errors.add(f"request {i}: predict{features} on domain {index} "
                       f"returned {outputs[i]!r}, reference {expected}")
    _check_final(models, final_states, errors)
    return errors
