"""The reference replay accepts a correct pass and catches one bad score."""

import pytest

from perfbench.workcount import CallCounts
from perfbench.workloads import WORKLOADS, Marker

SEED = 3


def _pass(name):
    workload = WORKLOADS[name](SEED)
    system = workload.build()
    return workload, system, workload.run(system, Marker())


def _flip_first_score(outputs):
    for i, output in enumerate(outputs):
        if isinstance(output, int) and not isinstance(output, bool):
            outputs[i] = output + 1
            return
        if isinstance(output, tuple):
            scores, best = output
            outputs[i] = ([scores[0] + 1, *scores[1:]], best)
            return
    raise AssertionError("no score to flip")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_accepts_a_correct_pass_and_catches_one_flipped_score(
        name):
    workload, system, result = _pass(name)
    assert result.failed == 0
    assert workload.check(system, result) == []
    _flip_first_score(result.outputs)
    errors = workload.check(system, result)
    assert len(errors) == 1, errors


def test_final_weights_are_checked_too():
    workload, system, result = _pass("decide_hot")
    tenant, _is_update, features, _direction = workload.ops[0]
    client = system.clients[tenant]
    # disagreeing with the current prediction always moves the weights
    client.update(features, client.predict(features) < 0)
    client.flush()
    assert any("final weights" in error
               for error in workload.check(system, result))


def test_a_pass_is_reproducible_and_so_are_its_work_counts():
    workload = WORKLOADS["serve_open"](SEED)
    counts = []
    outputs = []
    for _ in range(2):
        system = workload.build()
        calls = CallCounts()
        outputs.append(calls.profile(
            lambda: workload.run(system, Marker())).outputs)
        counts.append((calls.python, calls.c_calls))
    assert outputs[0] == outputs[1]
    assert counts[0] == counts[1]
    assert counts[0][0]["serving"] > 0
