"""Positive and negative cases for every shipped rule, over the
fixture trees in ``tests/analysis/fixtures/``."""

from repro.analysis.rules import (
    RULE_CLASSES,
    all_rules,
    rules_by_id,
    select_rules,
)

import pytest


def by_file(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(finding.path.split("/")[-1],
                           []).append(finding)
    return grouped


class TestRegistry:
    def test_ids_are_unique_and_well_formed(self):
        ids = [cls.rule_id for cls in RULE_CLASSES]
        assert len(set(ids)) == len(ids)
        for rule_id in ids:
            assert len(rule_id) == 6 and rule_id[:3].isalpha() \
                and rule_id[3:].isdigit()

    def test_expected_rules_present(self):
        assert set(rules_by_id()) == {
            "CTR001", "DET001", "DET002", "EXC001", "QUE001",
            "RAC001", "RAC002", "RAC003", "REP001", "TRC001",
            "TRC002",
        }

    def test_every_rule_ships_a_fixit_hint(self):
        for cls in RULE_CLASSES:
            assert cls.hint, f"{cls.rule_id} has no fix-it hint"

    def test_all_rules_returns_fresh_instances(self):
        first, second = all_rules(), all_rules()
        assert all(a is not b for a, b in zip(first, second))

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            select_rules(["NOPE99"])


class TestDet001:
    def test_flags_every_wall_clock_form(self, check_fixture):
        findings, _ = check_fixture("det001", ["DET001"])
        grouped = by_file(findings)
        bad = grouped.pop("bad_clock.py")
        # time.time, aliased perf_counter, renamed monotonic,
        # datetime.now - one finding each.
        assert len(bad) == 4
        assert all(f.rule_id == "DET001" and f.severity == "error"
                   for f in bad)
        joined = " ".join(f.message for f in bad)
        assert "time.time" in joined
        assert "walltime.perf_counter" in joined
        assert "datetime.now" in joined
        # good_clock.py (time.sleep, simulated ns) and the allowlisted
        # bench/experiments/latency.py produce nothing.
        assert grouped == {}


class TestDet002:
    def test_flags_global_rng_outside_allowlist(self, check_fixture):
        findings, _ = check_fixture("det002", ["DET002"])
        grouped = by_file(findings)
        bad = grouped.pop("bad_random.py")
        # `import random` and `from random import choice`.
        assert len(bad) == 2
        # good_random.py (injected stream) and the allowlisted
        # sim/rng.py produce nothing.
        assert grouped == {}


class TestTrc001:
    def test_unregistered_literal_kind_flagged(self, check_fixture):
        findings, _ = check_fixture("tracing", ["TRC001"])
        assert len(findings) == 1
        assert findings[0].path.endswith("emitter.py")
        assert "bogus_kind" in findings[0].message

    def test_no_registry_means_no_audit(self, check_fixture):
        # A tree without EVENT_KINDS (e.g. the det001 fixture) cannot
        # be audited and must not produce spurious findings.
        findings, _ = check_fixture("det001", ["TRC001"])
        assert findings == []


class TestTrc002:
    def test_dead_registered_kind_flagged(self, check_fixture):
        findings, _ = check_fixture("tracing", ["TRC002"])
        assert len(findings) == 1
        assert findings[0].path.endswith("trace.py")
        assert "never_emitted" in findings[0].message
        # Anchored at the kind's own definition line in the registry.
        assert findings[0].source_line == '"never_emitted",'


class TestCtr001:
    def test_contract_violations(self, check_fixture):
        findings, _ = check_fixture("ctr001", ["CTR001"])
        messages = sorted(f.message for f in findings)
        assert len(findings) == 3
        # LeakyTransport: missing both chains.
        assert any("LeakyTransport.__init__" in m for m in messages)
        assert any("LeakyTransport" in m and "close()" in m
                   for m in messages)
        # HalfClosedTransport: close() without super().close().
        assert any("HalfClosedTransport.close" in m for m in messages)
        # GoodTransport and StatelessTransport produced nothing.
        assert not any("GoodTransport" in m or "StatelessTransport" in m
                       for m in messages)


class TestExc001:
    def test_swallowed_exceptions_flagged(self, check_fixture):
        findings, _ = check_fixture("exc001", ["EXC001"])
        grouped = by_file(findings)
        bad = grouped.pop("bad_except.py")
        assert len(bad) == 2
        joined = " ".join(f.message for f in bad)
        assert "bare" in joined
        assert "swallows" in joined
        # good_except.py (named / recorded-and-reraised) and the
        # allowlisted core/persistence.py produce nothing.
        assert grouped == {}


class TestQue001:
    def test_kernel_calls_in_sim_processes_flagged(self, check_fixture):
        findings, _ = check_fixture("que001", ["QUE001"])
        grouped = by_file(findings)
        bad = grouped.pop("bad_process.py")
        messages = sorted(f.message for f in bad)
        # GreedyWorker.run's in-line predict_batch and
        # trainer_process's kernel update.
        assert len(bad) == 2
        assert any("GreedyWorker" not in m and "run" in m
                   and "predict_batch" in m for m in messages)
        assert any("trainer_process" in m and "update" in m
                   for m in messages)
        assert all(f.rule_id == "QUE001" and f.severity == "error"
                   for f in bad)
        # The interprocedural pass adds the helper-path catch in
        # bench/indirect.py (see test_concurrency.py for its shape).
        indirect = grouped.pop("indirect.py")
        assert len(indirect) == 1
        # good_process.py (submit/wait, dict .update, plain-function
        # kernel entry, nested-def helper) and the path-exempt
        # core/serving/dispatch.py produce nothing.
        assert grouped == {}

    def test_real_tree_has_single_kernel_entry_site(self):
        from repro.analysis.engine import Project, run_rules
        from repro.analysis.rules import select_rules

        from .conftest import REPO_ROOT

        findings, _ = run_rules(
            Project(REPO_ROOT / "src" / "repro"),
            select_rules(["QUE001"]),
        )
        assert findings == []


class TestRep001:
    def test_replica_mutations_flagged(self, check_fixture):
        findings, _ = check_fixture("rep001", ["REP001"])
        grouped = by_file(findings)
        bad = grouped.pop("bad_replica.py")
        messages = sorted(f.message for f in bad)
        # LeakyShardReplica.update + TrainerReplica.train (defined
        # mutators) and EagerFollower's two write-through calls.
        assert len(bad) == 4
        assert any("LeakyShardReplica.update" in m for m in messages)
        assert any("TrainerReplica.train" in m for m in messages)
        assert sum("EagerFollower" in m for m in messages) == 2
        assert all(f.rule_id == "REP001" and f.severity == "error"
                   for f in bad)
        # good_replica.py: dict .update on a cache, load_state
        # restoration, and a non-replica coordinator training its own
        # domains - none flagged.
        assert grouped == {}
