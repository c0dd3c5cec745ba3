"""BENCHMARK.json names exactly what run.py prints, for every workload."""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
    BENCHMARK = json.load(spec)


def test_every_name_is_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_each_workload_emits_every_listed_metric(workload, trace, section):
    child = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
        check=False)
    assert child.returncode == 0, child.stdout
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
