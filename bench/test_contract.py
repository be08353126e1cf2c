"""The benchmark keeps the contract BENCHMARK.json states (smoke scale)."""

from __future__ import annotations

import json
import os
import random
import re

import pytest

from bench import run, trace
from bench.reference import PathReference, served_rows
from bench.workloads import WORKLOADS, make_cqap, make_database

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(contract, workload):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _report = run.run_workload(workload, seed=3, seconds=0.05,
                                           trace=traced, scale="smoke")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # correct also means the run's three set-ups agreed on every exact
        # count, i.e. that counts repeat for a seed
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in contract[section]}
        emitted = {name: cell["unit"]
                   for name, cell in result["metrics"].items()}
        assert emitted == expected
        for name, cell in result["metrics"].items():
            assert isinstance(cell["value"], (int, float)), name
            if not traced:
                assert cell["value"] > 0, name
        # neither run may leave the program wrapped
        assert trace.installed_wrappers() == []


@pytest.mark.parametrize("enumerate_paths", [False, True])
def test_reference_agrees_with_the_oracle(enumerate_paths):
    from repro.oracle import oracle_probe

    db = make_database(n_edges=100, domain=30, seed=7)   # 300 edges in all
    cqap = make_cqap(enumerate_paths)
    reference = PathReference({rel.name: rel.tuples for rel in db},
                              enumerate_paths)
    rng = random.Random(7)
    keys = [(rng.randrange(30), rng.randrange(30)) for _ in range(40)]
    answered = 0
    for key in keys:
        expected = oracle_probe(cqap, db, key)
        assert reference.answer(key) == expected
        answered += bool(expected)
    assert 0 < answered < len(keys)
    # and after a mutation on both sides
    row = next((a, b) for a in range(30) for b in range(30)
               if not reference.contains("R2", (a, b)))
    assert reference.insert("R2", row) and db.insert("R2", row)
    gone = min(db["R1"].tuples)
    assert reference.delete("R1", gone) and db.delete("R1", gone)
    for key in keys:
        assert reference.answer(key) == oracle_probe(cqap, db, key)


def test_served_rows_reorders_to_the_head():
    from repro.data.relation import Relation

    relation = Relation("answer", ("x4", "x1"), [(7, 1), (8, 1)])
    assert served_rows(relation, ("x1", "x4")) == {(1, 7), (1, 8)}
