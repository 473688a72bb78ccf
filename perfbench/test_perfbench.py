"""Tests of the benchmark itself: metric names, the correctness oracle, trace counts."""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import ladder  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(workload, trace, tmp_path, seed=3):
    return bench.run(workload, seed, 0, trace, tiny=True, workdir=tmp_path)[0]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, kind, tmp_path):
    result = _tiny(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_call_counts_repeat(workload, tmp_path):
    def counts():
        metrics = _tiny(workload, True, tmp_path, seed=5)["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith((".calls", ".object_fallbacks")) or k == "trace.spans"}

    first = counts()
    assert first["cli.main.calls"] > 0
    assert counts() == first


def _analyze_ref(name="ising"):
    return oracle.load_analyze_reference()[name]


def test_oracle_accepts_reference_and_float_noise():
    ref = _analyze_ref()
    report = json.loads(json.dumps(ref))
    report["ring"]["fp_dims"]["sigma"] *= 1 + 1e-12
    report["checks"][-1]["detail"] = "max residual 3.00e-16"
    assert oracle.check_analyze(ref, 0, json.dumps(report)) is None


@pytest.mark.parametrize("corrupt", [
    lambda r: r["simples"][2].__setitem__("index", 3),
    lambda r: r["simples"][1]["grading_components"].reverse(),
    lambda r: r["ring"]["fp_dims"].__setitem__("sigma", r["ring"]["fp_dims"]["sigma"] * (1 + 1e-6)),
    lambda r: r["checks"][0].__setitem__("passed", False),
    lambda r: r["simples"][0].__setitem__("faithful", 1),
])
def test_oracle_flags_corrupted_analyze(corrupt):
    ref = _analyze_ref()
    report = json.loads(json.dumps(ref))
    corrupt(report)
    assert oracle.check_analyze(ref, 0, json.dumps(report)) is not None


def test_oracle_flags_failed_exit_and_bad_json():
    ref = _analyze_ref()
    assert oracle.check_analyze(ref, 1, json.dumps(ref)) is not None
    assert oracle.check_analyze(ref, 0, "not json") is not None


def test_oracle_flags_corrupted_queries():
    ref = _analyze_ref()
    kernel = {"label": "sigma", "kernel": ["chi0"], "center": ["chi0", "chi2"]}
    assert oracle.check_query("kernel", "sigma", ref, 0, json.dumps(kernel)) is None
    assert oracle.check_query("kernel", "sigma", ref, 0,
                              json.dumps({**kernel, "center": ["chi0"]})) is not None
    brauer = {"label": "sigma", "brauer": {"faithful_expected": True, "faithful_actual": True,
                                           "cap_used": 7,
                                           "exponents": {"1": 0, "psi": 2, "sigma": 1}}}
    assert oracle.check_query("brauer", "sigma", ref, 0, json.dumps(brauer)) is None
    del brauer["brauer"]["exponents"]["psi"]
    assert oracle.check_query("brauer", "sigma", ref, 0, json.dumps(brauer)) is not None
    grading = {"label": "sigma", "grading": {
        "index": 2, "order": 2, "components": [["1", "psi"], ["sigma"]],
        "grades": {"1": 0, "psi": 0, "sigma": 1}, "character_checked": True}}
    assert oracle.check_query("grading", "sigma", ref, 0, json.dumps(grading)) is None
    grading["grading"]["order"] = 4
    assert oracle.check_query("grading", "sigma", ref, 0, json.dumps(grading)) is not None


def test_oracle_modular_ignores_basis_order_and_flags_corruption():
    ref = oracle.load_modular_reference()["pointed_zn(8)"]
    report = json.loads(json.dumps(ref))
    for members in report["centralizers"].values():
        random.Random(0).shuffle(members)
    assert oracle.check_modular(ref, 0, json.dumps(report)) is None
    report["centralizers"]["g4"].pop()
    assert oracle.check_modular(ref, 0, json.dumps(report)) is not None
    assert oracle.check_modular(ref, 1, json.dumps(ref)) is not None
    assert oracle.check_modular(ref, 0, json.dumps({**ref, "verlinde_round_trip": False})) \
        is not None


def test_ladder_rules_match_catalog_rings():
    from fusionring import builtin

    for name in ("su2_k(6)", "pointed_zn(8)"):
        labels, N, S = ladder.rung(name)
        entry = builtin(name)
        assert tuple(labels) == entry.ring.labels
        assert np.array_equal(N, entry.ring.N)
        assert np.allclose(S, entry.smatrix.S)


def test_modular_reference_follows_the_pointed_pairing():
    # the centralizer of g_j in Z_n is {g_k : jk = 0 mod n}
    n = 48
    label = lambda k: "1" if k == 0 else f"g{k}"
    ref = oracle.load_modular_reference()[f"pointed_zn({n})"]
    for j in range(n):
        expected = sorted(label(k) for k in range(n) if j * k % n == 0)
        assert ref["centralizers"][label(j)] == expected
