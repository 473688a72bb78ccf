"""Command-line interface: subcommands, exit codes, formats, determinism."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import SAMPLE_NAMES, count_calls, entry, ring_of, wrap_ring
from fusionring import catalog, grading, kernel, modular, save_ring, save_smatrix, subcat
from fusionring import ring as ring_module
from fusionring.cli import _build_parser, _power_sweep, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--ring", "trivial")
    assert code == 0 and "valid: True" in out


def test_validate_invalid_file_reports_axioms(capsys, tmp_path):
    ising = ring_of("ising")
    N = np.array(ising.N)
    N[2, 2, 1] = 2
    data = {"name": "bad", "rank": 3, "labels": list(ising.labels), "unit": 0, "N": N.tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--ring", str(path))
    assert code == 1
    assert "valid: False" in out and "violated associativity" in out
    # other subcommands refuse the invalid file outright
    code, _, err = run(capsys, "analyze", "--ring", str(path))
    assert code == 1 and "ValidationFailed" in err


def test_validate_file_whose_products_pass_int64(capsys, tmp_path):
    path = tmp_path / "wrap.json"
    save_ring(wrap_ring(), path)
    code, out, _ = run(capsys, "validate", "--ring", str(path))
    assert code == 1
    assert "valid: False" in out and "violated associativity at (a, a, b, b)" in out


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_analyze_ising_text(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "ising")
    assert code == 0
    assert "simple sigma: faithful=True ind=2 order=2" in out
    assert "D0={1, psi}; D1={sigma}" in out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_analyze_json_round_trip(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "fibonacci", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ring"]["rank"] == 2
    assert abs(report["ring"]["fp_dims"]["tau"] - (1 + 5**0.5) / 2) < 1e-9
    codegrees = report["character_table"]["codegrees"]
    assert abs(sum(1.0 / f for f in codegrees) - 1.0) < 1e-8
    assert all(c["passed"] for c in report["checks"])
    # numeric fields re-parse to the exact doubles the library computed
    from fusionring import fp_character

    fp = fp_character(ring_of("fibonacci"))
    assert report["ring"]["fp_dims"]["tau"] == float(fp.dims[1])
    assert report["ring"]["global_dim"] == float(fp.global_dim)


def test_analyze_deterministic_output(capsys):
    _, first, _ = run(capsys, "analyze", "--ring", "su2_k(3)", "--format", "json", "--seed", "5")
    _, second, _ = run(capsys, "analyze", "--ring", "su2_k(3)", "--format", "json", "--seed", "5")
    assert first == second


def test_analyze_noncommutative(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "vec_s3")
    assert code == 0
    assert "noncommutative" in out
    assert "faithful=" in out


def test_analyze_no_verify_skips_checks(capsys):
    _, out, _ = run(capsys, "analyze", "--ring", "ising", "--no-verify")
    assert "check " not in out


def test_characters_vec_s3_exits_one(capsys):
    code, _, err = run(capsys, "characters", "--ring", "vec_s3")
    assert code == 1 and "NonCommutative" in err


def test_characters_text(capsys):
    code, out, _ = run(capsys, "characters", "--ring", "ising")
    assert code == 0
    assert "chi0" in out and "1.414213562" in out


def test_kernel_subcommand(capsys):
    code, out, _ = run(capsys, "kernel", "--ring", "ising", "--object", "psi")
    assert code == 0
    assert "kernel characters: {chi0, chi2}" in out


def test_grading_subcommand_json(capsys):
    code, out, _ = run(capsys, "grading", "--ring", "rep_q8", "--object", "V",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["grading"]["index"] == 2
    assert report["grading"]["components"] == [["1", "a", "b", "ab"], ["V"]]


def test_brauer_subcommand(capsys):
    code, out, _ = run(capsys, "brauer", "--ring", "rep_s3", "--object", "V", "--cap", "8")
    assert code == 0
    assert "faithful expected: True" in out
    assert "eps: first exponent 2" in out


def test_modular_subcommand(capsys):
    code, out, _ = run(capsys, "modular", "--ring", "ising")
    assert code == 0
    assert "verlinde round trip: PASS" in out
    assert "invertibles: {1, psi}" in out


def test_modular_with_smatrix_file(capsys, tmp_path):
    path = tmp_path / "s.json"
    save_smatrix(entry("fibonacci").smatrix, path)
    code, out, _ = run(capsys, "modular", "--ring", "fibonacci", "--smatrix", str(path),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["centralizers"]["tau"] == ["1"]
    assert report["projective_centralizers"]["tau"] == ["1"]


def test_modular_from_files_validates_and_reconstructs_once(capsys, monkeypatch, tmp_path):
    ring_path, s_path = tmp_path / "ring.json", tmp_path / "s.json"
    save_ring(ring_of("su2_k(4)"), ring_path)
    save_smatrix(entry("su2_k(4)").smatrix, s_path)
    validations = count_calls(monkeypatch, ring_module.validate)
    tensors = count_calls(monkeypatch, modular._verlinde_tensor)
    code, out, _ = run(capsys, "modular", "--ring", str(ring_path), "--smatrix", str(s_path))
    assert code == 0 and "verlinde round trip: PASS" in out
    assert len(validations) == 1 and len(tensors) == 1


def test_modular_with_a_mismatched_smatrix_exits_one(capsys, tmp_path):
    klein = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"S": [[[x, 0.0] for x in row] for row in klein]}))
    code, out, err = run(capsys, "modular", "--ring", "pointed_zn(4)", "--smatrix", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: VerlindeMismatch:")


def test_malformed_ring_file_is_a_parse_error(capsys, tmp_path):
    data = {"name": "z2", "rank": 2, "labels": ["1", "g"], "unit": 0,
            "N": [[[1, 0], [0, 1]], [[0, 1], [0.5, 0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", "--ring", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ParseError:")


@pytest.mark.parametrize("argv", [
    ["brauer", "--ring", "rep_s3", "--object", "V", "--cap", "0"],
    ["brauer", "--ring", "rep_s3", "--object", "V", "--seed", "-1"],
    ["analyze", "--ring", "ising", "--epsilon", "0"],
    ["analyze", "--ring", "ising", "--epsilon=-1e-9"],
    ["analyze", "--ring", "ising", "--epsilon", "nan"],
    ["analyze", "--ring", "ising", "--epsilon", "inf"],
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_modular_without_data_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["modular", "--ring", "rep_s3"])
    assert info.value.code == 2


def test_unknown_ring_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--ring", "nosuch")
    assert code == 2 and "no built-in" in err


def test_unknown_label_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kernel", "--ring", "ising", "--object", "zeta"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_list_builtins(capsys):
    code, out, _ = run(capsys, "list-builtins")
    assert code == 0
    names = out.strip().splitlines()
    assert "ising" in names and "pointed_zn(24)" in names and len(names) == 52
    code, out, _ = run(capsys, "list-builtins", "--format", "json")
    assert json.loads(out)["builtins"] == names


def test_ring_file_through_cli(capsys, tmp_path):
    path = tmp_path / "ring.json"
    save_ring(ring_of("fibonacci"), path)
    code, out, _ = run(capsys, "analyze", "--ring", str(path))
    assert code == 0 and "faithful=True" in out


def test_text_and_json_verdicts_agree(capsys):
    code_t, out_t, _ = run(capsys, "analyze", "--ring", "rep_q8")
    code_j, out_j, _ = run(capsys, "analyze", "--ring", "rep_q8", "--format", "json")
    assert code_t == code_j == 0
    report = json.loads(out_j)
    for check in report["checks"]:
        line = f"check {check['name']}: {'PASS' if check['passed'] else 'FAIL'}"
        assert line in out_t


@pytest.mark.parametrize("name, skew, check", [
    ("object_index", lambda f: lambda ring, i: 2 * f(ring, i), "power_residue_classes"),
    ("object_order", lambda f: lambda ring, i, cap=None: f(ring, i) + 1, "index_divides_order"),
])
def test_power_checks_catch_a_wrong_index_or_order(capsys, monkeypatch, name, skew, check):
    # the checks run their own power sweep, so a wrong profile answer must fail them
    monkeypatch.setattr(grading, name, skew(getattr(grading, name)))
    code, out, _ = run(capsys, "analyze", "--ring", "pointed_zn(4)", "--format", "json")
    assert code == 1
    verdicts = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert verdicts[check] is False
    assert verdicts["brauer_equivalence"] and verdicts["character_orthogonality"]


def _full_cap_sweep(ring, ind):
    """_power_sweep without its early stop: the exact powers up to 3 * rank * ind."""
    clashes, returns = [], []
    for i, p in enumerate(ind):
        cap, power, first, ret = 3 * ring.rank * p, ring.tensor_power(i, 0), {ring.unit: 0}, 0
        for n in range(1, cap + 1):
            power = ring.multiply(ring.basis_vector(i), power)
            for k in np.flatnonzero(power).tolist():
                first.setdefault(k, n)
                if (n - first[k]) % p:
                    clashes.append((n, i, k, first[k]))
            ret = ret or (n if power[ring.unit] else 0)
        assert np.array_equal(power, ring.tensor_power(i, cap))
        returns.append(ret)
    if not clashes:
        return None, returns
    n, i, k, m = min(clashes)
    return (i, k, m, n), returns


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_power_sweep_stops_early_with_the_full_sweep_result(name, factor):
    ring = ring_of(name)
    ind = [factor * grading.object_index(ring, i) for i in range(ring.rank)]
    clash, returns = _power_sweep(ring, ind)
    assert (clash, returns.tolist()) == _full_cap_sweep(ring, ind)
    assert (clash is None) == (factor == 1)  # the unit alone clashes at twice its index


def test_analyze_builds_one_profile_per_simple(capsys, monkeypatch):
    builds = count_calls(monkeypatch, subcat._build_profiles)
    for name in SAMPLE_NAMES:
        builds.clear()
        code, _, _ = run(capsys, "analyze", "--ring", name, "--format", "json")
        supports = sorted((s for _, batch in builds for s in batch), key=min)
        assert code == 0 and supports == [frozenset({i}) for i in range(ring_of(name).rank)], name


def test_analyze_calls_each_batched_core_once_with_all_simples(capsys, monkeypatch):
    gradings = count_calls(monkeypatch, grading.grade_simples)
    kernels = count_calls(monkeypatch, kernel.characters_at_fpdim)
    brauers = count_calls(monkeypatch, kernel.check_brauer)
    one_simple = [count_calls(monkeypatch, fn) for fn in (
        grading.universal_grading, kernel.kernel_of_class, kernel.center_of_class,
        kernel.verify_brauer)]
    for name in SAMPLE_NAMES:
        for calls in (gradings, kernels, brauers):
            calls.clear()
        code, _, _ = run(capsys, "analyze", "--ring", name, "--format", "json")
        rank = ring_of(name).rank
        assert code == 0 and [list(args[1]) for args in gradings] == [list(range(rank))], name
        # one call decides every kernel, one every center, on the identity support matrix
        assert len(kernels) == 2 and all(np.array_equal(args[2], np.eye(rank)) for args in kernels)
        assert [list(args[1]) for args in brauers] == [list(range(rank))], name
    assert not any(one_simple)


def test_queries_on_a_builtin_never_build_its_modular_data(capsys, monkeypatch):
    checks = count_calls(monkeypatch, modular.modular_data)
    for name in SAMPLE_NAMES:
        label = ring_of(name).labels[-1]
        assert run(capsys, "analyze", "--ring", name)[0] == 0
        for command in ("kernel", "grading", "brauer"):
            assert run(capsys, command, "--ring", name, "--object", label)[0] == 0
    assert checks == []
    code, out, _ = run(capsys, "modular", "--ring", "su2_k(4)")
    assert code == 0 and "verlinde round trip: PASS" in out and len(checks) == 1


def test_validate_subcommand_validates_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ising.json"
    save_ring(ring_of("ising"), path)
    validations = count_calls(monkeypatch, ring_module.validate)
    for ring_arg in ("ising", str(path)):
        validations.clear()
        code, out, _ = run(capsys, "validate", "--ring", ring_arg)
        assert code == 0 and "valid: True" in out
        assert len(validations) == 1, ring_arg


def test_power_checks_fail_under_python_optimize():
    # the analyze checks raise typed errors, so python -O (which strips assert) keeps them
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fusionring

    script = (
        "import sys\n"
        "from fusionring import grading\n"
        "from fusionring.cli import main\n"
        "order = grading.object_order\n"
        "grading.object_order = lambda ring, i, cap=None: order(ring, i) + 1\n"
        "print(sys.flags.optimize, file=sys.stderr)\n"
        "sys.exit(main(['analyze', '--ring', 'pointed_zn(4)', '--format', 'json']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fusionring.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.stderr.strip() == "1"
    assert done.returncode == 1
    verdicts = {c["name"]: c["passed"] for c in json.loads(done.stdout)["checks"]}
    assert verdicts["index_divides_order"] is False
    assert verdicts["brauer_equivalence"] and verdicts["character_orthogonality"]


def test_power_sweep_stays_within_a_memory_budget():
    # traced peak at rank 128, ring and indices made beforehand: the boolean pattern N > 0
    # takes r^3 bytes, so a second r^3 array of supports breaks the budget
    r = 128
    ring = catalog._pointed_zn(r)
    ind = [grading.object_index(ring, i) for i in range(r)]
    tracemalloc.start()
    try:
        _power_sweep(ring, ind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * r**3
