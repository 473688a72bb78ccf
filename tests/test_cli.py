"""Command-line interface: subcommands, exit codes, formats, determinism."""

import argparse
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ALL_NAMES, COMMUTATIVE_NAMES, MODULAR_NAMES, SAMPLE_NAMES, count_calls, entry, ring_of,
    wrap_ring)
from fusionring import catalog, cli, grading, kernel, modular, save_ring, save_smatrix, subcat
from fusionring import ring as ring_module
from fusionring.analysis import _power_sweep
from fusionring.cli import _build_parser, _dumps, _parse, main


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


@pytest.mark.parametrize("flag", ["--ring", "--smatrix"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_file_that_cannot_be_read_is_a_parse_error(capsys, tmp_path, flag, kind):
    path = tmp_path / "x.json"
    if kind == "directory":
        path.mkdir()
    argv = (["analyze", "--ring", str(path)] if flag == "--ring"
            else ["modular", "--ring", "ising", "--smatrix", str(path)])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    assert err == f"error: ParseError: {path}: {reason}\n"


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


@pytest.mark.parametrize("eps", ["1e-5", "1e-4", "1e-3"])
def test_analyze_passes_every_check_on_the_catalog_at_a_loose_epsilon(capsys, eps):
    # FP dimensions come from an eigensolve, not an iteration stopped at a multiple of
    # eps, so the grading's cross-check against a character holds at any eps
    for name in ALL_NAMES:
        code, out, err = run(capsys, "analyze", "--ring", name, "--epsilon", eps,
                             "--format", "json")
        assert (code, err) == (0, ""), name
        assert all(check["passed"] for check in json.loads(out)["checks"]), name


def test_grading_passes_at_a_loose_epsilon(capsys):
    code, out, err = run(capsys, "grading", "--ring", "ising", "--object", "sigma",
                         "--epsilon", "1e-4")
    assert code == 0 and err == ""


def test_analyze_prints_the_global_dimension_to_the_last_digit(capsys):
    # (5 + sqrt 5) / 2 = 3.618033988749895, printed to 12 significant digits
    code, out, _ = run(capsys, "analyze", "--ring", "fibonacci")
    assert code == 0 and "global dim: 3.61803398875\n" in out


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


_ISING_KERNEL = ["kernel", "--ring", "ising", "--object", "psi"]
PARSE_CORPUS = [
    # one valid argv per subcommand
    ["validate", "--ring", "ising"],
    ["analyze", "--ring", "ising", "--no-verify", "--format", "json"],
    ["characters", "--ring", "rep_q8", "--epsilon", "1e-6", "--seed", "3"],
    _ISING_KERNEL,
    ["grading", "--ring", "rep_q8", "--object", "V"],
    ["brauer", "--ring", "rep_s3", "--object", "V", "--cap", "8"],
    ["modular", "--ring", "fibonacci", "--smatrix", "s.json"],
    ["list-builtins"],
    ["list-builtins", "--format", "json"],
    # no command, help, an unknown command, an option before the command
    [], ["-h"], ["--help"], ["kernel", "-h"], [*_ISING_KERNEL, "--help"], ["nosuch"],
    ["nosuch", "--ring", "ising"], ["--format", "json", *_ISING_KERNEL],
    # a missing required option, a bad choice
    ["kernel", "--object", "psi"], ["kernel", "--ring", "ising"],
    ["analyze", "--ring", "ising", "--format", "xml"], ["list-builtins", "--format", "xml"],
    # bad numbers
    ["analyze", "--ring", "ising", "--epsilon", "0"],
    ["analyze", "--ring", "ising", "--epsilon", "x"],
    ["analyze", "--ring", "ising", "--epsilon=-1e-9"],
    ["analyze", "--ring", "ising", "--seed", "-1"],
    ["analyze", "--ring", "ising", "--seed", "1.5"],
    ["brauer", "--ring", "rep_s3", "--object", "V", "--cap", "0"],
    ["brauer", "--ring", "rep_s3", "--object", "V", "--cap", "y"],
    # leftovers
    [*_ISING_KERNEL, "--bogus"], [*_ISING_KERNEL, "extra"], [*_ISING_KERNEL, "--bogus=1"],
    ["list-builtins", "--ring", "ising"], ["kernel", "extra", "--ring", "ising"],
    # abbreviations, "=", a repeated option, the "--" separator
    ["kernel", "--ring", "ising", "--obj", "psi"], ["kernel", "--r", "ising", "--o", "psi"],
    ["analyze", "--ring=ising", "--format=json"], ["analyze", "--ring", "ising", "--fo", "json"],
    ["analyze", "--ring", "fibonacci", "--ring", "ising", "--format", "json", "--format", "text"],
    [*_ISING_KERNEL, "--"], [*_ISING_KERNEL, "--", "extra"], ["kernel", "--", "--ring", "ising"],
    ["--", *_ISING_KERNEL], ["kernel", "--ring", "--", "--object", "psi"],
]


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, vars of the namespace or None) of one parse of argv."""
    try:
        namespace, code = vars(parse(list(argv))), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_parse_matches_the_top_level_parser(capsys, argv):
    expected = _parse_outcome(capsys, _build_parser()[0].parse_args, argv)
    assert _parse_outcome(capsys, _parse, argv) == expected


def test_the_parse_corpus_reaches_every_subcommand_and_every_outcome(capsys):
    outcomes = [_parse_outcome(capsys, _parse, argv) for argv in PARSE_CORPUS]
    parsed = {namespace["command"] for _, _, _, namespace in outcomes if namespace}
    assert parsed == set(_build_parser()[1])
    assert {code for code, *_ in outcomes} == {0, 2}
    assert any(out.startswith("usage: fusionring kernel") for _, out, _, _ in outcomes)
    assert any(err.endswith("fusionring: error: unrecognized arguments: --bogus\n")
               for _, _, err, _ in outcomes)


@pytest.mark.parametrize("argv", [
    _ISING_KERNEL,
    ["grading", "--ring", "ising", "--object", "sigma"],
    ["brauer", "--ring", "rep_s3", "--object", "V"],
    ["analyze", "--ring", "ising"],
    ["modular", "--ring", "ising"],
])
def test_a_warm_query_parses_its_argv_once_with_the_subcommand_parser(capsys, monkeypatch, argv):
    assert main(argv) == 0
    parsers, parse_known_args = [], argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert main(argv) == 0
    assert parsers == [_build_parser()[1][argv[0]]]


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch):
    code, out, err = run(capsys, *_ISING_KERNEL)
    monkeypatch.setattr(sys, "argv", ["fusionring", *_ISING_KERNEL])
    assert main() == code == 0
    assert capsys.readouterr() == (out, err)
    monkeypatch.setattr(sys, "argv", ["fusionring", *_ISING_KERNEL, "--bogus"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "fusionring: error: unrecognized arguments: --bogus\n")


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


def test_analyze_builds_one_profile_per_simple(capsys, monkeypatch, fresh_catalog):
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


def test_queries_on_a_builtin_never_build_its_modular_data(capsys, monkeypatch, fresh_catalog):
    checks = count_calls(monkeypatch, modular.modular_data)
    for name in SAMPLE_NAMES:
        label = ring_of(name).labels[-1]
        assert run(capsys, "analyze", "--ring", name)[0] == 0
        for command in ("kernel", "grading", "brauer"):
            assert run(capsys, command, "--ring", name, "--object", label)[0] == 0
    assert checks == []
    code, out, _ = run(capsys, "modular", "--ring", "su2_k(4)")
    assert code == 0 and "verlinde round trip: PASS" in out and len(checks) == 1


def test_validate_subcommand_validates_once(capsys, monkeypatch, tmp_path, fresh_catalog):
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


def indented_json(value):
    return json.dumps(value, sort_keys=True, indent=2)


def built_reports(capsys, monkeypatch, calls):
    """The report of each call, as main hands it to _emit."""
    reports, emit = [], cli._emit

    def record(report, fmt, out):
        reports.append(report)
        emit(report, fmt, out)

    monkeypatch.setattr(cli, "_emit", record)
    for argv in calls:
        run(capsys, *argv)
    return reports


def test_dumps_writes_every_catalog_report_as_json_dumps(capsys, monkeypatch):
    calls = [["list-builtins"]]
    for name in ALL_NAMES:
        label = ring_of(name).labels[-1]
        calls += [["analyze", "--ring", name], ["validate", "--ring", name],
                  ["grading", "--ring", name, "--object", label]]
        if name in COMMUTATIVE_NAMES:
            calls += [["characters", "--ring", name], ["kernel", "--ring", name, "--object", label],
                      ["brauer", "--ring", name, "--object", label]]
        if name in MODULAR_NAMES:
            calls.append(["modular", "--ring", name])
    reports = built_reports(capsys, monkeypatch, calls)
    assert len(reports) == len(calls)
    for argv, report in zip(calls, reports):
        assert _dumps(report) == indented_json(report), argv


@pytest.mark.parametrize("family, n", [("su2_k", 40), ("pointed_zn", 48), ("pointed_zn", 64)])
def test_dumps_writes_the_ladder_reports_as_json_dumps(capsys, monkeypatch, tmp_path, family, n):
    ring = getattr(catalog, f"_{family}")(n)
    ring_path, s_path = tmp_path / "ring.json", tmp_path / "s.json"
    save_ring(ring, ring_path)
    save_smatrix(modular.modular_data(ring, getattr(catalog, f"_{family}_smatrix")(n)), s_path)
    calls = [["validate", "--ring", str(ring_path)],
             ["modular", "--ring", str(ring_path), "--smatrix", str(s_path)]]
    reports = built_reports(capsys, monkeypatch, calls)
    assert len(reports) == 2 and all(_dumps(r) == indented_json(r) for r in reports)


# text that a join on ", " or "], [", or a search for "n", could misread once escaped
STRING_PIECES = [", ", "], [", "[", "]", "n", "nan", "inf", '"', "\\", "\x00", "\x1f", "\n\t",
                 "\x7f", "\xe9", "\u2028", "\U0001f600", "chi0", ""]
NUMBERS = [0, 1, -1, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64, 10**30, 0.0, -0.0, 0.1, 1.5,
           -2.5e-8, 2.0**53, 5e-324, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]


def adversarial_value(rng, depth):
    """A seeded JSON value from the pieces above; empty lists and dicts can occur at any depth."""
    def text():
        return "".join(rng.choices(STRING_PIECES, k=rng.randrange(4)))

    def numbers(size):
        return [rng.choice(NUMBERS) for _ in range(rng.randrange(size))]

    kind = rng.randrange(10 if depth else 7)
    if kind == 0:
        return text()
    if kind == 1:
        return rng.choice(NUMBERS + [True, False, None, np.float64(rng.choice(NUMBERS))])
    if kind == 2:
        return numbers(6)
    if kind == 3:
        return [text() for _ in range(rng.randrange(5))]
    if kind == 4:  # rows of numbers, sometimes an empty one
        return [numbers(4) for _ in range(rng.randrange(5))]
    if kind == 5:
        return [rng.choice(NUMBERS + [True, False, None, np.float64(1.5)])
                for _ in range(rng.randrange(6))]
    if kind == 6:
        return [[text() for _ in range(rng.randrange(3))] for _ in range(rng.randrange(4))]
    if kind == 7:
        return [adversarial_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {text(): adversarial_value(rng, depth - 1) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], [[1, 2.5], []], [[1.0, -0.0], [2, 3]],
    [[1, 2], [float("nan"), 1]], [[float("inf")]], [1, 2.5, True, None], [True, False],
    [5e-324, 1e300, -0.0, 2**63, -2**63 - 1], [np.float64(2.5), 1], np.float64(-0.0),
    np.float64("nan"), [[np.float64(1.0)]], ["], [", ", ", "n", '\xe9"]', "\U0001f600"],
    {"], [": [", "], "a, b": {"": []}, "\x00": [[1, 2]]},
])
def test_dumps_matches_json_dumps_on_edge_values(value):
    assert _dumps(value) == indented_json(value)


def test_dumps_matches_json_dumps_on_a_seeded_corpus():
    rng = random.Random(1503)
    for _ in range(3000):
        value = adversarial_value(rng, depth=3)
        assert _dumps(value) == indented_json(value), repr(value)


def test_json_output_bypasses_the_pure_python_encoder(capsys, monkeypatch):
    # json.dumps with an indent runs json.encoder._make_iterencode, a generator per value
    argv = ["analyze", "--ring", "pointed_zn(24)", "--format", "json"]
    expected = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(RuntimeError):
        indented_json([1])
    assert run(capsys, *argv) == expected and expected[0] == 0
