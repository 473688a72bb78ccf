"""The library's analyze and modular reports, and its theorem checks called directly."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_NAMES, MODULAR_NAMES, SAMPLE_NAMES, entry, fp_of, ring_of, table_of
from fusionring import analysis, analyze_report, cli, grading, kernel_of_class, modular_report
from fusionring.errors import InternalInconsistency
from fusionring.spectral import DEFAULT_EPS, DEFAULT_SEED
from test_cli import built_reports


@pytest.mark.parametrize("verify", [True, False])
def test_analyze_report_is_the_cli_report(capsys, monkeypatch, verify):
    flags = [] if verify else ["--no-verify"]
    calls = [["analyze", "--ring", name, "--format", "json", *flags] for name in ALL_NAMES]
    reports = built_reports(capsys, monkeypatch, calls)
    assert len(reports) == len(ALL_NAMES)
    for name, report in zip(ALL_NAMES, reports):
        assert analyze_report(ring_of(name), DEFAULT_EPS, DEFAULT_SEED, checks=verify) == report
        assert ("checks" in report) == verify, name


def test_analyze_report_takes_the_cli_epsilon_and_seed(capsys, monkeypatch):
    argv = ["analyze", "--ring", "rep_s3", "--epsilon", "1e-6", "--seed", "7"]
    [report] = built_reports(capsys, monkeypatch, [argv])
    assert analyze_report(ring_of("rep_s3"), 1e-6, 7) == report


def test_modular_report_is_the_cli_report(capsys, monkeypatch):
    calls = [["modular", "--ring", name] for name in MODULAR_NAMES]
    reports = built_reports(capsys, monkeypatch, calls)
    assert len(reports) == len(MODULAR_NAMES)
    for name, report in zip(MODULAR_NAMES, reports):
        assert modular_report(entry(name).smatrix, DEFAULT_EPS) == report, name


def sweep(ring, factor=1):
    ind = [factor * grading.object_index(ring, i) for i in range(ring.rank)]
    return (ind, *analysis._power_sweep(ring, ind))


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_power_checks_fail_on_a_doctored_sweep(name):
    ring = ring_of(name)
    ind, clash, returns = sweep(ring)
    assert analysis.power_residue_classes(ring, ind, clash) is None
    assert analysis.index_divides_order(ring, ind, returns) is None
    doubled, clash, _ = sweep(ring, factor=2)  # the unit alone clashes at twice its index
    with pytest.raises(InternalInconsistency, match="not congruent mod"):
        analysis.power_residue_classes(ring, doubled, clash)
    with pytest.raises(InternalInconsistency, match="unit first recurs in power"):
        analysis.index_divides_order(ring, ind, returns + 1)


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_orthogonality_fails_on_scaled_codegrees(name):
    ring, table = ring_of(name), table_of(name)
    assert analysis.character_orthogonality(ring, table).startswith("max residual")
    scaled = dataclasses.replace(table, codegrees=2 * table.codegrees)
    with pytest.raises(InternalInconsistency, match="orthogonality residual"):
        analysis.character_orthogonality(ring, scaled)


@pytest.mark.parametrize("name", [*SAMPLE_NAMES, "vec_s3"])
def test_brauer_equivalence_fails_on_a_flipped_faithful_flag(name):
    ring = ring_of(name)
    report = analyze_report(ring, checks=False)
    faithful = [block["faithful"] for block in report["simples"]]
    table = kernels = None
    if "character_table" in report:
        table = table_of(name)
        kernels = [kernel_of_class(ring, fp_of(name), table, ring.basis_vector(i))
                   for i in range(ring.rank)]
    assert analysis.brauer_equivalence(ring, table, kernels, faithful) is None
    for i in range(ring.rank):
        flipped = [f != (k == i) for k, f in enumerate(faithful)]
        with pytest.raises(InternalInconsistency, match=f"simple {ring.labels[i]}: faithful"):
            analysis.brauer_equivalence(ring, table, kernels, flipped)


def test_failed_checks_are_reported_not_raised():
    report = analyze_report(ring_of("ising"))
    assert [c["name"] for c in report["checks"]] == [
        "brauer_equivalence", "power_residue_classes", "index_divides_order",
        "character_orthogonality"]
    assert all(c["passed"] for c in report["checks"])
    checks = analysis._run_checks(ring_of("ising"), None, None, [False, False, False])
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("brauer_equivalence", False), ("power_residue_classes", True),
        ("index_divides_order", True)]


def test_the_cli_computes_nothing_and_the_library_never_imports_it():
    assert not {"np", "numpy", "subcat", "modular"} & vars(cli).keys()
    imported = set()
    for node in ast.walk(ast.parse(Path(analysis.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None)} | {a.name for a in node.names}
    assert np.__name__ in imported and not {"cli", "fusionring.cli"} & imported
