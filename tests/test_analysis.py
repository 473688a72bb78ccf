"""The library's analyze and modular reports, and its theorem checks called directly."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_NAMES, MODULAR_NAMES, SAMPLE_NAMES, entry, fp_of, ring_of, table_of
from fusionring import (
    analysis, analyze_report, cli, grading, kernel_of_class, modular_report, subcat)
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


def power_failures(ring, ind=None):
    """{check name: message} of the power checks that fail on the ring's cached profiles,
    with the given indices or else those of object_index."""
    if ind is None:
        ind = [grading.object_index(ring, i) for i in range(ring.rank)]
    certificate = analysis._certify_profiles(ring)
    failures = {}
    for check in (analysis.power_residue_classes, analysis.index_divides_order):
        try:
            check(ring, ind, certificate)
        except InternalInconsistency as exc:
            failures[check.__name__] = str(exc)
    return failures


def depth_first_levels(ring, i):
    """Depths of a depth-first tree of the digraph of e_i from the unit (-1 where unreached).

    Every member has a parent one level down in its tree, so where the tree is not
    breadth-first the only condition these levels break is that no edge climbs."""
    depth = [-1] * ring.rank
    depth[ring.unit] = 0

    def visit(u):
        for v in np.flatnonzero(ring.edges[i, u]).tolist():
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                visit(v)

    visit(ring.unit)
    return tuple(depth)


def doctored_profiles(ring, i, profile):
    """(kind, change, {failing check: its accepted message endings}) for profiles of simple i
    doctored one field at a time."""
    checks = ("power_residue_classes", "index_divides_order")
    any_level = dict.fromkeys(checks, analysis.LEVEL_CONDITIONS)
    for k, n in enumerate(profile.level):  # a member's level by +-1, or a non-member's to 0
        for step in (-1, 1) if n >= 0 else (1,):
            level = profile.level[:k] + (n + step,) + profile.level[k + 1:]
            yield "level +-1", {"level": level}, any_level
    deepest = max(profile.level)
    if deepest > 0:
        # the deepest level moved one up: none of its members has a parent there
        level = tuple(n - (n == deepest) for n in profile.level)
        yield "orphan", {"level": level}, dict.fromkeys(checks, analysis.LEVEL_CONDITIONS[3:])
        # the deepest level left out of the members: edges from the level above leave them
        level = tuple(-1 if n == deepest else n for n in profile.level)
        yield "leave", {"level": level}, dict.fromkeys(checks, analysis.LEVEL_CONDITIONS[1:2])
    level = depth_first_levels(ring, i)
    if level != profile.level:
        yield "climb", {"level": level}, dict.fromkeys(checks, analysis.LEVEL_CONDITIONS[2:3])
    ind, order = profile.index, profile.order
    for index in [2 * ind] + [ind // 2] * (ind % 2 == 0):  # a doubled index, a halved even one
        failures = {"power_residue_classes": (f"object_index says {index}",)}
        if order % index:  # a doubled index may stop dividing the order
            failures["index_divides_order"] = (f"not divisible by index {index}",)
        yield "index", {"index": index}, failures
    yield "order", {"order": order + 1}, {"index_divides_order": (
        f"unit first recurs in power {order}, object_order says {order + 1}",)}


# su2_k(8) has simples whose depth-first trees are not breadth-first
@pytest.mark.parametrize("name", [*SAMPLE_NAMES, "su2_k(8)"])
def test_power_checks_fail_on_doctored_profiles(monkeypatch, name):
    ring = ring_of(name)
    profiles = subcat.profiles(ring, [[i] for i in range(ring.rank)])
    assert power_failures(ring) == {}
    cache, kinds = subcat._PROFILES[ring], set()
    for i, profile in enumerate(profiles):
        for kind, change, expected in doctored_profiles(ring, i, profile):
            with monkeypatch.context() as m:
                m.setitem(cache, frozenset({i}), dataclasses.replace(profile, **change))
                failures = power_failures(ring)
            assert failures.keys() == expected.keys(), (i, change)
            for check, endings in expected.items():
                head, _, reason = failures[check].partition(": ")
                assert head == f"simple {ring.labels[i]}", (i, change)
                assert reason.endswith(endings), (i, change, reason)
            kinds.add(kind)
    assert power_failures(ring) == {}
    expected = {"level +-1", "index", "order"}
    if ring.rank > 1:
        expected |= {"orphan", "leave"}
    if name == "su2_k(8)":
        expected.add("climb")
    assert kinds == expected


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
