"""The per-process caches: builtin entries, FP data, commutativity and character tables, and
each ring's pattern N > 0. A cached answer must be the one a cold call gives, read-only,
bounded, and never kept past its ring."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import ALL_NAMES, count_calls, ring_of
from fusionring import FusionRing, analysis, catalog, spectral, subcat
from fusionring import ring as ring_module
from fusionring.catalog import builtin, load_ring, save_ring, save_smatrix
from fusionring.cli import main
from fusionring.errors import ConvergenceFailure, NonCommutative, UnknownName
from fusionring.modular import modular_data
from fusionring.ring import relabel, validate


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one CLI call; a usage error exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def calls_on(name):
    ring = ring_of(name)
    calls = [["analyze", "--ring", name], ["analyze", "--ring", name, "--format", "json"],
             ["characters", "--ring", name], ["modular", "--ring", name, "--format", "json"]]
    calls += [[command, "--ring", name, "--object", label]
              for command in ("kernel", "grading", "brauer") for label in ring.labels]
    return calls


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_warm_call_writes_what_a_cold_call_writes(name, capsys, monkeypatch):
    for argv in calls_on(name):
        monkeypatch.setattr(catalog, "_ENTRIES", {})  # a new entry, ring and spectral cache
        cold = outcome(capsys, argv)
        warm = outcome(capsys, argv)
        assert warm == cold, argv
        assert cold[0] in (0, 1, 2) and (cold[0] == 0) == (cold[2] == ""), argv


def test_another_epsilon_gets_its_own_table(capsys, monkeypatch, fresh_catalog):
    builds = count_calls(monkeypatch, spectral.build_table)
    ring = builtin("su2_k(6)").ring
    first = spectral.character_table(ring)
    loose = spectral.character_table(ring, eps=1e-3)
    assert loose is not first and len(builds) == 2
    assert spectral.character_table(ring, eps=1e-3) is loose and len(builds) == 2
    again = spectral.character_table(ring)
    assert again is not loose and len(builds) == 3
    assert np.array_equal(again.characters, first.characters)
    assert np.array_equal(again.codegrees, first.codegrees)
    # and through the CLI, from a cold catalog: the loose call is not answered by the default
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    argv = ["characters", "--ring", "su2_k(6)", "--format", "json"]
    default = outcome(capsys, argv)
    builds.clear()
    loose_out = outcome(capsys, argv + ["--epsilon", "1e-3"])
    assert len(builds) == 1 and outcome(capsys, argv) == default and len(builds) == 2
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    assert outcome(capsys, argv + ["--epsilon", "1e-3"]) == loose_out


def test_another_seed_gets_its_own_table(monkeypatch):
    builds = count_calls(monkeypatch, spectral.build_table)
    ring = FusionRing(labels=ring_of("rep_q8").labels, N=ring_of("rep_q8").N,
                      dual=ring_of("rep_q8").dual)
    table = spectral.character_table(ring, seed=3)
    assert spectral.character_table(ring, seed=3) is table and len(builds) == 1
    assert spectral.character_table(ring, seed=4) is not table and len(builds) == 2


@pytest.mark.parametrize("name", ["vec_s3", "su2_k(3)"])
def test_commutativity_is_decided_once_per_ring(monkeypatch, name):
    # the blocked comparison of N with its transpose runs on the first call only
    passes = count_calls(monkeypatch, ring_module.blocks)
    ring = FusionRing(labels=ring_of(name).labels, N=ring_of(name).N, dual=ring_of(name).dual)
    assert spectral.is_commutative(ring) == (name != "vec_s3") and len(passes) == 1
    assert spectral.is_commutative(ring) == (name != "vec_s3") and len(passes) == 1


@pytest.mark.parametrize("name", ["ising", "pointed_zn(6)", "su2_k(3)"])
def test_cached_arrays_are_read_only(name):
    ring = ring_of(name)
    fp, table = spectral.fp_character(ring), spectral.character_table(ring)
    assert spectral.fp_character(ring) is fp and spectral.character_table(ring) is table
    for array in (fp.dims, table.characters, table.codegrees, ring.edges):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        fp.global_dim = 1.0
    with pytest.raises(AttributeError):
        table.characters = table.characters.copy()
    with pytest.raises(ValueError, match="read-only"):
        builtin(name).smatrix.S[0, 0] = 0


def test_the_spectral_cache_does_not_keep_a_file_ring_alive(tmp_path):
    path = tmp_path / "ising.json"
    save_ring(ring_of("ising"), path)
    ring = load_ring(path)
    assert spectral.fp_character(ring) is spectral.fp_character(ring)
    assert spectral.character_table(ring) is spectral.character_table(ring)
    assert ring in spectral._SPECTRA
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_a_second_analyze_of_vec_s3_restricts_nothing_and_builds_no_table(monkeypatch):
    # each C(e_i) is restricted once per ring; its character table is then answered from the
    # restricted ring's own cache
    s3 = ring_of("vec_s3")
    ring = FusionRing(labels=s3.labels, N=s3.N, dual=s3.dual, name=s3.name)
    relabels = count_calls(monkeypatch, ring_module.relabel)
    builds = count_calls(monkeypatch, spectral.build_table)
    first = analysis.analyze_report(ring)
    assert relabels and builds
    restricted = dict(subcat._RESTRICTED[ring])
    relabels.clear()
    builds.clear()
    assert analysis.analyze_report(ring) == first
    assert not relabels and not builds
    assert all(subcat.restrict(ring, subcat.Subcategory(members)) is small
               for members, small in restricted.items())


def test_a_restricted_ring_is_collected_with_its_ring(tmp_path):
    path = tmp_path / "vec_s3.json"
    save_ring(ring_of("vec_s3"), path)
    ring = load_ring(path)
    analysis.analyze_report(ring)
    refs = [weakref.ref(ring)] + [weakref.ref(small) for small in subcat._RESTRICTED[ring].values()]
    assert len(refs) > 1
    del ring
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("command", ["grading", "brauer", "kernel"])
def test_a_one_simple_query_builds_no_profile_table(capsys, fresh_catalog, command):
    # a query searches the support of its own simple only; the table of all simples is analyze's
    for label in ring_of("su2_k(6)").labels:
        assert outcome(capsys, [command, "--ring", "su2_k(6)", "--object", label])[0] == 0
    ring = builtin("su2_k(6)").ring
    assert ring is not ring_of("su2_k(6)")
    assert ring not in subcat._TABLES
    assert (ring in subcat._PROFILES) == (command != "kernel")  # a kernel reads no profile


def test_a_file_ring_is_read_anew_on_every_load(tmp_path, capsys):
    # only builtins are cached: a file that changes between calls gives the new answer
    path = tmp_path / "ring.json"
    save_ring(ring_of("ising"), path)
    first = load_ring(path)
    assert load_ring(path) is not first
    assert "sigma = 1.41421356237" in outcome(capsys, ["analyze", "--ring", str(path)])[1]
    save_ring(ring_of("fibonacci"), path)
    assert "tau = 1.61803398875" in outcome(capsys, ["analyze", "--ring", str(path)])[1]


def test_aliases_share_one_entry_and_the_cache_stays_bounded(fresh_catalog):
    five = builtin("pointed_zn(05)")  # the first call names the entry canonically
    assert builtin("pointed_zn(5)") is five and builtin("pointed_zn(005)") is five
    assert five.name == five.ring.name == "pointed_zn(5)"
    for name in ALL_NAMES:
        assert builtin(name) is builtin(name)
        assert builtin(name).name == name
    assert len(catalog._ENTRIES) == len(ALL_NAMES) == 52
    for bad in ("pointed_zn(0)", "pointed_zn(25)", "su2_k(011)", "nope", "trivial(1)"):
        for _ in range(2):  # refused on every call, never cached
            with pytest.raises(UnknownName):
                builtin(bad)
    assert len(catalog._ENTRIES) == 52


def test_refusals_are_raised_on_every_call():
    ring = ring_of("ising")
    spectral.character_table(ring)
    for eps in (0, -1e-9, float("nan"), float("inf")):
        for _ in range(2):
            with pytest.raises(ValueError, match="eps must be positive"):
                spectral.character_table(ring, eps=eps)
    s3 = ring_of("vec_s3")
    spectral.fp_character(s3)
    for _ in range(2):
        with pytest.raises(NonCommutative):
            spectral.character_table(s3)
    bad = FusionRing(labels=["1", "x"], N=[np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)],
                     dual=(0, 1))
    for _ in range(2):
        with pytest.raises(ConvergenceFailure):
            spectral.fp_character(bad)
    assert bad not in spectral._SPECTRA  # a failure is never stored


def test_modular_from_files_solves_for_fp_dimensions_once(tmp_path, monkeypatch, capsys):
    entry = builtin("su2_k(6)")
    order = [0, 4, 2, 6, 1, 5, 3]
    ring = relabel(entry.ring, order, name="su2_k(6)")
    save_ring(ring, tmp_path / "r.json")
    save_smatrix(modular_data(ring, entry.smatrix.S[np.ix_(order, order)]), tmp_path / "s.json")
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: solves.append(a) or eigvalsh(*a, **k))
    code, out, _ = outcome(capsys, ["modular", "--ring", str(tmp_path / "r.json"),
                                    "--smatrix", str(tmp_path / "s.json")])
    assert code == 0 and "verlinde round trip: PASS" in out
    assert len(solves) == 1


def test_a_unit_last_file_builds_two_rings(tmp_path, monkeypatch):
    ising = ring_of("ising")
    o = [1, 2, 0]
    save_ring(FusionRing(labels=[ising.labels[a] for a in o], N=ising.N[o][:, o][:, :, o],
                         dual=(0, 1, 2), unit=2, name="ising"), tmp_path / "ising.json")
    built = []
    post_init = FusionRing.__post_init__
    monkeypatch.setattr(FusionRing, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    ring = load_ring(tmp_path / "ising.json")
    assert len(built) == 2
    assert ring.labels == ising.labels == ("1", "psi", "sigma")
    assert np.array_equal(ring.N, ising.N)
    assert ring.dual == ising.dual and ring.unit == 0 and ring.name == "ising"


def test_relabel_names_the_ring_it_builds():
    ising = ring_of("ising")
    assert relabel(ising, [0, 2, 1]).name == ""
    assert relabel(ising, [0, 2, 1], name="swapped").name == "swapped"


def test_validate_profiles_and_certificate_read_one_pattern_per_ring():
    r = 128
    ring = catalog._pointed_zn(r)
    assert "edges" not in vars(ring)
    assert validate(ring).valid
    edges = vars(ring)["edges"]  # validate built the ring's pattern
    assert np.array_equal(edges, ring.N > 0) and not edges.flags.writeable
    tracemalloc.start()
    try:  # neither forms an r^3 pattern of its own
        subcat.profiles(ring, [[i] for i in range(r)])
        analysis._certify_profiles(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * r**3
    assert ring.edges is edges
