"""Built-in catalog coverage and ring / S-matrix file handling."""

import json
import re

import numpy as np
import pytest

from conftest import ALL_NAMES, count_calls, entry, ring_of, table_of
from fusionring import (
    FusionRing,
    catalog,
    builtin,
    fp_character,
    is_faithful,
    load_ring,
    load_smatrix,
    modular_data,
    object_index,
    save_ring,
    save_smatrix,
    validate,
)
from fusionring import ring as ring_module
from fusionring.catalog import _group_ring, _ising_smatrix, _zn_table, all_builtin_names
from fusionring.errors import (
    DimensionMismatch,
    DualMismatch,
    FusionRingError,
    ParseError,
    UnknownName,
    ValidationFailed,
    VerlindeMismatch,
)


def test_builtin_examples():
    ising = builtin("ising")
    assert ising.ring.rank == 3 and ising.smatrix is not None
    vec = builtin("vec_s3")
    assert vec.ring.rank == 6 and vec.smatrix is None
    with pytest.raises(UnknownName):
        builtin("nosuch")
    with pytest.raises(UnknownName):
        builtin("pointed_zn(25)")
    with pytest.raises(UnknownName):
        builtin("su2_k(0)")


def test_all_names_resolve():
    names = all_builtin_names()
    assert len(names) == len(set(names)) == 52
    for name in names:
        assert builtin(name).name == name


def test_modular_data_presence():
    for name in ALL_NAMES:
        has_md = entry(name).smatrix is not None
        family = name.split("(")[0]
        assert has_md == (family in ("fibonacci", "ising", "pointed_zn", "su2_k"))


def test_a_builtin_checks_its_smatrix_once_on_first_use(monkeypatch, fresh_catalog):
    checks = count_calls(monkeypatch, modular_data)
    ising = builtin("ising")
    assert checks == []
    md = ising.smatrix
    assert ising.smatrix is md and len(checks) == 1
    assert np.allclose(md.S, _ising_smatrix()) and builtin("vec_s3").smatrix is None
    assert len(checks) == 1


def test_su2_generated_rules_match_hand_table():
    # su2 level 2 fusion coincides with the Ising rules up to labels
    su = ring_of("su2_k(2)")
    ising = ring_of("ising")
    perm = [0, 2, 1]  # su2_2 labels (0, 1, 2) -> ising (1, sigma, psi)
    idx = np.asarray(perm)
    assert np.array_equal(su.N[np.ix_(idx, idx, idx)], ising.N)


def test_group_character_tables_match_classical():
    # the character rings of S3 and Q8 realize the classical tables
    s3 = table_of("rep_s3")
    classical_s3 = {(1, 1, 2), (1, -1, 0), (1, 1, -1)}
    got = {tuple(int(round(z.real)) for z in row) for row in s3.characters}
    assert got == classical_s3
    q8 = table_of("rep_q8")
    classical_q8 = {(1, 1, 1, 1, 2), (1, 1, 1, 1, -2), (1, 1, -1, -1, 0),
                    (1, -1, 1, -1, 0), (1, -1, -1, 1, 0)}
    got = {tuple(int(round(z.real)) for z in row) for row in q8.characters}
    assert got == classical_q8


@pytest.mark.parametrize("name", ["ising", "rep_q8", "pointed_zn(7)", "su2_k(3)",
                                  "tambara_yamagami_zn(5)", "vec_s3"])
def test_ring_save_load_round_trip(name, tmp_path):
    ring = ring_of(name)
    path = tmp_path / "ring.json"
    save_ring(ring, path)
    loaded = load_ring(path)
    assert loaded.labels == ring.labels
    assert loaded.dual == ring.dual
    assert np.array_equal(loaded.N, ring.N)


@pytest.mark.parametrize("name", ["ising", "fibonacci", "pointed_zn(5)", "su2_k(4)"])
def test_smatrix_save_load_round_trip(name, tmp_path):
    md = entry(name).smatrix
    path = tmp_path / "smatrix.json"
    save_smatrix(md, path)
    loaded = load_smatrix(path, ring_of(name))
    assert np.abs(loaded.S - md.S).max() < 1e-14
    assert abs(loaded.global_dim - md.global_dim) < 1e-10


def test_load_normalizes_unit_to_zero(tmp_path):
    # permuted Ising with the unit at position 2 comes back in canonical form
    ising = ring_of("ising")
    perm = [2, 0, 1]  # new order: (sigma, 1, psi), unit at index 1... build directly
    idx = np.asarray(perm)
    data = {
        "name": "ising-shuffled",
        "rank": 3,
        "labels": [ising.labels[a] for a in perm],
        "unit": perm.index(0),
        "N": ising.N[np.ix_(idx, idx, idx)].tolist(),
    }
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(data))
    loaded = load_ring(path)
    assert loaded.unit == 0
    assert loaded.labels[0] == "1"
    assert validate(loaded).valid
    # same fusion rules: sigma * sigma = 1 + psi
    s = loaded.index_of("sigma")
    p = loaded.index_of("psi")
    assert loaded.N[s, s, 0] == 1 and loaded.N[s, s, p] == 1


def test_load_rejects_invalid_ring(tmp_path):
    ising = ring_of("ising")
    N = np.array(ising.N)
    N[2, 2, 1] = 2
    data = {"name": "bad", "rank": 3, "labels": list(ising.labels), "unit": 0,
            "N": N.tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationFailed) as info:
        load_ring(path)
    assert any(name == "associativity" for name, _ in info.value.report.violations)


def test_load_rejects_dual_mismatch(tmp_path):
    z3 = ring_of("pointed_zn(3)")
    data = {"name": "z3", "rank": 3, "labels": list(z3.labels), "unit": 0,
            "dual": [0, 1, 2], "N": z3.N.tolist()}  # true dual is (0)(1 2)
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DualMismatch):
        load_ring(path)


def test_load_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_ring(path)
    path.write_text(json.dumps({"rank": 2, "labels": ["1", "x"], "unit": 0}))
    with pytest.raises(ParseError):  # missing N
        load_ring(path)
    path.write_text(json.dumps({"rank": 2, "labels": ["1"], "unit": 0, "N": []}))
    with pytest.raises(ParseError):  # labels do not match the rank
        load_ring(path)


@pytest.mark.parametrize("kind, cause", [("missing", FileNotFoundError),
                                         ("directory", IsADirectoryError)])
def test_a_file_that_cannot_be_read_is_a_parse_error(tmp_path, kind, cause):
    path = tmp_path / "x.json"
    if kind == "directory":
        path.mkdir()
    loaders = (lambda: load_ring(path), lambda: load_smatrix(path, ring_of("ising")))
    for load in loaders:
        with pytest.raises(ParseError) as info:
            load()
        assert type(info.value.__cause__) is cause
        assert str(info.value) == f"{path}: {info.value.__cause__.strerror}"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b"\xff\xfe{}")
    loaders = (lambda: load_ring(path), lambda: load_smatrix(path, ring_of("ising")))
    for load in loaders:
        with pytest.raises(ParseError) as info:
            load()
        assert type(info.value.__cause__) is UnicodeDecodeError
        assert str(info.value) == f"{path}: not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("change, why", [
    (lambda d: d["N"][1][1].__setitem__(0, 0.5), "a non-integer entry"),
    (lambda d: d["N"][1][1].__setitem__(0, 1.0), "an integer written as a float"),
    (lambda d: d["N"][1][1].__setitem__(0, True), "a boolean entry"),
    (lambda d: d["N"][1][1].__setitem__(0, -1), "a negative entry"),
    (lambda d: d["N"][1][1].__setitem__(0, 2**64), "an entry beyond int64"),
    (lambda d: d["N"][1][1].__setitem__(0, "1"), "a string entry"),
    (lambda d: d["N"][1].__setitem__(1, [1]), "a ragged row"),
    (lambda d: d.__setitem__("labels", ["1", "1"]), "duplicate labels"),
    (lambda d: d.update(rank=True, labels=["1"], N=[[[1]]]), "a boolean rank"),
    (lambda d: d.__setitem__("name", ["x"]), "a name that is not a string"),
])
def test_load_ring_rejects_bad_entries_and_labels(tmp_path, change, why):
    data = {"name": "z2", "rank": 2, "labels": ["1", "g"], "unit": 0,
            "N": ring_of("pointed_zn(2)").N.tolist()}
    change(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_ring(path)


def test_load_smatrix_rejects_nan(tmp_path):
    from fusionring.errors import InvariantFailed

    path = tmp_path / "s.json"
    path.write_text('{"S": [[[1, 0], [1, 0]], [[1, 0], [NaN, 0]]]}')
    with pytest.raises(InvariantFailed):
        load_smatrix(path, ring_of("pointed_zn(2)"))


def test_load_smatrix_against_wrong_ring(tmp_path):
    path = tmp_path / "s.json"
    save_smatrix(entry("ising").smatrix, path)
    with pytest.raises(DimensionMismatch):
        load_smatrix(path, ring_of("fibonacci"))


def test_load_smatrix_verlinde_mismatch(tmp_path):
    # the Klein-group S-matrix is valid pointed modular data of rank 4, but
    # its Verlinde ring is Z2 x Z2, not Z4
    klein = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                     dtype=float) / 2.0
    data = {"ring": "z4", "S": [[[x, 0.0] for x in row] for row in klein]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(VerlindeMismatch):
        load_smatrix(path, ring_of("pointed_zn(4)"))


def test_load_smatrix_singular(tmp_path):
    from fusionring.errors import InvariantFailed

    path = tmp_path / "s.json"
    data = {"ring": "z2", "S": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantFailed):
        load_smatrix(path, ring_of("pointed_zn(2)"))


def test_load_smatrix_bad_entries(tmp_path):
    path = tmp_path / "s.json"
    data = {"ring": "z2", "S": [[[1.0, 0.0], 5.0], [[1.0, 0.0], [1.0, 0.0]]]}
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_smatrix(path, ring_of("pointed_zn(2)"))


def test_load_smatrix_rejects_a_boolean_entry(tmp_path):
    path = tmp_path / "s.json"
    data = {"ring": "z2", "S": [[[True, 0], [1, 0]], [[1, 0], [-1, 0]]]}
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_smatrix(path, ring_of("pointed_zn(2)"))


def test_load_ring_rejects_a_boolean_in_the_declared_dual(tmp_path):
    data = {"name": "z2", "rank": 2, "labels": ["1", "g"], "unit": 0, "dual": [0, True],
            "N": ring_of("pointed_zn(2)").N.tolist()}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_ring(path)


@pytest.mark.parametrize("value", [False, 2.5, -2**63, -2**70, 2**63, None])
def test_load_ring_rejects_every_kind_of_bad_entry(tmp_path, value):
    # a JSON false, a float, negatives down past int64, the first entry beyond int64, a null
    data = {"name": "z2", "rank": 2, "labels": ["1", "g"], "unit": 0,
            "N": ring_of("pointed_zn(2)").N.tolist()}
    data["N"][1][0][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="N entries must be nonnegative 64-bit integers"):
        load_ring(path)


@pytest.mark.parametrize("entry, error, where", [
    ([1, 0, 0], ParseError, "S[1][0]"),
    ([1], ParseError, "S[1][0]"),
    ("1", ParseError, "S[1][0]"),
    (None, ParseError, "S[1][0]"),
    ([1, None], ParseError, "S[1][0]"),
    ([1, False], ParseError, "S[1][0]"),
    ([[1], 0], ParseError, "S[1][0]"),
    ([10**400, 0], ParseError, "S[1][0]"),
])
def test_load_smatrix_names_the_first_bad_entry(tmp_path, entry, error, where):
    path = tmp_path / "s.json"
    S = [[[1, 0], [1, 0]], [entry, [-1.0, 0.0]]]
    path.write_text(json.dumps({"S": S}))
    with pytest.raises(error, match=re.escape(where)):
        load_smatrix(path, ring_of("pointed_zn(2)"))
    # a bad entry in an earlier row is reported first; a short row is a dimension error
    S[0][1] = "x"
    path.write_text(json.dumps({"S": S}))
    with pytest.raises(ParseError, match=re.escape("S[0][1]")):
        load_smatrix(path, ring_of("pointed_zn(2)"))
    path.write_text(json.dumps({"S": [[[1, 0]], [entry, [-1, 0]]]}))
    with pytest.raises(DimensionMismatch, match="S row 0"):
        load_smatrix(path, ring_of("pointed_zn(2)"))


def test_load_smatrix_reads_pairs_as_complex_numbers(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"S": [[[0.5, -0.0], [0.5, 1e-17]], [[0.5, 0], [-0.5, 0]]]}')
    md = load_smatrix(path, ring_of("pointed_zn(2)"))
    want = np.array([[complex(0.5, -0.0), complex(0.5, 1e-17)], [0.5, -0.5]])
    assert md.S.dtype == np.complex128 and md.S.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("group, table", [("Z3", _zn_table(3)),
                                          ("Z2xZ2", np.bitwise_xor.outer(range(4), range(4)))])
def test_near_group_rings(group, table, k):
    # K(G, k): m * m = sum of G + k m, so FPdim(m) solves d^2 = |G| + k d; m generates
    # the ring, and its index is 2 (G in even, m in odd tensor powers) exactly when k = 0
    order = len(table)
    ring = _group_ring([f"g{i}" for i in range(order)] + ["m"], table, f"K({group}, {k})", k=k)
    m = ring.rank - 1
    assert validate(ring).valid and ring.N[m, m, m] == k
    assert fp_character(ring).dims[m] == pytest.approx((k + np.sqrt(k * k + 4 * order)) / 2)
    assert is_faithful(ring, m)
    assert object_index(ring, m) == (2 if k == 0 else 1)


def _unit_last_z3(tmp_path, **fields):
    """pointed_zn(3) written as (g1, g2, 1), unit last; fields override the file's."""
    z3 = ring_of("pointed_zn(3)")
    order = [1, 2, 0]
    data = {"name": "z3", "rank": 3, "labels": [z3.labels[a] for a in order], "unit": 2,
            "N": z3.N[np.ix_(order, order, order)].tolist(), **fields}
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(data))
    return path, data


def test_a_dual_mismatch_names_both_duals_in_file_order(tmp_path):
    # in file order g1 and g2 are dual and the unit is its own: the structure dual is [1, 0, 2]
    path, _ = _unit_last_z3(tmp_path, dual=[2, 1, 0])
    with pytest.raises(DualMismatch, match=re.escape(
            f"{path}: declared dual [2, 1, 0] disagrees with structure dual [1, 0, 2]")):
        load_ring(path)
    path, _ = _unit_last_z3(tmp_path, dual=[1, 0, 2])
    assert load_ring(path).labels == ("1", "g1", "g2")


def test_a_missing_dual_is_witnessed_in_file_order(tmp_path):
    path, data = _unit_last_z3(tmp_path)
    data["N"][0][1][2] = 0  # g1 * g2 no longer contains the unit: g1, file index 0, has no dual
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationFailed) as info:
        load_ring(path)
    assert info.value.report.violations == [("duality", (0,))]


def _z6_file(tmp_path, N):
    path = tmp_path / "bad.json"
    labels = list(ring_of("pointed_zn(6)").labels)
    path.write_text(json.dumps({"name": "z6", "rank": 6, "labels": labels, "unit": 0, "N": N}))
    return path


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("value", [False, 2.5, None, -1, 2**63, "1", "ragged row"])
def test_a_bad_entry_at_either_end_of_the_last_plane_keeps_its_message(tmp_path, value, where):
    # structure_constants refuses it, and load_ring names it as it always did
    N = ring_of("pointed_zn(6)").N.tolist()
    if value == "ragged row":
        N[-1][where].pop()
    else:
        N[-1][where][where] = value
    path = _z6_file(tmp_path, N)
    loader_why = ("N has shape (6, 6), expected cubic of rank 6" if value == "ragged row"
                  else "N entries must be nonnegative 64-bit integers")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {loader_why}')}$"):
        load_ring(path)
    why = {"ragged row": None, -1: "nonnegative and below 2\\*\\*63",
           2**63: "nonnegative and below 2\\*\\*63"}.get(value, "integers")
    with pytest.raises(ValueError, match=why and f"^structure constants must be {why}$"):
        FusionRing(labels=range(6), N=N, dual=range(6))


def test_a_list_that_is_not_cubic_keeps_its_message(tmp_path):
    uneven = ring_of("pointed_zn(6)").N.tolist()
    uneven[1].append(uneven[0].pop())  # 36 rows of 6 entries, in planes of 5 and 7 rows
    short = ring_of("pointed_zn(6)").N.tolist()[:-1]
    for N, shape, error in ((uneven, "(6,)", ValueError), (short, "(5, 6, 6)", DimensionMismatch)):
        path = _z6_file(tmp_path, N)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: N has shape {shape}, expected cubic of rank 6")):
            load_ring(path)
        with pytest.raises(error):
            FusionRing(labels=range(6), N=N, dual=range(6))


def test_a_nested_list_of_numpy_ints_is_still_accepted():
    ring = ring_of("pointed_zn(6)")
    nested = [[list(row) for row in plane] for plane in ring.N]
    assert type(nested[-1][-1][-1]) is np.int64
    assert np.array_equal(FusionRing(labels=ring.labels, N=nested, dual=ring.dual).N, ring.N)


def _z3_text(value, **fields):
    """pointed_zn(3) as a ring file's text, compact, with the text value in N[1][1][2] (a 1)
    and fields overriding the file's."""
    z3 = ring_of("pointed_zn(3)")
    planes = z3.N.tolist()
    planes[1][1][2] = "X"
    data = {"name": "z3", "rank": 3, "labels": list(z3.labels), "unit": 0, "N": planes, **fields}
    return json.dumps(data, separators=(",", ":")).replace('"X"', value)


def _save_ring_text(tmp_path):
    path = tmp_path / "saved.json"
    save_ring(ring_of("su2_k(3)"), path)
    return path.read_text(encoding="utf-8")


_Z3_N = json.dumps(ring_of("pointed_zn(3)").N.tolist())
_LOAD_TEXTS = {  # name: (text, or a maker of it from tmp_path; whether N is read as digits)
    "compact": (_z3_text("1"), True),
    "save_ring's indent=1": (_save_ring_text, True),
    "N before rank": ('{"N": %s, "rank": 3, "labels": ["1", "g1", "g2"], "unit": 0}' % _Z3_N,
                      True),
    "N twice, the right one last": (_z3_text("1")[:-1] + ', "N": %s}' % _Z3_N, True),
    "N twice, a wrong one last": (_z3_text("1")[:-1] + ', "N": [[[1]]]}', True),
    "a label holding N's text": (_z3_text("1", labels=["1", '"N": [[[1]]]', "g2"]), True),
    "rank 1": ('{"rank": 1, "labels": ["1"], "unit": 0, "N": [[[1]]]}', True),
    "a cube of the wrong rank": (_z3_text("1", rank=2, labels=["1", "g"]), True),
    "a cube of the digits 2 to 9": (_z3_text("1", N=np.arange(2, 10).reshape(2, 2, 2).tolist(),
                                             rank=2, labels=["1", "g"]), True),
    "a leading zero": (_z3_text("01"), False),
    "a space inside a number": (_z3_text("1 1"), False),
    "a float": (_z3_text("1.0"), False),
    "an exponent": (_z3_text("1e0"), False),
    "minus zero": (_z3_text("-0"), False),
    "a literal": (_z3_text("true"), False),
    "two digits": (_z3_text("12"), False),
    "a minus in place of a digit": (_z3_text("-"), False),
    "a digit and a comma swapped": (_z3_text("1").replace("[0,0,1]", "[00,,1]", 1), False),
    "an empty slot": (_z3_text("1, "), False),
    "an extra ]": (_z3_text("1]"), False),
    "U+00A0 as whitespace": (_z3_text("\u00a01"), False),
    "a BOM": ("\ufeff" + _z3_text("1"), False),
    "a trailing comma in the object": (_z3_text("1")[:-1] + ",}", False),
    "trailing garbage": (_z3_text("1") + " x", False),
    "a ragged cube": (_z3_text("1").replace("[0,0,1]", "[0,1]", 1), False),
}


def _load_outcome(path):
    try:
        ring = load_ring(path)
    except FusionRingError as exc:  # the outcome compared is then the error itself
        return type(exc), str(exc)
    return ring.name, ring.labels, ring.dual, ring.unit, ring.N.dtype, ring.N.tolist()


@pytest.mark.parametrize("case", list(_LOAD_TEXTS))
def test_load_ring_reads_a_file_as_json_loads_does(tmp_path, monkeypatch, case):
    # the outcome of the json.loads route is the expectation: the same ring, or the same error
    text, dense = _LOAD_TEXTS[case]
    text = text(tmp_path) if callable(text) else text
    path = tmp_path / "ring.json"
    path.write_text(text, encoding="utf-8")
    data = catalog._ring_object(text)
    if dense:  # the walk gives what json.loads gives, N as the digits of its cube
        want = json.loads(text)
        assert data.pop("N").tolist() == want.pop("N") and data == want
    else:
        assert data is None or data == json.loads(text)
    got = _load_outcome(path)
    monkeypatch.setattr(catalog, "_ring_object", lambda text: None)
    assert got == _load_outcome(path)


@pytest.mark.parametrize("name, dtype", [("pointed_zn(5)", np.uint8), ("K(Z2, 12)", object)])
def test_every_file_hands_its_n_to_structure_constants(tmp_path, monkeypatch, name, dtype):
    # one route: a dense file of single digits as their uint8 cube, any other as objects
    ring = (_group_ring(["1", "g", "m"], _zn_table(2), name, k=12) if name == "K(Z2, 12)"
            else ring_of(name))  # K(Z2, 12): m * m holds 12 m
    path = tmp_path / "ring.json"
    save_ring(ring, path)
    calls = count_calls(monkeypatch, ring_module.structure_constants)
    assert np.array_equal(load_ring(path).N, ring.N)
    assert calls[0][0].dtype == dtype


def _saved_smatrix_text(tmp_path):
    path = tmp_path / "saved.S.json"
    save_smatrix(entry("pointed_zn(2)").smatrix, path)
    return path.read_text(encoding="utf-8")


_S_TEXT = json.dumps({"ring": "z2", "S": [[[s, 0.0] for s in row] for row in [[1, 1], [1, -1]]]})
_S_TEXTS = {  # name: the text of an S file for pointed_zn(2), or a maker of it from tmp_path
    "compact": _S_TEXT.replace(" ", ""),
    "save_smatrix's indent=1": _saved_smatrix_text,
    "a BOM": "\ufeff" + _S_TEXT,
    "a trailing comma in the object": _S_TEXT[:-1] + ",}",
    "S twice, the right one last": '{"S": [[[1, 0]]], ' + _S_TEXT[1:],
    "a NaN entry": _S_TEXT.replace("-1", "NaN"),
    "extra data": _S_TEXT + " {}",
}


def _smatrix_outcome(path):
    try:
        md = load_smatrix(path, ring_of("pointed_zn(2)"))
    except FusionRingError as exc:
        return type(exc), str(exc)
    return md.S.tolist(), md.global_dim


@pytest.mark.parametrize("case", list(_S_TEXTS))
def test_load_smatrix_reads_a_file_as_json_loads_does(tmp_path, monkeypatch, case):
    # as for ring files: the outcome of the json.loads route is the expectation
    text = _S_TEXTS[case]
    text = text(tmp_path) if callable(text) else text
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    data = catalog._ring_object(text)
    assert data is None or data == json.loads(text)
    got = _smatrix_outcome(path)
    monkeypatch.setattr(catalog, "_ring_object", lambda text: None)
    assert got == _smatrix_outcome(path)


@pytest.mark.parametrize("name", ["pointed_zn(5)", "K(Z2, 12)"])
def test_a_loaded_ring_keeps_the_array_it_decoded(tmp_path, monkeypatch, name):
    ring = (_group_ring(["1", "g", "m"], _zn_table(2), name, k=12) if name == "K(Z2, 12)"
            else ring_of(name))
    path = tmp_path / "ring.json"
    save_ring(ring, path)
    calls = count_calls(monkeypatch, ring_module.structure_constants)
    loaded = load_ring(path)
    decoded, _ = calls[-1]
    assert np.shares_memory(decoded, loaded.N) and not loaded.N.flags.writeable
