"""S-matrix validation, Verlinde reconstruction, centralizers, invertibles."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import MODULAR_NAMES, count_calls, entry, fp_of, ring_of, table_of
import fusionring
from fusionring import (
    FusionRing,
    adjoint_class,
    builtin,
    centralizer,
    characters_from_smatrix,
    generated_subcategory,
    invertibles,
    is_faithful,
    kernel_of_character,
    kernel_of_class,
    modular_data,
    modular_report,
    projective_centralizer,
    validate,
    verlinde_ring,
)
from fusionring.errors import (
    ClosureViolation,
    DimensionMismatch,
    InvalidRing,
    InvariantFailed,
    NonIntegral,
    VerlindeMismatch,
    ZeroEntry,
)
from fusionring import catalog, modular, ring as ring_module
from fusionring.modular import centralizers
from fusionring.spectral import fp_character, is_commutative, within_eps

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_builtin_modular_data_is_validated(name):
    md = entry(name).smatrix
    assert md is not None
    r = md.ring.rank
    assert np.abs(md.S - md.S.T).max() < 1e-10
    assert np.abs(md.S @ md.S.conj() - md.global_dim * np.eye(r)).max() < 1e-8


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_verlinde_round_trip(name):
    md = entry(name).smatrix
    rebuilt = verlinde_ring(md.S)
    assert np.array_equal(rebuilt.N, md.ring.N)
    assert rebuilt.dual == md.ring.dual


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_smatrix_characters_match_spectral(name):
    md = entry(name).smatrix
    table = characters_from_smatrix(md)
    spectral_table = table_of(name)
    # canonical ordering makes the two tables directly comparable
    assert np.abs(table.characters - spectral_table.characters).max() < 1e-8
    assert np.abs(table.codegrees - spectral_table.codegrees).max() < 1e-8


def test_characters_from_smatrix_fibonacci_values():
    table = characters_from_smatrix(entry("fibonacci").smatrix)
    assert np.abs(table.characters[0] - [1.0, PHI]).max() < 1e-8
    assert np.abs(table.characters[1] - [1.0, 1.0 - PHI]).max() < 1e-8  # 1 - phi = -1/phi


def test_verlinde_identity_matrix_rejected():
    with pytest.raises((NonIntegral, InvalidRing)):
        verlinde_ring(np.eye(3, dtype=complex))


def test_verlinde_nonintegral_rejected():
    S = entry("ising").smatrix.S.copy()
    S[2, 2] = 0.3  # breaks unitarity scale, coefficients drift off the integers
    with pytest.raises((NonIntegral, InvalidRing)):
        verlinde_ring(S)


def einsum_verlinde(U, unit):
    """The Verlinde constants of a unitary U by one three-operand einsum, rounded."""
    weights = U.conj() / U[unit][None, :]
    return np.rint(np.einsum("im,jm,km->ijk", U, U, weights).real).astype(np.int64)


LADDER = {"su2_k(40)": (catalog._su2_k(40), catalog._su2_k_smatrix(40)),
          "pointed_zn(48)": (catalog._pointed_zn(48), catalog._pointed_zn_smatrix(48)),
          "pointed_zn(64)": (catalog._pointed_zn(64), catalog._pointed_zn_smatrix(64))}


@pytest.mark.parametrize("name", MODULAR_NAMES + list(LADDER))
def test_verlinde_tensor_matches_an_einsum(name):
    ring, S = LADDER[name] if name in LADDER else (ring_of(name), entry(name).smatrix.S)
    U = S / np.sqrt(modular._nondegenerate(S, ring.rank, InvalidRing))
    N = modular._verlinde_tensor(U, ring.unit)
    assert N.dtype == np.int64
    assert np.array_equal(N, einsum_verlinde(U, ring.unit))
    assert np.array_equal(N, ring.N)


def test_a_perturbed_smatrix_has_nonintegral_verlinde_constants():
    S = entry("su2_k(10)").smatrix.S.copy()
    S[2, 3] = S[3, 2] = S[2, 3] + 1e-3
    with pytest.raises(NonIntegral):
        modular._verlinde_tensor(S, 0)


@pytest.mark.parametrize("name", list(LADDER))
def test_verlinde_tensor_matches_an_einsum_across_blocks(monkeypatch, name):
    monkeypatch.setattr(ring_module, "_BLOCK", 2**14)  # 9, 7 and 4 rows at ranks 41, 48, 64
    test_verlinde_tensor_matches_an_einsum(name)


def test_nonintegral_names_the_first_worst_coefficient_across_blocks(monkeypatch):
    S = entry("su2_k(10)").smatrix.S.copy()
    S[2, 3] = S[3, 2] = S[2, 3] + 1e-3
    r = len(S)
    messages = []
    for rows in (r, 1):  # one block, as if unblocked; then one block per i
        monkeypatch.setattr(ring_module, "_BLOCK", rows * r * r)
        with pytest.raises(NonIntegral) as exc:
            modular._verlinde_tensor(S, 0)
        messages.append(str(exc.value))
    # the worst coefficient ties at (3, 9, 2) and (9, 3, 2): the first in C order is named
    assert messages[0] == messages[1]
    assert messages[1].startswith("Verlinde coefficient at (3, 9, 2) is not integral: ")


def test_validate_and_the_verlinde_tensor_stay_within_a_memory_budget():
    # traced peaks at rank 128, N and S made beforehand; the Verlinde peak includes its
    # int64 result, so a second r^3 array in either pass breaks the budget
    r = 128
    ring, S = catalog._pointed_zn(r), catalog._pointed_zn_smatrix(r)
    U = S / np.sqrt(modular._nondegenerate(S, r, InvalidRing))
    for run in (lambda: validate(ring), lambda: modular._verlinde_tensor(U, ring.unit)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * r**3 * 8


def test_centralizer_examples():
    md = entry("ising").smatrix
    assert centralizer(md, 2).members == (0,)
    assert centralizer(md, 1).members == (0, 1)
    assert centralizer(md, 0).members == (0, 1, 2)


def test_projective_centralizer_examples():
    md = entry("ising").smatrix
    assert projective_centralizer(md, 2) == {0, 1}
    assert projective_centralizer(md, 0) == {0, 1, 2}
    fib = entry("fibonacci").smatrix
    assert projective_centralizer(fib, 1) == {0}


def test_invertibles_examples():
    assert invertibles(ring_of("ising"), fp_of("ising")) == {0, 1}
    assert invertibles(ring_of("fibonacci"), fp_of("fibonacci")) == {0}
    n = 9
    assert invertibles(ring_of(f"pointed_zn({n})"), fp_of(f"pointed_zn({n})")) == set(range(n))
    assert invertibles(ring_of("su2_k(4)"), fp_of("su2_k(4)")) == {0, 4}


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_faithful_iff_trivial_centralizer(name):
    md = entry(name).smatrix
    ring = md.ring
    for i in range(ring.rank):
        trivial = centralizer(md, i).members == (ring.unit,)
        assert trivial == is_faithful(ring, i), (name, i)


@pytest.mark.parametrize("name", ["ising", "fibonacci"])
def test_projective_centralizer_of_generator_spans_invertibles(name):
    md = entry(name).smatrix
    ring = md.ring
    inv = invertibles(ring, fp_of(name))
    generator = next(i for i in range(ring.rank) if is_faithful(ring, i))
    spanned = generated_subcategory(ring, projective_centralizer(md, generator))
    assert set(spanned.members) == inv


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_projective_centralizer_intersection_is_invertibles(name):
    md = entry(name).smatrix
    ring = md.ring
    inv = invertibles(ring, fp_of(name))
    common = set(range(ring.rank))
    for i in range(ring.rank):
        pc = projective_centralizer(md, i)
        assert inv <= pc, (name, i)
        common &= pc
    assert common == inv


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_smatrix_entry_bound(name):
    md = entry(name).smatrix
    dims = fp_of(name).dims
    bound = np.outer(dims, dims) * md.S[md.ring.unit, md.ring.unit].real
    assert (np.abs(md.S) <= bound + 1e-8).all()


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_codegree_criterion_for_adjoint_kernel(name):
    # f_t equals the global dimension exactly for the characters in the
    # kernel of the adjoint class
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    kernel = kernel_of_class(ring, fp, table, adjoint_class(ring))
    for t in range(table.count):
        matches = abs(table.codegrees[t] - fp.global_dim) < 1e-7
        assert matches == (t in kernel), (name, t)


def test_modular_data_rejects_asymmetric():
    ring = ring_of("ising")
    S = entry("ising").smatrix.S.copy()
    S[0, 1] += 0.01
    with pytest.raises(InvariantFailed):
        modular_data(ring, S)


def test_modular_data_rejects_degenerate():
    ring = ring_of("pointed_zn(2)")
    S = np.ones((2, 2), dtype=complex)  # symmetric, positive row, but singular
    with pytest.raises(InvariantFailed):
        modular_data(ring, S)


def test_zero_smatrix_is_degenerate():
    S = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InvariantFailed, match="positive multiple of the identity"):
        modular_data(ring_of("pointed_zn(2)"), S)
    with pytest.raises(InvalidRing, match="positive multiple of the identity"):
        verlinde_ring(S)


def test_modular_data_rejects_non_pseudounitary():
    ring = ring_of("pointed_zn(2)")
    S = np.array([[1, -1], [-1, -1]], dtype=complex) / SQRT2  # negative in row 0
    with pytest.raises(InvariantFailed):
        modular_data(ring, S)


def test_modular_data_rejects_wrong_dims_row():
    # valid unitary matrix whose first row is not proportional to the FP dims
    ring = ring_of("fibonacci")
    S = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    with pytest.raises(InvariantFailed):
        modular_data(ring, S)


def test_modular_data_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        modular_data(ring_of("fibonacci"), entry("ising").smatrix.S)


def test_zero_unit_entry_raises():
    # a raw ModularData with a vanishing S[t][unit] entry, bypassing validation
    from fusionring.modular import ModularData

    ring = ring_of("pointed_zn(2)")
    bad = ModularData(S=np.array([[1, 0], [0, -1]], dtype=complex), ring=ring, global_dim=1.0)
    with pytest.raises(ZeroEntry):
        characters_from_smatrix(bad)


def test_scale_invariance_quantum_trace_normalization():
    # the same data at quantum-trace scale: global_dim becomes FPdim(C)
    ring = ring_of("ising")
    S = entry("ising").smatrix.S * 2.0
    md = modular_data(ring, S)
    assert abs(md.global_dim - 4.0) < 1e-8
    assert centralizer(md, 2).members == (0,)
    table = characters_from_smatrix(md)
    assert np.abs(table.characters - table_of("ising").characters).max() < 1e-8


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.5, np.nan)])
def test_non_finite_smatrix_rejected(value):
    # every "x > tol" test is False for NaN, so it must be refused up front
    S = entry("ising").smatrix.S.copy()
    S[2, 2] = value
    with pytest.raises(InvariantFailed):
        modular_data(ring_of("ising"), S)
    with pytest.raises(InvalidRing):
        verlinde_ring(S)


def test_modular_data_rejects_a_wrong_verlinde_ring():
    # the Klein-group S-matrix passes every other check against Z4, but its
    # Verlinde ring is Z2 x Z2
    klein = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                     dtype=complex) / 2.0
    with pytest.raises(VerlindeMismatch):
        modular_data(ring_of("pointed_zn(4)"), klein)


def _permuted(name, order):
    # the built-in ring and S-matrix in the basis order[0], order[1], ...
    md = entry(name).smatrix
    ring = md.ring
    inv = [order.index(i) for i in range(ring.rank)]
    permuted = FusionRing(
        labels=tuple(ring.labels[i] for i in order),
        N=ring.N[np.ix_(order, order, order)],
        dual=tuple(inv[ring.dual[i]] for i in order),
        unit=inv[ring.unit])
    return permuted, md.S[np.ix_(order, order)]


@pytest.mark.parametrize("name, order", [
    ("ising", [1, 0, 2]),            # sigma's row of S holds a 0
    ("pointed_zn(3)", [1, 0, 2]),
    ("fibonacci", [1, 0]),
])
def test_modular_data_accepts_a_unit_away_from_index_zero(name, order):
    ring, S = _permuted(name, order)
    assert ring.unit == 1 and validate(ring).valid
    md = modular_data(ring, S)
    assert abs(md.global_dim - entry(name).smatrix.global_dim) < 1e-8
    assert centralizer(md, ring.unit).members == tuple(range(ring.rank))
    characters_from_smatrix(md)


def test_modular_data_with_a_moved_unit_still_checks_the_ring():
    # Z4 with its unit at index 1 against the permuted Klein S-matrix
    ring, _ = _permuted("pointed_zn(4)", [1, 0, 2, 3])
    klein = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                     dtype=complex) / 2.0
    klein = klein[np.ix_([1, 0, 2, 3], [1, 0, 2, 3])]
    with pytest.raises(VerlindeMismatch):
        modular_data(ring, klein)


def test_builtin_validates_and_reconstructs_once(monkeypatch, fresh_catalog):
    validations = count_calls(monkeypatch, ring_module.validate)
    tensors = count_calls(monkeypatch, modular._verlinde_tensor)
    assert builtin("su2_k(4)").smatrix is not None
    assert len(validations) == 1 and len(tensors) == 1


def test_modular_report_runs_fp_character_at_most_twice(monkeypatch, capsys):
    # once in modular_data, once for the report; centralizers read the S unit row
    from fusionring import spectral
    from fusionring.cli import main

    calls = count_calls(monkeypatch, spectral.fp_character)
    assert main(["modular", "--ring", "su2_k(10)"]) == 0
    capsys.readouterr()
    assert len(calls) <= 2


def test_centralizers_compare_against_the_unit_row_of_s():
    # the scaled unit row is still accepted as FP dimensions (within 1e-8), but it
    # sits 6.5e-9 from fp_character's dims, beyond the default eps of 1e-9
    S = np.array(entry("fibonacci").smatrix.S)
    S[0, 1] *= 1 + 4e-9
    S[1, 0] *= 1 + 4e-9
    md = modular_data(ring_of("fibonacci"), S)
    assert centralizer(md, 0).members == (0, 1)
    assert projective_centralizer(md, 0) == {0, 1}


def test_kernels_and_centralizers_refuse_a_set_that_is_not_closed():
    # at eps = 1.5 the Ising character (1, -1, 0) reaches FPdim on sigma but not on psi
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    t = int(np.argmin(np.abs(table.characters - [1, -1, 0]).max(axis=1)))
    with pytest.raises(ClosureViolation, match=r"^character kernel not closed under "
                                               r"product at \(2, 2, 1\); lower eps"):
        kernel_of_character(ring, fp, table, t, eps=1.5)
    with pytest.raises(ClosureViolation,
                       match=r"^centralizer not closed under product at \(2, 2, 1\)$"):
        centralizer(entry("ising").smatrix, 2, eps=1.5)


@pytest.mark.parametrize("name, eps, witness", [
    ("pointed_zn(12)", 1.5, (1, 3, 4)), ("su2_k(10)", 0.9, (1, 2, 3)),
    ("su2_k(10)", 0.5, (1, 1, 2)), ("su2_k(7)", 0.5, (1, 1, 2))])
def test_a_loose_eps_refuses_the_first_centralizer_that_is_not_closed(name, eps, witness):
    # the centralizers of all simples are decided together; the error is that of the first
    # simple, in index order, whose set is not closed, as when they were decided one by one
    md = entry(name).smatrix
    first = next(i for i in range(md.ring.rank)
                 if ring_module.closure_defect(md.ring, within_eps(
                     md.characters[i], md.characters[md.ring.unit].real, eps)) is not None)
    with pytest.raises(ClosureViolation) as caught:
        centralizer(md, first, eps=eps)
    message = f"centralizer not closed under product at {witness}"
    assert str(caught.value) == message
    with pytest.raises(ClosureViolation, match=f"^{re.escape(message)}$"):
        modular_report(md, eps=eps)


def test_modular_report_holds_no_r3_array_beyond_the_pattern():
    # traced peak at rank 128, the modular data and the pattern N > 0 made beforehand: the
    # closure test of all centralizers casts ring.edges to float32 one block at a time
    r = 128
    ring = catalog._pointed_zn(r)
    md = modular_data(ring, catalog._pointed_zn_smatrix(r))
    assert ring.edges.nbytes == r**3
    tracemalloc.start()
    try:
        modular_report(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r**3


def test_centralizers_share_the_zero_entry_check_of_the_s_characters():
    # every S-character is formed, so a vanishing S[1][unit] fails the unit's centralizer too
    from fusionring.modular import ModularData

    bad = ModularData(S=np.array([[1, 0], [0, -1]], dtype=complex), ring=ring_of("pointed_zn(2)"),
                      global_dim=1.0)
    for call in (characters_from_smatrix, lambda md: centralizer(md, 0),
                 lambda md: projective_centralizer(md, 0)):
        with pytest.raises(ZeroEntry,
                           match=r"^S\[t\]\[unit\] vanishes for t=1; not pseudo-unitary$"):
            call(bad)


@pytest.mark.parametrize("name", ["ising", "su2_k(4)", "pointed_zn(6)"])
def test_s_characters_are_formed_once_per_modular_data(name):
    md = entry(name).smatrix
    assert md.characters is md.characters
    assert np.array_equal(md.characters, md.S / md.S[:, [md.ring.unit]])


def test_modular_data_compares_the_verlinde_blocks_in_place():
    # traced peak at rank 128, S made beforehand: the blocks are compared with ring.N, so no
    # second r^3 tensor exists
    r = 128
    ring, S = catalog._pointed_zn(r), catalog._pointed_zn_smatrix(r)
    tracemalloc.start()
    try:
        modular_data(ring, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * r**3 * 8


def test_a_nonintegral_smatrix_of_another_ring_raises_nonintegral_first():
    # pointed_zn(5) with g1 and g2 swapped in S is not its ring (1 -> 2 is no automorphism);
    # a small rotation Q about (1, 1, 1) on g2, g3, g4 keeps Q^T S Q symmetric, unitary and
    # its unit row, but moves the Verlinde constants off the integers
    ring = catalog._pointed_zn(5)
    o = [0, 2, 1, 3, 4]
    S = catalog._pointed_zn_smatrix(5)[np.ix_(o, o)]
    with pytest.raises(VerlindeMismatch):
        modular_data(ring, S)
    t, a = 0.01, np.ones(3) / math.sqrt(3.0)
    cross = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    Q = np.eye(5)
    Q[2:, 2:] = math.cos(t) * np.eye(3) + math.sin(t) * cross + (1 - math.cos(t)) * np.outer(a, a)
    with pytest.raises(NonIntegral):
        modular_data(ring, Q.T @ S @ Q)


def test_a_mismatch_in_the_last_verlinde_block_is_found(monkeypatch):
    # one index per block; the ring differs from its S only in the plane of its last simple,
    # a permutation matrix still, so its FP dimensions stay 1
    monkeypatch.setattr(ring_module, "_BLOCK", 8 * 8)
    ring, S = catalog._pointed_zn(8), catalog._pointed_zn_smatrix(8)
    assert len(ring_module.blocks(8, 8 * 8)) == 8
    N = np.array(ring.N)
    N[7] = N[7][[1, 0, 2, 3, 4, 5, 6, 7]]
    with pytest.raises(VerlindeMismatch):
        modular_data(FusionRing(labels=ring.labels, N=N, dual=ring.dual), S)
    assert modular_data(ring, S).ring is ring


def test_a_ring_off_the_verlinde_tensor_only_below_the_diagonal_is_refused():
    # Z2 with N[1][0][1] = 2: the pairs i <= j still match its S, and the FP dimensions stay
    # (1, 1), since M + M^T = [[2, 3], [3, 2]] keeps its top eigenvector; only the check that
    # the ring is commutative sees the entry below the diagonal
    ring = catalog._pointed_zn(2)
    N = np.array(ring.N)
    N[1, 0, 1] = 2
    bent = FusionRing(labels=ring.labels, N=N, dual=ring.dual)
    S = catalog._pointed_zn_smatrix(2)
    U = S / np.sqrt(modular._nondegenerate(S, 2, InvalidRing))
    assert modular._verlinde_tensor(U, 0, bent.N) is bent.N
    with pytest.raises(VerlindeMismatch):
        modular_data(bent, S)


@pytest.mark.parametrize("name", ["su2_k(10)", "pointed_zn(8)"])
def test_a_noncommutative_ring_matching_s_on_the_pairs_is_refused(name):
    # the rows N[j][unit], j > 0, cycled: a ring built, not validated, that is not
    # commutative, agrees with the Verlinde tensor of S on every pair i <= j, and keeps
    # M = sum_i N[i] and with it the FP dimensions, so only the commutativity check refuses it
    ring, S = ring_of(name), entry(name).smatrix.S
    N = np.array(ring.N)
    N[1:, 0] = np.roll(N[1:, 0], 1, axis=0)
    bent = FusionRing(labels=ring.labels, N=N, dual=ring.dual)
    assert not is_commutative(bent)
    assert np.array_equal(fp_character(bent).dims, fp_character(ring).dims)
    with pytest.raises(VerlindeMismatch):
        modular_data(bent, S)


@pytest.mark.parametrize("rows", [None, 1])
@pytest.mark.parametrize("name", MODULAR_NAMES + list(LADDER))
def test_verlinde_ring_is_symmetric_and_matches_an_einsum(monkeypatch, name, rows):
    # each pair i <= j is written to N[i][j] and N[j][i]; 2^14 entries make 9, 7 and 4
    # rows per block on the ladder, and one row per block makes every block its own GEMM
    S = LADDER[name][1] if name in LADDER else entry(name).smatrix.S
    r = len(S)
    monkeypatch.setattr(ring_module, "_BLOCK", 2**14 if rows is None else rows * r * r)
    N = verlinde_ring(S).N
    U = S / np.sqrt(modular._nondegenerate(S, r, InvalidRing))
    assert np.array_equal(N, N.transpose(1, 0, 2))
    assert np.array_equal(N, einsum_verlinde(U, 0))


def test_a_perturbed_real_smatrix_names_its_nonintegral_coefficient_as_a_complex_number():
    # su2_k(10) has a real S, so the real GEMM runs; the message keeps the complex value
    S = entry("su2_k(10)").smatrix.S.copy()
    S[2, 3] = S[3, 2] = S[2, 3] + 1e-3
    assert not S.imag.any()
    with pytest.raises(NonIntegral) as exc:
        modular._verlinde_tensor(S, 0)
    assert str(exc.value) == "Verlinde coefficient at (3, 9, 2) is not integral: 0.00076180168+0j"


def test_a_tiny_imaginary_part_takes_the_complex_path():
    # an imaginary part of 1e-300 leaves N as it is, but the product runs in complex
    # arithmetic: the perturbed coefficient then carries an imaginary part of its own
    S = entry("su2_k(10)").smatrix.S.copy()
    tiny = S.copy()
    tiny[3, 5] = tiny[5, 3] = tiny[3, 5] + 1e-300j
    assert np.array_equal(verlinde_ring(tiny).N, verlinde_ring(S).N)
    tiny[2, 3] = tiny[3, 2] = tiny[2, 3] + 1e-3
    with pytest.raises(NonIntegral) as exc:
        modular._verlinde_tensor(tiny, 0)
    assert re.fullmatch(r"Verlinde coefficient at \(3, 9, 2\) is not integral: "
                        r"0\.00076180168[+-][1-9](\.\d+)?e-\d+j", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("name", list(LADDER))
def test_verlinde_gemms_stay_below_the_blas_threading_size(monkeypatch, name):
    # OpenBLAS threads a GEMM of _GEMM_MADDS multiply-adds or more (a complex one counts 4),
    # and numpy hands a one-row or one-column product to a threaded GEMV; a threaded call
    # stalls when the caller has just moved to another CPU, so on the ladder every product
    # of the modular path has two rows and two columns or more and stays below the size:
    # the Verlinde tensor's (pointed_zn(64) splits 904 rows into 61 calls), validate's,
    # the centralizers' closure test's and _nondegenerate's
    ring, S = LADDER[name]
    md = modular_data(ring, S)
    U = S / np.sqrt(md.global_dim)
    calls, matmul = [], np.matmul

    def recording(a, b, **kwargs):
        complex_ = np.iscomplexobj(a) or np.iscomplexobj(b)
        calls.append(a.shape[0] * b.shape[0] * b.shape[1] * (4 if complex_ else 1))
        assert a.shape[0] >= 2 and b.shape[1] >= 2
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    assert modular._verlinde_tensor(U, ring.unit, ring.N) is ring.N
    assert len(calls) > len(ring_module.blocks(ring.rank, ring.rank**2))
    sites = {"verlinde": lambda: True,
             "validate": lambda: validate(ring).valid,
             "centralizers": lambda: len(centralizers(md, range(ring.rank))) == ring.rank,
             "nondegenerate": lambda: modular._nondegenerate(S, ring.rank, InvalidRing) > 0}
    for site, run in sites.items():
        assert run() and calls, site
        assert max(calls) < ring_module._GEMM_MADDS, site
        calls.clear()


@pytest.mark.parametrize("name", MODULAR_NAMES)
def test_verlinde_ring_matches_an_einsum_over_split_gemms(monkeypatch, name):
    # a size that fits 8 complex or 35 real rows splits the block of a complex S of rank 4
    # and up, and of a real S of rank 8 and up, into calls of uneven heights
    S = entry(name).smatrix.S
    r = len(S)
    monkeypatch.setattr(ring_module, "_GEMM_MADDS", 36 * r * r)
    U = S / np.sqrt(modular._nondegenerate(S, r, InvalidRing))
    assert np.array_equal(verlinde_ring(S).N, einsum_verlinde(U, 0))


# Builds the ladder files, lets OpenBLAS's worker threads fall asleep, and prints the run
# time that every thread but the main one accrues over `modular` on each file.
_WORKER_PROBE = """
import contextlib, glob, io, json, os, sys, time
from fusionring import catalog, cli
from fusionring.catalog import save_ring, save_smatrix
from fusionring.modular import modular_data

def others():
    tasks = glob.glob("/proc/self/task/*/schedstat")
    return len(tasks), sum(int(open(t).read().split()[0]) for t in tasks
                           if int(t.split("/")[4]) != os.getpid())

argvs = []
for name, ring, S in (("su2_k", catalog._su2_k(40), catalog._su2_k_smatrix(40)),
                      ("zn48", catalog._pointed_zn(48), catalog._pointed_zn_smatrix(48)),
                      ("zn64", catalog._pointed_zn(64), catalog._pointed_zn_smatrix(64))):
    ring_path, s_path = (os.path.join(sys.argv[1], name + end) for end in (".r.json", ".s.json"))
    save_ring(ring, ring_path)
    save_smatrix(modular_data(ring, S), s_path)
    argvs.append(["modular", "--ring", ring_path, "--smatrix", s_path, "--format", "json"])
time.sleep(0.5)
threads, before = others()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"threads": threads, "codes": codes, "grew_ns": others()[1] - before}))
"""


def test_modular_on_the_ladder_never_wakes_a_blas_worker(tmp_path):
    # a threaded BLAS or LAPACK call leaves OpenBLAS's worker spinning beyond the item, and
    # a caller moved to its CPU stalls for scheduler ticks in whatever it runs next
    if not os.path.exists("/proc/self/task"):
        pytest.skip("no /proc to read thread run times from")
    env = {**os.environ, "PYTHONPATH": str(Path(fusionring.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _WORKER_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    if seen["threads"] == 1:
        pytest.skip("one thread: OpenBLAS has no worker to wake")
    assert seen["codes"] == [0, 0, 0]
    assert seen["grew_ns"] == 0
