"""Error paths that healthy catalog data never reaches."""

import warnings

import numpy as np
import pytest

from conftest import entry, fp_of, ring_of, table_of
from fusionring import (
    FusionRing,
    Subcategory,
    center_of_class,
    centralizer,
    character_table,
    fp_character,
    generated_subcategory,
    invertibles,
    is_faithful,
    kernel_of_character,
    kernel_of_class,
    object_index,
    primitive_idempotents,
    projective_centralizer,
    restrict,
    universal_grading,
)
from fusionring.errors import (
    ClosureViolation,
    ConvergenceFailure,
    DegenerateCombination,
    DimensionMismatch,
    InternalInconsistency,
    MethodDisagreement,
    SingularCharacterMatrix,
    ZeroClass,
)
from fusionring import spectral
from fusionring.ring import closure_defect
from fusionring.spectral import CharacterTable, FPData, build_table
from fusionring.subcat import _build_profiles, profiles


def test_convergence_failure_when_the_top_eigenvector_is_not_positive():
    # N[0] = I, N[1] = 0: M = sum_i N[i] = I is reducible, its top eigenvector is e_1,
    # zero at the unit; the refusal comes before any division by that entry
    ring = FusionRing(labels=["1", "x"], N=[np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)],
                      dual=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure, match="not strictly positive"):
            fp_character(ring)


def test_convergence_failure_when_the_top_eigenvector_vanishes_somewhere():
    # N[0] = I, N[1] = diag(0, 1): M + M^T = diag(2, 4) has a simple top eigenvalue whose
    # eigenvector e_1 is zero at the unit; inverse iteration from the all-ones vector would
    # only shrink that entry, so the disconnected pattern of M + M^T refuses it
    N = [np.eye(2, dtype=int), np.diag([0, 1])]
    ring = FusionRing(labels=["1", "x"], N=N, dual=(0, 1))
    with pytest.raises(ConvergenceFailure, match="not strictly positive"):
        fp_character(ring)


def test_convergence_failure_when_the_top_eigenvalue_is_within_the_gap_margin(monkeypatch):
    # ising's M + M^T has eigenvalues 4 + 2 sqrt(2), 4 - 2 sqrt(2) and 0: its top one lies
    # 0.83 of itself above the next; a fresh ring, since fp_character keeps its dims per ring
    ising = FusionRing(labels=["1", "psi", "sigma"], N=ring_of("ising").N, dual=(0, 1, 2))
    monkeypatch.setattr(spectral, "_SIMPLE_GAP", 0.9)
    with pytest.raises(ConvergenceFailure, match="not strictly positive"):
        fp_character(ising)
    monkeypatch.setattr(spectral, "_SIMPLE_GAP", 0.8)
    assert np.allclose(fp_character(ising).dims, [1, 1, 2**0.5])


def test_build_table_rejects_non_characters():
    ring = ring_of("ising")
    rows = np.array([[1, 1, 2**0.5], [1, 1, 0.5], [1, -1, 0]], dtype=complex)
    with pytest.raises(DegenerateCombination):
        build_table(ring, rows)


def test_build_table_rejects_unnormalized_rows():
    ring = ring_of("fibonacci")
    rows = np.array([[2, 2 * 1.618], [1, -0.618]], dtype=complex)
    with pytest.raises(DegenerateCombination):
        build_table(ring, rows)


def test_singular_character_matrix():
    table = table_of("ising")
    doctored = CharacterTable(
        characters=np.vstack([table.characters[0], table.characters[0], table.characters[2]]),
        codegrees=table.codegrees.copy())
    with pytest.raises(SingularCharacterMatrix):
        primitive_idempotents(ring_of("ising"), doctored)


def test_closure_violation_from_misclassified_kernel():
    # a fake character agreeing with FPdim on sigma but not on psi: the
    # member set {1, sigma} cannot be product-closed
    ring, fp = ring_of("ising"), fp_of("ising")
    fake = table_of("ising").characters.copy()
    fake[2] = np.array([1.0, 0.0, 2**0.5], dtype=complex)
    doctored = CharacterTable(characters=fake, codegrees=table_of("ising").codegrees.copy())
    with pytest.raises(ClosureViolation):
        kernel_of_character(ring, fp, doctored, 2)


def test_method_disagreement_on_doctored_table():
    # no character of the doctored table takes the value -sqrt(2) on sigma
    ring, fp = ring_of("ising"), fp_of("ising")
    fake = table_of("ising").characters.copy()
    fake[2] = fake[0]
    doctored = CharacterTable(characters=fake, codegrees=table_of("ising").codegrees.copy())
    with pytest.raises(MethodDisagreement):
        universal_grading(ring, ring.index_of("sigma"), fp, doctored)


def test_invertibles_inconsistency_on_doctored_dims():
    ring = ring_of("ising")
    fake = FPData(dims=np.ones(3), global_dim=3.0)
    with pytest.raises(InternalInconsistency):
        invertibles(ring, fake)


def test_zero_class_message():
    ring, fp, table = ring_of("fibonacci"), fp_of("fibonacci"), table_of("fibonacci")
    from fusionring import kernel_of_class

    with pytest.raises(ZeroClass):
        kernel_of_class(ring, fp, table, np.array([0, 0]))
    with pytest.raises(ValueError):
        kernel_of_class(ring, fp, table, np.array([1, -1]))


def test_character_table_retries_are_deterministic():
    # same seed, same table, twice
    first = character_table(ring_of("su2_k(6)"), seed=3)
    second = character_table(ring_of("su2_k(6)"), seed=3)
    assert np.array_equal(first.characters, second.characters)


def test_profile_rejects_a_digraph_that_never_returns_to_the_unit():
    # a*a = b, a*b = b: the powers of a never contain the unit again
    from fusionring import FusionRing, object_index

    N = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        N[0, j, j] = N[j, 0, j] = 1
    N[1, 1, 2] = N[1, 2, 2] = 1
    ring = FusionRing(labels=("1", "a", "b"), N=N, dual=(0, 1, 2))
    with pytest.raises(InternalInconsistency):
        object_index(ring, 1)
    # in a batch, the first support that never returns is named; the unit alone returns
    with pytest.raises(InternalInconsistency, match=r"of \[1\] is not strongly connected"):
        _build_profiles(ring, [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})])
    with pytest.raises(InternalInconsistency, match=r"of \[0, 1\] is not strongly connected"):
        _build_profiles(ring, [frozenset({0}), frozenset({0, 1}), frozenset({1})])
    with pytest.raises(InternalInconsistency, match=r"of \[1\] is not strongly connected"):
        profiles(ring, ([i] for i in range(ring.rank)))


def test_profile_rejects_a_member_that_never_reaches_the_unit():
    # a*a = 1 + b, a*b = b: the unit recurs in the powers of a, but b never leads back to it
    from fusionring import FusionRing, object_index

    N = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        N[0, j, j] = N[j, 0, j] = 1
    N[1, 1, 0] = N[1, 1, 2] = N[1, 2, 2] = 1
    ring = FusionRing(labels=("1", "a", "b"), N=N, dual=(0, 1, 2))
    for profile in (lambda: object_index(ring, 1),
                    lambda: profiles(ring, ([i] for i in range(ring.rank)))):
        with pytest.raises(InternalInconsistency, match=r"of \[1\] is not strongly connected"):
            profile()


def test_simple_indices_outside_the_rank_are_rejected():
    ring = ring_of("ising")
    with pytest.raises(IndexError):
        generated_subcategory(ring, [-1, -1])
    with pytest.raises(IndexError):
        is_faithful(ring, -1)
    with pytest.raises(IndexError):
        object_index(ring, 3)


def test_class_vectors_must_be_integral_and_of_the_rank():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    for of_class in (kernel_of_class, center_of_class):
        for x in ([0.5, 0, 0], [-0.5, 0, 1], [1, 0, float("nan")],
                  [1 + 0j, 0, 0], ["1", "0", "0"], [None, 0, 0]):
            with pytest.raises(ValueError, match="nonnegative integer coefficients"):
                of_class(ring, fp, table, np.array(x))
        with pytest.raises(DimensionMismatch):
            of_class(ring, fp, table, np.array([1, 0]))
        assert (of_class(ring, fp, table, np.array([1.0, 0.0, 2.0]))
                == of_class(ring, fp, table, np.array([1, 0, 2])))


OUT_OF_RANGE = {
    "closure_defect": lambda ring, i: closure_defect(ring, (0, i, 1)),
    "restrict": lambda ring, i: restrict(ring, Subcategory((0, i))),
    "centralizer": lambda ring, i: centralizer(entry("ising").smatrix, i),
    "projective_centralizer": lambda ring, i: projective_centralizer(entry("ising").smatrix, i),
    "kernel_of_character": lambda ring, i: kernel_of_character(
        ring, fp_of("ising"), table_of("ising"), i),
    "basis_vector": lambda ring, i: ring.basis_vector(i),
    "fusion_matrix": lambda ring, i: ring.fusion_matrix(i),
    "tensor_power": lambda ring, i: ring.tensor_power(i, 2),
}


@pytest.mark.parametrize("entry_point", sorted(OUT_OF_RANGE))
def test_indices_outside_the_rank_are_not_wrapped(entry_point):
    # a negative index would otherwise count from the end, and answer for another simple
    ring = ring_of("ising")
    for i in (-1, -2, 3):
        with pytest.raises(IndexError, match=r"^simple indices \[.*\] out of range for rank 3$"):
            OUT_OF_RANGE[entry_point](ring, i)
