"""Kernels and centers of characters and classes; the tensor-power property."""

import random

import numpy as np
import pytest

from conftest import COMMUTATIVE_NAMES, fp_of, ring_of, table_of
from fusionring import (
    adjoint_class,
    center_of_class,
    generated_subcategory,
    is_faithful,
    is_indecomposable_matrix,
    kernel_of_character,
    kernel_of_class,
    kernel_via_subring_idempotents,
    verify_brauer,
)
from fusionring.errors import CapExceeded, InternalInconsistency, ZeroClass
from fusionring.spectral import within_eps


def char_index(name, values, tol=1e-8):
    """Index of the character with the given value vector."""
    table = table_of(name)
    hits = [t for t in range(table.count)
            if np.abs(table.characters[t] - np.asarray(values, dtype=complex)).max() < tol]
    assert len(hits) == 1, f"no unique character with values {values}"
    return hits[0]


def test_kernel_of_character_ising():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    t = char_index("ising", [1, 1, -2**0.5])
    assert kernel_of_character(ring, fp, table, t).members == (0, 1)
    assert kernel_of_character(ring, fp, table, 0).members == (0, 1, 2)


def test_kernel_of_character_rep_s3():
    # the class-(123) character (1, 1, -1) has kernel {1, eps}, mirroring A3
    ring, fp, table = ring_of("rep_s3"), fp_of("rep_s3"), table_of("rep_s3")
    t = char_index("rep_s3", [1, 1, -1])
    assert kernel_of_character(ring, fp, table, t).members == (0, 1)


def test_kernel_of_class_examples():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    assert kernel_of_class(ring, fp, table, ring.basis_vector(2)) == {0}
    psi_kernel = kernel_of_class(ring, fp, table, ring.basis_vector(1))
    assert psi_kernel == {0, char_index("ising", [1, 1, -2**0.5])}
    assert kernel_of_class(ring, fp, table, ring.basis_vector(0)) == set(range(3))


def test_center_of_class_examples():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    sigma_center = center_of_class(ring, fp, table, ring.basis_vector(2))
    assert sigma_center == {0, char_index("ising", [1, 1, -2**0.5])}
    s3, fp3, t3 = ring_of("rep_s3"), fp_of("rep_s3"), table_of("rep_s3")
    assert center_of_class(s3, fp3, t3, s3.basis_vector(2)) == {0}
    assert center_of_class(s3, fp3, t3, s3.basis_vector(0)) == set(range(3))


def test_zero_class_rejected():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    with pytest.raises(ZeroClass):
        kernel_of_class(ring, fp, table, np.zeros(3, dtype=int))
    with pytest.raises(ZeroClass):
        center_of_class(ring, fp, table, np.zeros(3, dtype=int))


def test_verify_brauer_ising():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    report = verify_brauer(ring, fp, table, 2, cap=8)
    assert report.faithful_expected and report.faithful_actual
    assert report.exponents == {0: 0, 2: 1, 1: 2}
    report = verify_brauer(ring, fp, table, 1, cap=8)
    assert not report.faithful_expected
    assert 2 not in report.exponents  # sigma never occurs in powers of psi


def test_verify_brauer_rep_s3():
    ring, fp, table = ring_of("rep_s3"), fp_of("rep_s3"), table_of("rep_s3")
    report = verify_brauer(ring, fp, table, 2, cap=8)
    assert report.exponents == {0: 0, 2: 1, 1: 2}
    assert max(report.exponents.values()) <= 2


def test_verify_brauer_cap_too_small():
    ring, fp, table = ring_of("pointed_zn(12)"), fp_of("pointed_zn(12)"), table_of("pointed_zn(12)")
    with pytest.raises(CapExceeded):
        verify_brauer(ring, fp, table, 1, cap=5)


def test_kernel_via_idempotents_examples():
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    assert kernel_via_subring_idempotents(ring, fp, table, 1) == {
        0, char_index("ising", [1, 1, -2**0.5])}
    assert kernel_via_subring_idempotents(ring, fp, table, 2) == {0}
    triv, fpt, tt = ring_of("trivial"), fp_of("trivial"), table_of("trivial")
    assert kernel_via_subring_idempotents(triv, fpt, tt, 0) == {0}


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_idempotent_kernel_cross_check(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    for i in range(ring.rank):
        direct = kernel_of_class(ring, fp, table, ring.basis_vector(i))
        via = kernel_via_subring_idempotents(ring, fp, table, i)
        assert direct == via, f"simple {i}: {sorted(direct)} != {sorted(via)}"


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_kernel_closed_under_products(name):
    # if mu agrees with FPdim on two simples, it agrees on their constituents
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    for t in range(table.count):
        members = kernel_of_character(ring, fp, table, t).members
        for i in members:
            for j in members:
                for k in np.nonzero(ring.N[i, j])[0]:
                    assert abs(table.characters[t, k] - fp.dims[k]) < 1e-8


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_center_equals_kernel_of_adjoint_square(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    for i in range(ring.rank):
        x = ring.multiply(ring.basis_vector(i), ring.basis_vector(ring.dual[i]))
        assert kernel_of_class(ring, fp, table, x) == center_of_class(
            ring, fp, table, ring.basis_vector(i))


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_adjoint_kernel_is_center_intersection(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    adj = adjoint_class(ring)
    expected = set(range(table.count))
    for i in range(ring.rank):
        expected &= center_of_class(ring, fp, table, ring.basis_vector(i))
    assert kernel_of_class(ring, fp, table, adj) == expected


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_trivial_kernel_iff_faithful(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    for i in range(ring.rank):
        trivial_kernel = kernel_of_class(ring, fp, table, ring.basis_vector(i)) == {0}
        assert trivial_kernel == is_faithful(ring, i)
        report = verify_brauer(ring, fp, table, i)
        assert report.faithful_expected == trivial_kernel
        if trivial_kernel:
            assert set(report.exponents) == set(range(ring.rank))


def test_q8_center_recovery():
    # kernel of the adjoint class reflects Z(Q8) = Z_2: exactly two characters
    ring, fp, table = ring_of("rep_q8"), fp_of("rep_q8"), table_of("rep_q8")
    kernel = kernel_of_class(ring, fp, table, adjoint_class(ring))
    assert len(kernel) == 2
    assert kernel == {0, char_index("rep_q8", [1, 1, 1, 1, -2])}


def test_subcategory_spanned_by_kernel_faithful_on_quotient_generator():
    # kernel of a character is a genuine subcategory: restriction must validate
    from fusionring import restrict, validate

    ring, fp, table = ring_of("rep_q8"), fp_of("rep_q8"), table_of("rep_q8")
    for t in range(table.count):
        sub = kernel_of_character(ring, fp, table, t)
        assert validate(restrict(ring, sub)).valid


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_brauer_analogue_for_objects(name):
    # trivial kernel <=> the support generates the ring <=> sum x_g A_g is indecomposable
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    rng = random.Random(name)
    for _ in range(20):
        support = rng.sample(range(ring.rank), rng.randint(1, min(4, ring.rank)))
        x = np.zeros(ring.rank, dtype=np.int64)
        for g in support:
            x[g] = rng.randint(1, 2)
        trivial = kernel_of_class(ring, fp, table, x) == {table.fp_index}
        generates = len(generated_subcategory(ring, support)) == ring.rank
        matrix = sum(x[g] * ring.fusion_matrix(g) for g in support)
        assert trivial == generates == is_indecomposable_matrix(matrix), (name, x.tolist())


def test_class_kernels_are_decided_past_2_53():
    # 2**80 + sigma: in float64 the sigma term vanishes and every character matched
    ring, fp, table = ring_of("ising"), fp_of("ising"), table_of("ising")
    x = np.array([2**80, 0, 1], dtype=object)
    assert kernel_of_class(ring, fp, table, x) == {0}
    assert center_of_class(ring, fp, table, x) == {0}


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_class_kernels_agree_with_the_support(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    rng = random.Random(name)
    for _ in range(10):
        x = np.zeros(ring.rank, dtype=np.int64)
        for g in rng.sample(range(ring.rank), rng.randint(1, min(4, ring.rank))):
            x[g] = rng.randint(1, 5)
        values, dim = table.characters @ x.astype(complex), float(fp.dims @ x)
        support = (x > 0).astype(np.int64)
        assert (kernel_of_class(ring, fp, table, x) == kernel_of_class(ring, fp, table, support)
                == frozenset(within_eps(values, dim))), (name, x.tolist())
        assert (center_of_class(ring, fp, table, x) == center_of_class(ring, fp, table, support)
                == frozenset(within_eps(values, dim, modulus=True))), (name, x.tolist())


def test_check_brauer_alone_profiles_a_fresh_ring_in_one_batch(monkeypatch):
    from conftest import count_calls
    from fusionring import catalog, character_table, fp_character, subcat
    from fusionring.kernel import characters_at_fpdim, check_brauer

    ring = catalog._su2_k(10)  # fresh: nothing of it is profiled yet
    r = ring.rank
    fp, table = fp_character(ring), character_table(ring)
    kernels = characters_at_fpdim(fp, table, np.eye(r))
    builds = count_calls(monkeypatch, subcat._build_profiles)
    check_brauer(ring, range(r), [k == {table.fp_index} for k in kernels])
    assert [batch for _, batch in builds] == [[frozenset({i}) for i in range(r)]]


@pytest.mark.parametrize("trivial", [[True], [False]])
def test_check_brauer_takes_a_generator_of_simples_as_it_takes_a_list(trivial):
    from fusionring.kernel import check_brauer

    def outcome(simples):
        try:
            return check_brauer(ring_of("ising"), simples, trivial)
        except InternalInconsistency as exc:
            return type(exc), str(exc)

    assert outcome(i for i in [2]) == outcome([2]) != []
