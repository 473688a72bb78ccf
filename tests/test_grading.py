"""Imprimitivity index, object order, and the universal cyclic grading."""

import gc
import weakref

import numpy as np
import pytest

from conftest import ALL_NAMES, COMMUTATIVE_NAMES, fp_of, ring_of, table_of
from fusionring import (
    FusionRing,
    center_of_class,
    character_table,
    fp_character,
    generated_subcategory,
    object_index,
    object_order,
    restrict,
    universal_grading,
)
from fusionring.errors import CapExceeded, MethodDisagreement
from fusionring.ring import exact_matvec
from fusionring.spectral import CharacterTable
from fusionring.subcat import object_profile, restriction_order


def test_object_index_examples():
    assert object_index(ring_of("ising"), 2) == 2
    assert object_index(ring_of("fibonacci"), 1) == 1
    for n in (2, 5, 12):
        assert object_index(ring_of(f"pointed_zn({n})"), 1) == n
    assert object_index(ring_of("rep_s3"), 2) == 1
    assert object_index(ring_of("rep_q8"), 4) == 2


def test_object_index_counts_peripheral_eigenvalues():
    # independent oracle: number of eigenvalues of a(X) on C(X) of maximal modulus
    for name in ("ising", "fibonacci", "rep_q8", "pointed_zn(6)", "su2_k(5)",
                 "tambara_yamagami_zn(4)"):
        ring = ring_of(name)
        for i in range(ring.rank):
            sub = generated_subcategory(ring, [i])
            small = restrict(ring, sub)
            loc = restriction_order(ring, sub).index(i)
            eigs = np.linalg.eigvals(small.fusion_matrix(loc).astype(float))
            top = np.abs(eigs).max()
            peripheral = int(np.sum(np.abs(np.abs(eigs) - top) < 1e-8))
            assert object_index(ring, i) == peripheral, (name, i)


def test_object_order_examples():
    assert object_order(ring_of("ising"), 2) == 2
    assert object_order(ring_of("fibonacci"), 1) == 2
    for n in (3, 12, 24):
        assert object_order(ring_of(f"pointed_zn({n})"), 1) == n
    assert object_order(ring_of("pointed_zn(12)"), 8) == 3  # g8 generates Z_3


def test_object_order_cap():
    with pytest.raises(CapExceeded):
        object_order(ring_of("pointed_zn(12)"), 1, cap=11)
    assert object_order(ring_of("pointed_zn(12)"), 1, cap=12) == 12


def test_pointed_index_and_order_closed_form():
    # oracle: g^j generates a cyclic group of order n / gcd(j, n)
    import math as _math

    for n in (6, 12):
        ring = ring_of(f"pointed_zn({n})")
        for j in range(1, n):
            expected = n // _math.gcd(j, n)
            assert object_index(ring, j) == expected
            assert object_order(ring, j) == expected


def test_universal_grading_ising():
    ring = ring_of("ising")
    grading = universal_grading(ring, 2, fp_of("ising"), table_of("ising"))
    assert grading.index == 2 and grading.order == 2
    assert grading.components == ((0, 1), (2,))
    assert grading.grades == {0: 0, 1: 0, 2: 1}
    assert grading.character_checked


def test_universal_grading_pointed():
    n = 8
    ring = ring_of(f"pointed_zn({n})")
    grading = universal_grading(ring, 1, fp_of(f"pointed_zn({n})"), table_of(f"pointed_zn({n})"))
    assert grading.index == n
    assert grading.components == tuple((a,) for a in range(n))


def test_universal_grading_rep_q8():
    ring = ring_of("rep_q8")
    grading = universal_grading(ring, 4, fp_of("rep_q8"), table_of("rep_q8"))
    assert grading.index == 2
    assert grading.components == ((0, 1, 2, 3), (4,))


def test_universal_grading_on_nonfaithful_generator():
    # psi generates the Z_2 subring of Ising; grading lives there
    ring = ring_of("ising")
    grading = universal_grading(ring, 1, fp_of("ising"), table_of("ising"))
    assert grading.index == 2
    assert grading.components == ((0,), (1,))
    assert grading.character_checked


def test_universal_grading_noncommutative_ambient():
    # generators of vec_s3 span commutative cyclic subrings, so the character
    # cross-check still applies there
    ring = ring_of("vec_s3")
    rot = ring.index_of("r")
    grading = universal_grading(ring, rot, None, None)
    assert grading.index == 3
    assert len(grading.components) == 3 and grading.character_checked


@pytest.mark.parametrize("name", ALL_NAMES)
def test_index_divides_order(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        assert object_order(ring, i) % object_index(ring, i) == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_power_exponents_single_residue_class(name):
    # every simple occurs in powers of X only at exponents in one class mod ind(X)
    ring = ring_of(name)
    for i in range(ring.rank):
        ind = object_index(ring, i)
        cap = 3 * ring.rank * ind
        A = ring.fusion_matrix(i)
        v = ring.basis_vector(ring.unit)
        first: dict[int, int] = {ring.unit: 0}
        for n in range(1, cap + 1):
            v = exact_matvec(A, v)
            for k in map(int, np.nonzero(v)[0]):
                if k in first:
                    assert (n - first[k]) % ind == 0, (name, i, k, n)
                else:
                    first[k] = n


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_component_product_rule(name):
    ring, fp, table = ring_of(name), fp_of(name), table_of(name)
    for i in range(ring.rank):
        grading = universal_grading(ring, i, fp, table)
        for u, gu in grading.grades.items():
            for v, gv in grading.grades.items():
                prod = ring.multiply(ring.basis_vector(u), ring.basis_vector(v))
                for k in map(int, np.nonzero(prod)[0]):
                    assert grading.grades[k] == (gu + gv) % grading.index
        # grade of the dual is the negated grade
        for u, gu in grading.grades.items():
            assert grading.grades[ring.dual[u]] == (-gu) % grading.index
        assert grading.grades[ring.unit] == 0
        if grading.index > 1:
            assert grading.grades[i] == 1
        # the components partition the generated subcategory
        members = set(generated_subcategory(ring, [i]).members)
        scattered = [m for comp in grading.components for m in comp]
        assert sorted(scattered) == sorted(members)
        assert grading.order % grading.index == 0


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_center_on_generated_subring_has_index_many_characters(name):
    # the center of X inside C(X) consists of ind(X) characters whose values
    # on X are exactly the ind-th roots of unity times FPdim(X)
    ring = ring_of(name)
    for i in range(ring.rank):
        sub = generated_subcategory(ring, [i])
        small = restrict(ring, sub)
        loc = restriction_order(ring, sub).index(i)
        fp = fp_character(small)
        table = character_table(small)
        ind = object_index(ring, i)
        centre = center_of_class(small, fp, table, small.basis_vector(loc))
        assert len(centre) == ind, (name, i)
        xi = np.exp(2j * np.pi / ind)
        expected = {round(a) for a in range(ind)}
        got = set()
        for t in centre:
            ratio = table.characters[t, loc] / fp.dims[loc]
            a = int(round(np.angle(ratio) * ind / (2 * np.pi))) % ind
            assert abs(ratio - xi**a) < 1e-8
            got.add(a)
        assert got == expected


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_grading_from_ambient_table_matches_restricted_route(name):
    # the restricted ring and its own table stay the reference for the ambient one
    ring = ring_of(name)
    for i in range(ring.rank):
        ambient = universal_grading(ring, i, fp_of(name), table_of(name))
        assert ambient == universal_grading(ring, i), (name, i)
        assert ambient.character_checked


@pytest.mark.parametrize("name", ALL_NAMES)
def test_profile_matches_tensor_powers(name):
    # brute-force oracle: the exact classes of the powers, and the iterative
    # closure that generated_subcategory runs for more than one generator
    ring = ring_of(name)
    r = ring.rank
    for i in range(r):
        powers = [ring.tensor_power(i, n) for n in range(r + 1)]
        first = tuple(next((n for n, p in enumerate(powers) if p[k] > 0), -1) for k in range(r))
        profile = object_profile(ring, i)
        assert profile.level == first, (name, i)
        assert profile.order == next(n for n in range(1, r + 1) if powers[n][ring.unit] > 0)
        assert profile.members == generated_subcategory(ring, [i, i]).members, (name, i)
        assert profile.members == tuple(k for k in range(r) if first[k] >= 0)


def test_profile_cache_does_not_keep_its_ring_alive():
    base = ring_of("ising")
    ring = FusionRing(labels=base.labels, N=base.N, dual=base.dual)
    assert object_index(ring, 2) == 2 and object_profile(ring, 2) is object_profile(ring, 2)
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("values, message", [
    # simple 2 is off every power of xi = i, simple 3 has the wrong phase
    ([0.5, 1j], r"^character value on simple 2 is not a power of xi$"),
    # simple 2 has the wrong phase, simple 3 is off every power
    ([1.0, 0.5], r"^simple 2: exponent grade 2 vs character grade 0$"),
])
def test_grading_cross_check_names_the_first_failing_member(values, message):
    # in pointed_zn(4), mu = (1, i, -1, -i) is the character taking i * FPdim on g1
    ring, fp, table = ring_of("pointed_zn(4)"), fp_of("pointed_zn(4)"), table_of("pointed_zn(4)")
    fake = table.characters.copy()
    mu = int(np.argmin(np.abs(fake[:, 1] - 1j)))
    assert np.abs(fake[mu] - [1, 1j, -1, -1j]).max() < 1e-12
    fake[mu, 2:] = values
    doctored = CharacterTable(characters=fake, codegrees=table.codegrees.copy())
    with pytest.raises(MethodDisagreement, match=message):
        universal_grading(ring, ring.index_of("g1"), fp, doctored)


@pytest.mark.parametrize("name, core, calls_at_the_parent", [
    ("vec_s3", "fp_character", 6), ("pointed_zn(12)", "character_table", 12)])
def test_grading_without_fp_or_table_computes_the_ambient_data_once(monkeypatch, name, core,
                                                                    calls_at_the_parent):
    # FP dims of every C(e_i) come from the ring; on a commutative ring so does its table
    from conftest import count_calls
    from fusionring import grading, spectral

    ring = ring_of(name)
    calls = count_calls(monkeypatch, getattr(spectral, core))
    gradings = grading.grade_simples(ring, range(ring.rank))
    assert len(calls) == 1 < calls_at_the_parent
    assert calls[0][0] is ring
    assert all(g.character_checked for g in gradings)


def test_grade_simples_profiles_a_fresh_ring_in_one_batch(monkeypatch):
    from conftest import count_calls
    from fusionring import catalog, subcat
    from fusionring.grading import grade_simples
    from fusionring.kernel import characters_at_fpdim, check_brauer

    ring = catalog._pointed_zn(24)  # fresh: nothing of it is profiled yet
    r = ring.rank
    fp, table = fp_character(ring), character_table(ring)
    builds = count_calls(monkeypatch, subcat._build_profiles)
    grade_simples(ring, range(r), fp, table)
    assert [batch for _, batch in builds] == [[frozenset({i}) for i in range(r)]]
    builds.clear()
    kernels = characters_at_fpdim(fp, table, np.eye(r))
    check_brauer(ring, range(r), [k == {table.fp_index} for k in kernels])
    assert builds == []
