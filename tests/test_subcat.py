"""Generated subcategories, restriction, faithfulness, indecomposability."""

import random

import numpy as np
import pytest

from conftest import ALL_NAMES, ring_of
from fusionring import (
    Subcategory,
    generated_subcategory,
    is_faithful,
    is_indecomposable_matrix,
    restrict,
    validate,
)
from fusionring.errors import NotClosed
from fusionring.ring import closure_defect
from fusionring.subcat import _build_profiles, object_profile, profiles
from test_array_criteria import near_group


def test_generated_subcategory_examples():
    ising = ring_of("ising")
    assert generated_subcategory(ising, [2]).members == (0, 1, 2)
    assert generated_subcategory(ising, [1]).members == (0, 1)
    assert generated_subcategory(ising, []).members == (0,)


def test_generated_subcategory_group_ring():
    z12 = ring_of("pointed_zn(12)")
    assert generated_subcategory(z12, [4]).members == (0, 4, 8)
    assert generated_subcategory(z12, [5]).members == tuple(range(12))


def test_generated_subcategory_monotone_idempotent():
    ring = ring_of("su2_k(4)")
    for i in range(ring.rank):
        single = generated_subcategory(ring, [i])
        again = generated_subcategory(ring, single.members)
        assert again.members == single.members
        for j in range(ring.rank):
            bigger = generated_subcategory(ring, [i, j])
            assert set(single.members) <= set(bigger.members)


def test_is_faithful_examples():
    ising = ring_of("ising")
    assert is_faithful(ising, 2)
    assert not is_faithful(ising, 1)
    assert is_faithful(ring_of("trivial"), 0)
    assert not is_faithful(ising, 0)


def test_indecomposable_examples():
    ising = ring_of("ising")
    assert is_indecomposable_matrix(ising.fusion_matrix(2))
    # partition M = {sigma}, N = {1, psi} witnesses decomposability of a(psi)
    assert not is_indecomposable_matrix(ising.fusion_matrix(1))
    assert not is_indecomposable_matrix(np.eye(2, dtype=int))
    assert is_indecomposable_matrix(np.eye(1, dtype=int))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_faithful_iff_indecomposable(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        assert is_faithful(ring, i) == is_indecomposable_matrix(ring.fusion_matrix(i))


def test_restrict_examples():
    ising = ring_of("ising")
    z2 = restrict(ising, Subcategory(members=(0, 1)))
    assert z2.rank == 2 and z2.labels == ("1", "psi")
    assert z2.N[1, 1, 0] == 1 and z2.N[1, 1, 1] == 0
    s3 = ring_of("rep_s3")
    z2b = restrict(s3, Subcategory(members=(0, 1)))
    assert np.array_equal(z2b.N, z2.N)
    full = restrict(ising, Subcategory(members=(0, 1, 2)))
    assert np.array_equal(full.N, ising.N) and full.labels == ising.labels


def test_restrict_not_closed():
    ising = ring_of("ising")
    with pytest.raises(NotClosed):
        restrict(ising, Subcategory(members=(0, 2)))  # sigma*sigma leaves {1, sigma}
    with pytest.raises(NotClosed):
        restrict(ising, Subcategory(members=(1,)))  # misses the unit


@pytest.mark.parametrize("name", ALL_NAMES)
def test_restrict_generated_is_valid_and_faithful(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        sub = generated_subcategory(ring, [i])
        small = restrict(ring, sub)
        assert validate(small).valid
        order = [ring.unit] + [m for m in sub.members if m != ring.unit]
        assert is_faithful(small, order.index(i))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_object_profile_matches_exact_powers(name):
    # x = sum of a seeded support of 0-4 simples; the reference is the exact powers of x
    ring = ring_of(name)
    r = ring.rank
    rng = random.Random(name)
    for _ in range(6):
        support = rng.sample(range(r), rng.randint(0, min(4, r)))
        x = np.zeros(r, dtype=np.int64)
        x[support] = 1
        powers = [ring.basis_vector(ring.unit)]
        for _ in range(2 * r):
            powers.append(ring.multiply(x, powers[-1]))
        level = tuple(next((n for n, p in enumerate(powers) if p[k] > 0), -1) for k in range(r))
        profile = object_profile(ring, *support)
        assert profile.level == level, (name, support)
        assert profile.order == next((n for n in range(1, 2 * r + 1) if powers[n][ring.unit] > 0), 0)
        assert profile.members == tuple(k for k in range(r) if level[k] >= 0)
        assert generated_subcategory(ring, support).members == profile.members
        assert closure_defect(ring, profile.members) is None, (name, support)


@pytest.mark.parametrize("name", ALL_NAMES + ["near_group(Z2, 2)", "near_group(Z2, 3)"])
def test_a_batch_of_profiles_equals_one_build_per_support(name):
    ring = near_group(int(name[-2])) if name.startswith("near_group") else ring_of(name)
    r = ring.rank
    rng = random.Random(name)
    singletons = [frozenset({i}) for i in range(r)]
    seeded = [frozenset(rng.sample(range(r), rng.randint(0, min(4, r)))) for _ in range(8)]
    for batch in (singletons, seeded, singletons[::-1] + seeded):
        assert _build_profiles(ring, batch) == [_build_profiles(ring, [s])[0] for s in batch], batch
    profiles(ring, ([i] for i in range(ring.rank)))
    assert [object_profile(ring, i) for i in range(r)] == _build_profiles(ring, singletons)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_restrict_is_relabel_onto_the_restriction_order(name):
    from fusionring.ring import relabel
    from fusionring.subcat import restriction_order

    ring = ring_of(name)
    for i in range(ring.rank):
        sub = generated_subcategory(ring, [i])
        small, moved = restrict(ring, sub), relabel(ring, restriction_order(ring, sub))
        assert np.array_equal(small.N, moved.N)
        assert (small.labels, small.dual, small.unit, small.name) == (
            moved.labels, moved.dual, moved.unit, moved.name), (name, i)


def test_profiles_build_each_missing_support_once_in_one_batch(monkeypatch):
    from conftest import count_calls
    from fusionring import catalog, subcat

    ring = catalog._tambara_yamagami_zn(3)  # fresh: nothing of it is profiled yet
    builds = count_calls(monkeypatch, subcat._build_profiles)
    found = subcat.profiles(ring, [[1], [0, 1], [1], (1, 0), []])
    assert [batch for _, batch in builds] == [[frozenset({1}), frozenset({0, 1}), frozenset()]]
    assert found[0] is found[2] and found[1] is found[3]
    assert found == _build_profiles(ring, [frozenset(s) for s in ([1], [0, 1], [1], [0, 1], [])])
    builds.clear()
    assert subcat.profiles(ring, [[0, 1], [1]]) == [found[1], found[0]] and builds == []


def test_profiles_name_the_first_support_out_of_range():
    from fusionring import catalog, subcat

    ring = catalog._ising()
    # the message object_profile raised for each support alone
    with pytest.raises(IndexError, match=r"^simple indices \[-1, 2\] out of range for rank 3$"):
        subcat.profiles(ring, [[0], [2, -1], [5]])
    with pytest.raises(IndexError, match=r"^simple indices \[3\] out of range for rank 3$"):
        object_profile(ring, 3)
