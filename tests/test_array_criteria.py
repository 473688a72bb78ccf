"""The structural tests as exact array criteria, against the per-simple walks they replace.

Each reference below is the loop the library used before it was stated as one
array criterion; the two must agree everywhere, witnesses included.
"""

import random

import numpy as np
import pytest

from conftest import ALL_NAMES, ring_of
from fusionring import FusionRing, is_indecomposable_matrix, validate
from fusionring.errors import AmbiguousDual, NoDual
from fusionring.ring import dual_from_structure
from fusionring.subcat import closure_defect


def dfs_indecomposable(A):
    """Reference: every node reached from node 0 forwards and backwards, by an explicit stack."""
    A = np.asarray(A)
    n = A.shape[0]
    for M in (A, A.T):
        seen = {0}
        stack = [0]
        while stack:
            for v in np.nonzero(M[:, stack.pop()])[0].tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            return False
    return True


def loop_closure_defect(ring, members):
    """Reference: the unit, then each member's dual, then each product constituent, in sorted order."""
    S = sorted(set(int(m) for m in members))
    if ring.unit not in S:
        return ("unit", (ring.unit,))
    for i in S:
        if ring.dual[i] not in S:
            return ("dual", (i,))
    for i in S:
        for j in S:
            for k in np.nonzero(ring.N[i, j])[0]:
                if int(k) not in S:
                    return ("product", (i, j, int(k)))
    return None


def row_dual(N, unit):
    """Reference: the unique j with N[i][j][unit] = 1, row by row."""
    dual = []
    for i in range(N.shape[0]):
        col = N[i, :, unit]
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            raise NoDual(i)
        if hits.size > 1 or col[hits[0]] != 1:
            raise AmbiguousDual(i)
        dual.append(int(hits[0]))
    return tuple(dual)


def dual_outcome(recover, N, unit):
    try:
        return recover(N, unit)
    except (NoDual, AmbiguousDual) as exc:
        return type(exc), exc.index


def list_involution(ring):
    """Reference: the involution witness of validate, from Python lists; None if dual is one."""
    r, u = ring.rank, ring.unit
    if sorted(ring.dual) != list(range(r)):
        counts = np.bincount(np.asarray(ring.dual), minlength=r)
        return (int(np.argmax(counts != 1)),)
    if ring.dual[u] != u:
        return (u,)
    bad = [i for i in range(r) if ring.dual[ring.dual[i]] != i]
    return (bad[0],) if bad else None


def directed_cycle(n):
    return np.roll(np.eye(n, dtype=np.int64), 1, axis=0)


def random_pattern(rng, n):
    density = rng.choice([0.02, 0.05, 0.1, 0.2, 0.5])
    return (rng.random((n, n)) < density).astype(np.int64)


def permuted_block_triangular(rng, n):
    """A decomposable pattern: dense diagonal blocks, no edges back to earlier blocks, relabelled."""
    cuts = sorted(rng.choice(np.arange(1, n), size=rng.integers(1, min(n - 1, 4) + 1),
                             replace=False).tolist())
    A = np.zeros((n, n), dtype=np.int64)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        A[lo:hi, lo:hi] = rng.random((hi - lo, hi - lo)) < 0.7
        A[lo:hi, hi:] = rng.random((hi - lo, n - hi)) < 0.3
    perm = rng.permutation(n)
    return A[np.ix_(perm, perm)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_indecomposable_matches_the_dfs_on_fusion_and_object_matrices(name):
    ring = ring_of(name)
    rng = np.random.default_rng(ring.rank)
    matrices = [ring.fusion_matrix(i) for i in range(ring.rank)]
    for _ in range(4):
        x = rng.integers(0, 3, size=ring.rank) * (rng.random(ring.rank) < 0.3)
        matrices.append(sum((int(c) * ring.fusion_matrix(g) for g, c in enumerate(x)),
                            np.zeros((ring.rank, ring.rank), dtype=np.int64)))
    for A in matrices:
        assert is_indecomposable_matrix(A) == dfs_indecomposable(A), (name, A.tolist())


def test_indecomposable_matches_the_dfs_on_random_patterns():
    rng = np.random.default_rng(2015)
    seen = set()
    for n in range(1, 41):
        for _ in range(6):
            A = random_pattern(rng, n)
            assert is_indecomposable_matrix(A) == dfs_indecomposable(A), A.tolist()
            seen.add(dfs_indecomposable(A))
        if n > 1:
            A = permuted_block_triangular(rng, n)
            assert not dfs_indecomposable(A)
            assert not is_indecomposable_matrix(A), A.tolist()
    assert seen == {True, False}


@pytest.mark.parametrize("n", sorted({m for k in range(7) for m in (2**k + 1, 2**k + 2)}))
def test_indecomposable_on_directed_cycles_needs_every_squaring(n):
    # a cycle of n nodes has a pair at distance n - 1; cut anywhere, it is a path
    cycle = directed_cycle(n)
    assert is_indecomposable_matrix(cycle) and is_indecomposable_matrix(cycle.T)
    path = cycle.copy()
    path[0, n - 1] = 0
    assert not is_indecomposable_matrix(path)
    assert not dfs_indecomposable(path)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_closure_defect_matches_the_triple_loop(name):
    ring = ring_of(name)
    rng = random.Random(name)
    subsets = [range(ring.rank), [ring.unit]]
    for _ in range(12):
        subsets.append(rng.sample(range(ring.rank), rng.randint(1, ring.rank)))
        if ring.rank > 1:  # the unit plus a few others, where the dual and product checks matter
            subsets.append([ring.unit] + rng.sample(range(1, ring.rank),
                                                    rng.randint(1, min(3, ring.rank - 1))))
    for members in subsets:
        assert closure_defect(ring, members) == loop_closure_defect(ring, members), \
            (name, sorted(members))
        # order and repeats of the members do not matter
        shuffled = list(members) * 2
        rng.shuffle(shuffled)
        assert closure_defect(ring, shuffled) == loop_closure_defect(ring, members)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_from_structure_matches_the_row_loop(name):
    ring = ring_of(name)
    r, u = ring.rank, ring.unit
    rng = np.random.default_rng(r)
    assert dual_from_structure(ring.N, u) == row_dual(ring.N, u) == ring.dual
    for _ in range(10):
        N = np.array(ring.N)
        rows = rng.choice(r, size=rng.integers(1, min(r, 3) + 1), replace=False)
        for i in rows:
            N[i, rng.integers(r), u] = rng.choice([0, 1, 2])
            if rng.random() < 0.3:
                N[i, :, u] = 0
        assert dual_outcome(dual_from_structure, N, u) == dual_outcome(row_dual, N, u)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_validate_involution_matches_the_list_code(name):
    ring = ring_of(name)
    r = ring.rank
    rng = random.Random(name)
    duals = [ring.dual]
    for _ in range(8):
        perm = list(ring.dual)
        rng.shuffle(perm)
        duals.append(tuple(perm))
        duals.append(tuple(rng.randrange(r) for _ in range(r)))
    for dual in duals:
        shuffled = FusionRing(labels=ring.labels, N=ring.N, dual=dual, unit=ring.unit)
        found = [w for axiom, w in validate(shuffled).violations if axiom == "involution"]
        expected = list_involution(shuffled)
        assert found == ([] if expected is None else [expected]), (name, dual)


def test_closure_defect_sees_even_multiplicities():
    # K(1, 2) x Z_2, simples 1, g, x, xg with x * x = 1 + 2x: (xg) * (xg) leaves {1, xg}
    # only through the multiplicity 2 of x, which no catalog ring has
    K = np.zeros((2, 2, 2), dtype=np.int64)
    K[0] = K[:, 0] = np.eye(2, dtype=np.int64)
    K[1, 1] = [1, 2]
    Z2 = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=np.int64)
    N = np.einsum("ace,bdf->abcdef", K, Z2).reshape(4, 4, 4)
    ring = FusionRing(labels=("1", "g", "x", "xg"), N=N, dual=(0, 1, 2, 3))
    assert validate(ring).valid
    assert closure_defect(ring, [0, 3]) == loop_closure_defect(ring, [0, 3]) == ("product", (3, 3, 2))
