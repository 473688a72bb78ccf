"""Array criteria and batched per-simple steps, against the loops they replace.

Each reference below is the loop the library used before it was stated as one
array criterion, or before a per-simple function became a batch: structural
tests, catalog rules, the powers of each simple, gradings, kernels, centers and
the Brauer check. The two must agree everywhere, witnesses and errors included.
"""

import operator
import random
import re

import numpy as np
import pytest

from conftest import (
    ALL_NAMES, MODULAR_NAMES, count_calls, entry, fp_of, ring_of, table_of, wrap_ring)
from fusionring import (
    BrauerReport,
    FusionRing,
    GradingData,
    Subcategory,
    center_of_class,
    character_table,
    fp_character,
    is_commutative,
    is_faithful,
    is_indecomposable_matrix,
    kernel_of_class,
    restrict,
    universal_grading,
    validate,
    verify_brauer,
)
from fusionring import ring as ring_module
from fusionring.analysis import _certify_profiles
from fusionring.catalog import (
    _group_ring, _pointed_zn, _pointed_zn_smatrix, _su2_k, _su2_k_smatrix, _zn_table)
from fusionring.errors import (
    AmbiguousDual, CapExceeded, ClosureViolation, FusionRingError, InternalInconsistency,
    MethodDisagreement, NoDual)
from fusionring.grading import grade_simples, object_index
from fusionring.kernel import characters_at_fpdim, check_brauer
from fusionring.modular import centralizers, modular_data, projective_centralizers
from fusionring.ring import (
    _float64_exact, _max_abs, closed_rows, closure_defect, dual_from_structure, relabel)
from fusionring.spectral import (
    AGGREGATE_EPS, DEFAULT_EPS, DEFAULT_SEED, CharacterTable, within_eps)
from fusionring.subcat import object_profile, restriction_order
from test_analysis import power_failures
from test_ring import rounding_ring


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


def test_indecomposable_matches_the_dfs_on_every_pattern_of_four_nodes():
    # every digraph on 4 nodes, so also those where a squaring adds only an entry or two
    # and leaves a pair unreached (all edges but 0->2, 1->3, 0->3), which no early stop may end
    off_diagonal = ~np.eye(4, dtype=bool)
    for bits in range(2**12):
        A = np.zeros((4, 4), dtype=np.int64)
        A[off_diagonal] = [(bits >> b) & 1 for b in range(12)]
        assert is_indecomposable_matrix(A) == dfs_indecomposable(A), A.tolist()


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
def test_stacked_indecomposable_matches_the_loop_on_fusion_matrices(name):
    ring = ring_of(name)
    stacked = is_indecomposable_matrix(ring.N.transpose(0, 2, 1))
    assert stacked.dtype == bool and stacked.shape == (ring.rank,)
    singles = [is_indecomposable_matrix(ring.fusion_matrix(i)) for i in range(ring.rank)]
    assert all(type(x) is bool for x in singles)
    assert stacked.tolist() == singles == [dfs_indecomposable(ring.fusion_matrix(i))
                                           for i in range(ring.rank)], name


@pytest.mark.parametrize("rows", [1, 3, None])  # matrices per block; None: the default blocks
def test_stacked_indecomposable_matches_the_loop_on_random_patterns(monkeypatch, rows):
    # one stack mixes patterns that stop after different numbers of squarings
    rng = np.random.default_rng(1503)
    for n in range(1, 14):
        if rows is not None:
            monkeypatch.setattr(ring_module, "_BLOCK", rows * n * n)
        stack = [random_pattern(rng, n) for _ in range(9)] + [directed_cycle(n)]
        if n > 1:
            stack += [permuted_block_triangular(rng, n) for _ in range(2)]
        else:
            stack += [np.zeros((1, 1), dtype=np.int64)] * 2
        expected = [dfs_indecomposable(A) for A in stack]
        assert is_indecomposable_matrix(np.array(stack)).tolist() == expected, n
        assert is_indecomposable_matrix(np.reshape(stack, (2, 6, n, n))).tolist() == \
            np.reshape(expected, (2, 6)).tolist(), n
        assert is_indecomposable_matrix(np.zeros((0, n, n))).shape == (0,)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2), (2, 2, 3, 1), ()])
def test_stacked_indecomposable_refuses_non_square_matrices(shape):
    with pytest.raises(ValueError):
        is_indecomposable_matrix(np.ones(shape))


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
    # closed_rows decides every subset at once, whatever the blocks
    member = np.zeros((len(subsets), ring.rank), dtype=bool)
    for row, members in zip(member, subsets):
        row[list(members)] = True
    want = [loop_closure_defect(ring, members) is None for members in subsets]
    assert closed_rows(ring, member).tolist() == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "_BLOCK", ring.rank**2)  # one simple b per block
        assert closed_rows(ring, member).tolist() == want


def test_closed_rows_refuses_sets_closed_under_products_only():
    # on a ring never validated, x * x = x for a, its dual b and the self-dual c: {c} and
    # {1, a} hold every constituent of their products, but not the unit and the dual
    N = np.zeros((4, 4, 4), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(4, dtype=np.int64)
    N[1, 1, 1] = N[2, 2, 2] = N[3, 3, 3] = 1
    ring = FusionRing(labels=("1", "a", "b", "c"), N=N, dual=(0, 2, 1, 3))
    member = np.array([[0, 0, 0, 1], [1, 1, 0, 0], [1, 0, 0, 1]], dtype=bool)
    assert [loop_closure_defect(ring, np.flatnonzero(row)) for row in member] == [
        ("unit", (0,)), ("dual", (1,)), None]
    assert closed_rows(ring, member).tolist() == [False, False, True]


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


def every_simple_witness(N, unit, edges=None):
    """Reference: the two GEMMs and np.array_equal for every simple in turn, not only generators.
    The pattern edges, which only orders the generator checks, is not read."""
    r = len(N)
    bound = _max_abs(N)
    M = N.astype(np.float64 if _float64_exact(bound, bound, r) else object)
    lhs, rhs = np.empty((2, r, r, r), dtype=M.dtype)
    for i in range(r):
        np.matmul(M[i], M.reshape(r, r * r), out=lhs.reshape(r, r * r))
        np.matmul(M.reshape(r * r, r), M[i], out=rhs.reshape(r * r, r))
        if not np.array_equal(lhs, rhs):
            return (i, *np.argwhere(lhs != rhs)[0].tolist())
    return None


def assert_validate_matches_every_simple(ring, why=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "_associativity_witness", every_simple_witness)
        want = validate(ring)
    assert validate(ring) == want, why


def with_N(ring, N):
    return FusionRing(labels=ring.labels, N=N, dual=ring.dual, unit=ring.unit)


def perturbed(ring, rng, low):
    """ring with one to three structure constants N[i][j][k] changed, all of i, j, k >= low.

    With the unit at 0, low = 1 keeps the unit law and low = 2 also the products of e_1.
    """
    N = np.array(ring.N)
    low = min(low, ring.rank - 1)
    for _ in range(rng.integers(1, 4)):
        N[tuple(rng.integers(low, ring.rank, 3))] = rng.choice([0, 1, 2, 3, 2**40])
    return with_N(ring, N)


def unit_fixing_permutation(ring, rng):
    r, u = ring.rank, ring.unit
    perm = np.concatenate([[u], rng.permutation(np.delete(np.arange(r), u))])
    inv = np.argsort(perm)
    return FusionRing(labels=[ring.labels[p] for p in perm], N=ring.N[np.ix_(perm, perm, perm)],
                      dual=inv[np.asarray(ring.dual)[perm]], unit=0, name=ring.name)


def near_group(m):
    """K(Z_2, m): simples 1, a, X with a * a = 1, a * X = X and X * X = 1 + a + m X."""
    return _group_ring(("1", "a", "X"), _zn_table(2), f"near_group(Z2, {m})", k=m)


def deligne_product(R, S):
    N = np.einsum("ace,bdf->abcdef", R.N, S.N).reshape((R.rank * S.rank,) * 3)
    labels = [f"{a}.{b}" for a in R.labels for b in S.labels]
    dual = [R.dual[a] * S.rank + S.dual[b] for a in range(R.rank) for b in range(S.rank)]
    return FusionRing(labels=labels, N=N, dual=dual, name=f"{R.name} x {S.name}")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_validate_matches_every_simple_on_perturbed_catalog_rings(name):
    ring = ring_of(name)
    rng = np.random.default_rng(ALL_NAMES.index(name))
    assert_validate_matches_every_simple(ring)
    for k in range(24):
        assert_validate_matches_every_simple(perturbed(ring, rng, low=k % 3), k)


@pytest.mark.parametrize("make, n", [(_su2_k, 40), (_pointed_zn, 48), (_pointed_zn, 64)])
def test_validate_matches_every_simple_on_permuted_ladder_rings(make, n):
    ring = make(n)
    rng = np.random.default_rng(n)
    for k in range(3):
        permuted = unit_fixing_permutation(ring, rng)
        assert_validate_matches_every_simple(permuted, k)
        assert_validate_matches_every_simple(perturbed(permuted, rng, low=1), k)


@pytest.mark.parametrize("name", ["rep_q8", "tambara_yamagami_zn(12)", "su2_k(10)",
                                  "pointed_zn(24)"])
def test_validate_and_closed_rows_agree_over_split_gemms(monkeypatch, name):
    # a size that fits 8 rows of r * r multiply-adds splits every product of validate and
    # closed_rows at catalog ranks into calls of uneven heights, in every dtype of validate
    ring = ring_of(name)
    rng = np.random.default_rng(ALL_NAMES.index(name))
    rings = [ring] + [perturbed(ring, rng, low=k % 3) for k in range(12)]
    member = rng.random((16, ring.rank)) < 0.3
    member[::2, ring.unit] = True
    member |= member[:, list(ring.dual)]
    reports = [validate(x) for x in rings]
    closed = closed_rows(ring, member)
    monkeypatch.setattr(ring_module, "_GEMM_MADDS", 8 * ring.rank**2 + 1)
    assert [validate(x) for x in rings] == reports
    assert closed_rows(ring, member).tolist() == closed.tolist()


def test_validate_matches_every_simple_on_near_group_rings():
    rng = np.random.default_rng(2)
    rings = [near_group(m) for m in (2, 3)]
    rings += [deligne_product(near_group(m), ring_of(f"pointed_zn({n})"))
              for m, n in ((2, 3), (3, 4))]
    rings += [deligne_product(ring_of("pointed_zn(2)"), near_group(3))]
    for ring in rings:
        assert ring.N.max() >= 2 and validate(ring).valid
        assert_validate_matches_every_simple(ring)
        for k in range(30):
            assert_validate_matches_every_simple(perturbed(ring, rng, low=k % 2), ring.name)


def test_validate_matches_every_simple_past_2_53():
    for ring in (wrap_ring(), rounding_ring()):
        assert validate(ring).violations[0][0] == "associativity"
        assert_validate_matches_every_simple(ring)


@pytest.mark.parametrize("m, dtype", [(2364, np.float32), (2365, np.float64)])
def test_validate_takes_float32_only_below_2_24(monkeypatch, m, dtype):
    # K(Z2, m) has rank 3 and max|N| = m, so max|N|^2 * 3 is just below 2**24 at m = 2364
    # and just above it at 2365; X * a = 2 X then breaks ((X a) X) = X (a X)
    checks = count_calls(monkeypatch, ring_module._associative_on)
    ring = near_group(m)
    assert validate(ring).valid
    N = np.array(ring.N)
    N[2, 1, 2] += 1
    want = every_simple_witness(N, ring.unit)
    checks.clear()
    assert validate(with_N(ring, N)).violations[0] == ("associativity", want)
    assert checks and {c[1] for c in checks} == {dtype}


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if ring_of(n).dual != tuple(range(ring_of(n).rank))
                                  and n != "vec_s3"])
def test_validate_matches_every_simple_on_rings_twisted_by_duality(name):
    # e_u * e_v = e_{u*} e_v: duality is an automorphism of a commutative ring, so self-dual
    # simples and every e_u + e_{u*} stay associative, while a non-self-dual e_u does not.
    # Self-dual simples first: in tambara_yamagami_zn(n >= 3), m * m = sum of the a_i is
    # associative, but a_1 alone is not.
    ring = ring_of(name)
    r = ring.rank
    dual = np.asarray(ring.dual)
    order = np.argsort(dual != np.arange(r), kind="stable")
    twisted = FusionRing(labels=[ring.labels[p] for p in order],
                         N=ring.N[dual][np.ix_(order, order, order)],
                         dual=np.argsort(order)[dual[order]], unit=0)
    assert not validate(twisted).valid
    assert_validate_matches_every_simple(twisted)


@pytest.mark.parametrize("name", ["pointed_zn(12)", "su2_k(8)", "tambara_yamagami_zn(6)",
                                  "rep_q8", "vec_s3"])
def test_validate_matches_every_simple_when_the_unit_law_fails(name):
    # a broken unit is not associative for free; breaking only its right law keeps it so
    ring = ring_of(name)
    r, u = ring.rank, ring.unit
    rng = np.random.default_rng(r)
    for k in range(20):
        N = np.array(ring.N)
        j, l = rng.integers(0, r, 2)
        N[(u, j, l) if k % 2 else (j, u, l)] += rng.integers(1, 3)
        broken = with_N(ring, N)
        assert validate(broken).violations[0][0] == "unit"
        assert_validate_matches_every_simple(broken, k)


def test_validate_checks_few_simples_explicitly(monkeypatch):
    checks = count_calls(monkeypatch, ring_module._associative_on)
    for name in ALL_NAMES:
        checks.clear()
        assert validate(ring_of(name)).valid
        assert 1 <= len(checks) <= 3 or ring_of(name).rank == 1, (name, len(checks))
    checks.clear()
    assert validate(ring_of("pointed_zn(24)")).valid
    assert len(checks) == 1


def loop_group_ring(labels, mult, k=None):
    """Reference: the group table e_i * e_j = e_mult(i, j) entry by entry; given k, the
    near-group simple m (the last label) with g * m = m * g = m and m * m = sum of G + k m."""
    r = len(labels)
    n = r if k is None else r - 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, mult(i, j)] = 1
    if k is not None:
        for g in range(n):
            N[g, n, n] = N[n, g, n] = N[n, n, g] = 1
        N[n, n, n] = k
    return N


def loop_su2_k(k):
    """Reference: l in i (x) j iff |i-j| <= l <= min(i+j, 2k-i-j), stepping l by 2."""
    r = k + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                N[i, j, l] = 1
    return N


S3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def s3_product(i, j):
    return S3.index(tuple(S3[i][S3[j][x]] for x in range(3)))


def zn(n):
    return lambda i, j: (i + j) % n


def loop_catalog_ring(family, n):
    """Reference (labels, N) of a catalog family at parameter n (ignored by plain entries)."""
    if family == "su2_k":
        return tuple(str(i) for i in range(n + 1)), loop_su2_k(n)
    labels, mult, k = {
        "trivial": (["1"], zn(1), None),
        "fibonacci": (["1", "tau"], zn(1), 1),
        "ising": (["1", "psi", "sigma"], zn(2), 0),
        "rep_s3": (["1", "eps", "V"], zn(2), 1),
        "rep_q8": (["1", "a", "b", "ab", "V"], operator.xor, 0),
        "vec_s3": (["e", "r", "rr", "s", "rs", "rrs"], s3_product, None),
        "pointed_zn": (["1"] + [f"g{a}" for a in range(1, n)], zn(n), None),
        "tambara_yamagami_zn": ([f"a{i}" for i in range(n)] + ["m"], zn(n), 0),
    }[family]
    return tuple(labels), loop_group_ring(labels, mult, k)


@pytest.mark.parametrize("name", ALL_NAMES + ["pointed_zn(48)", "su2_k(40)"])
def test_catalog_rules_match_the_loops(name):
    family, _, arg = name.rstrip(")").partition("(")
    n = int(arg or 1)
    ladder = {"pointed_zn": _pointed_zn, "su2_k": _su2_k}
    ring = ring_of(name) if name in ALL_NAMES else ladder[family](n)
    labels, N = loop_catalog_ring(family, n)
    assert ring.labels == labels and ring.name == name
    assert ring.N.dtype == np.int64 and np.array_equal(ring.N, N)
    assert ring.dual == row_dual(N, 0)


@pytest.mark.parametrize("k", range(4))
def test_near_group_rule_matches_the_loop(k):
    # K(Z2, k), which reaches multiplicities above 1 from k = 2 on
    assert np.array_equal(near_group(k).N, loop_group_ring(["1", "a", "X"], operator.xor, k))


def loop_powers(ring, ind):
    """Reference: the support sweep of one simple at a time, one boolean product per exponent.

    Returns the first residue clash mod ind, the first return of the unit per simple, and
    the first exponents first[i, k] of e_k in the powers of e_i (-1 if none)."""
    edges, start = ring.N > 0, np.arange(ring.rank) == ring.unit
    clash, returns = None, np.zeros(ring.rank, dtype=np.int64)
    firsts = np.full((ring.rank, ring.rank), -1)
    for i, p in enumerate(ind):
        supports, first = [start], firsts[i]
        first[start] = 0
        for n in range(1, 3 * ring.rank * p + 1):
            supp = supports[-1] @ edges[i]  # boolean: some j in the support has an edge j -> k
            supports.append(supp)
            first[supp & (first < 0)] = n
            if returns[i] == 0 and supp[ring.unit]:
                returns[i] = n
            bad = np.flatnonzero(supp & ((n - first) % p != 0))
            if bad.size and (clash is None or n < clash[3]):
                clash = (i, int(bad[0]), int(first[bad[0]]), n)
            if n >= p and np.array_equal(supp, supports[n - p]):
                break
    return clash, returns, firsts


@pytest.mark.parametrize("name", ALL_NAMES + ["near_group(Z2, 2)", "near_group(Z2, 3)"])
def test_certified_profiles_match_the_loop(name):
    # the levels are the loop's first exponents; of the trial indices (ind, 2 ind, 2 ind with
    # the unit's kept, and one index + 1 for each simple in turn), the checks must reject
    # exactly those under which the loop finds exponents of a simple in two residue classes
    ring = near_group(int(name[-2])) if name.startswith("near_group") else ring_of(name)
    ind = [object_index(ring, i) for i in range(ring.rank)]
    broken, _, returns = _certify_profiles(ring)
    _, want_returns, first = loop_powers(ring, ind)
    assert not broken.any()
    assert np.array_equal([object_profile(ring, i).level for i in range(ring.rank)], first)
    assert np.array_equal(returns, want_returns)
    trials = [ind, [2 * p for p in ind]]
    trials += [[p if i == ring.unit else 2 * p for i, p in enumerate(ind)]]
    trials += [ind[:j] + [ind[j] + 1] + ind[j + 1:] for j in range(ring.rank)]
    for trial in trials:
        clash = loop_powers(ring, trial)[0]
        failed = power_failures(ring, trial)
        assert (clash is None) == (trial == ind) == (failed == {}), trial
        assert (clash is None) != ("power_residue_classes" in failed), trial


def loop_universal_grading(ring, i, fp=None, table=None, eps=DEFAULT_EPS, seed=DEFAULT_SEED):
    """Reference: the grading of one simple, its cross-check and its components generator."""
    profile = object_profile(ring, i)
    sub = Subcategory(members=profile.members)
    order_list = restriction_order(ring, sub)
    ind = profile.index
    grades = {k: profile.level[k] % ind for k in order_list}

    chars = None
    if fp is not None and table is not None:
        dims, chars = fp.dims[order_list], table.characters[:, order_list]
    else:
        small = restrict(ring, sub)
        if is_commutative(small):
            dims = fp_character(small).dims
            chars = character_table(small, eps=eps, seed=seed).characters

    if chars is not None:
        loc = order_list.index(i)
        xi = np.exp(2j * np.pi / ind)
        target = xi * dims[loc]
        hits = within_eps(chars[:, loc], target, AGGREGATE_EPS * max(1.0, abs(target)))
        if not hits:
            raise MethodDisagreement(
                f"no character takes the value xi*FPdim on the generator (ind={ind})")
        ratio = chars[hits[0]] / dims
        phase = np.rint(np.angle(ratio) / (2 * np.pi) * ind).astype(int) % ind
        off_power = ~np.isin(np.arange(len(order_list)),
                             within_eps(ratio, xi**phase, AGGREGATE_EPS))
        wrong = np.flatnonzero(off_power | (phase != [grades[k] for k in order_list]))
        if wrong.size:
            local, ambient = wrong[0], order_list[wrong[0]]
            raise MethodDisagreement(
                f"character value on simple {ambient} is not a power of xi" if off_power[local]
                else f"simple {ambient}: exponent grade {grades[ambient]} "
                     f"vs character grade {phase[local]}")

    components = tuple(
        tuple(sorted(k for k, g in grades.items() if g == a)) for a in range(ind))
    return GradingData(index=ind, order=profile.order, grades=grades,
                       components=components, character_checked=chars is not None)


def loop_kernel_of_class(ring, fp, table, x, eps=DEFAULT_EPS, modulus=False):
    """Reference: the kernel (or center) of one class, a matrix-vector product on its support."""
    s = (np.asarray(x) != 0).astype(np.int64)
    return frozenset(within_eps(table.characters @ s.astype(complex), float(fp.dims @ s), eps,
                                modulus=modulus))


def loop_verify_brauer(ring, fp, table, i, cap=None, eps=DEFAULT_EPS):
    """Reference: the tensor-power check of one simple against its kernel."""
    profile = object_profile(ring, i)
    if cap is None:
        cap = (len(profile.members) - 1) ** 2 + 1 + profile.index
    if cap < 1:
        raise ValueError("cap must be at least 1")
    kernel = loop_kernel_of_class(ring, fp, table, ring.basis_vector(i), eps=eps)
    faithful_expected = kernel == {table.fp_index}
    faithful_actual = is_faithful(ring, i)

    exponents = {k: n for k, n in enumerate(profile.level) if 0 <= n <= cap}
    all_found = len(exponents) == ring.rank

    if faithful_expected and not all_found:
        raise CapExceeded(
            f"kernel of simple {i} is trivial but powers up to {cap} missed "
            f"{ring.rank - len(exponents)} simples (closure says faithful={faithful_actual})")
    if faithful_expected != all_found or faithful_expected != faithful_actual:
        raise InternalInconsistency(
            f"simple {i}: kernel-trivial={faithful_expected}, covered={all_found}, "
            f"closure-faithful={faithful_actual}")
    return BrauerReport(faithful_expected=faithful_expected, exponents=exponents,
                        cap_used=cap, faithful_actual=faithful_actual)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except (FusionRingError, ValueError) as exc:
        return type(exc), str(exc)


def first_outcome(fn, ring):
    """The results of fn(i) for every simple i in turn, or the outcome of the first that raised."""
    results = [outcome(fn, i) for i in range(ring.rank)]
    return next((r for r in results if isinstance(r, tuple)), results)


BATCH_RINGS = ALL_NAMES + ["near_group(Z2, 2)", "near_group(Z2, 3)", "pointed_zn(48)", "su2_k(40)"]


def batch_ring(name):
    ladder = {"pointed_zn(48)": lambda: _pointed_zn(48), "su2_k(40)": lambda: _su2_k(40)}
    if name.startswith("near_group"):
        return near_group(int(name[-2]))
    return ladder[name]() if name in ladder else ring_of(name)


def spectral_of(ring):
    """(fp, table) of a ring; table is None when the ring is noncommutative."""
    return fp_character(ring), character_table(ring) if is_commutative(ring) else None


def caps_or_error(reports):
    """The caps of a list of Brauer reports, or the error a loop over them raised."""
    return reports if isinstance(reports, tuple) else [rep.cap_used for rep in reports]


def batch_kernels(ring, fp, table, eps=DEFAULT_EPS):
    """Kernels and centers of every simple, as analyze computes them."""
    return [characters_at_fpdim(fp, table, np.eye(ring.rank), eps, modulus)
            for modulus in (False, True)]


@pytest.mark.parametrize("name", BATCH_RINGS)
def test_batched_gradings_match_the_loop(name):
    ring = batch_ring(name)
    fp, table = spectral_of(ring)
    everything = range(ring.rank)
    want = [loop_universal_grading(ring, i, fp, table) for i in everything]
    assert grade_simples(ring, everything, fp, table) == want
    assert [universal_grading(ring, i, fp, table) for i in everything] == want
    # without the ambient table, each simple is checked against its restricted ring
    want = [loop_universal_grading(ring, i) for i in everything]
    assert grade_simples(ring, everything) == want
    assert [universal_grading(ring, i) for i in everything] == want


@pytest.mark.parametrize("name", [n for n in BATCH_RINGS if n != "vec_s3"])
def test_batched_kernels_centers_and_brauer_checks_match_the_loop(name):
    ring = batch_ring(name)
    fp, table = spectral_of(ring)
    basis = [ring.basis_vector(i) for i in range(ring.rank)]
    kernels, centers = batch_kernels(ring, fp, table)
    assert kernels == [loop_kernel_of_class(ring, fp, table, e) for e in basis]
    assert centers == [loop_kernel_of_class(ring, fp, table, e, modulus=True) for e in basis]
    assert kernels == [kernel_of_class(ring, fp, table, e) for e in basis]
    assert centers == [center_of_class(ring, fp, table, e) for e in basis]
    reports = [loop_verify_brauer(ring, fp, table, i) for i in range(ring.rank)]
    trivial = [k == {table.fp_index} for k in kernels]
    assert check_brauer(ring, range(ring.rank), trivial) == [rep.cap_used for rep in reports]
    assert [verify_brauer(ring, fp, table, i) for i in range(ring.rank)] == reports


def doctored_tables(ring, table, rng, count):
    """Copies of the table with one character value moved: rotated by a root of unity or scaled."""
    for _ in range(count):
        fake = table.characters.copy()
        t, k = rng.integers(len(fake)), rng.integers(ring.rank)
        fake[t, k] *= rng.choice([-1, 1j, -1j, np.exp(2j * np.pi / 3), 0.5, 2.0])
        yield CharacterTable(characters=fake, codegrees=table.codegrees.copy())


@pytest.mark.parametrize("name", [n for n in BATCH_RINGS if n != "vec_s3"])
def test_doctored_tables_fail_the_batches_as_they_fail_the_loops(name):
    # the batch names the first failing simple, with the loop's error and message
    ring = batch_ring(name)
    fp, table = spectral_of(ring)
    rng = np.random.default_rng(BATCH_RINGS.index(name))
    everything = range(ring.rank)
    for doctored in doctored_tables(ring, table, rng, 6):
        assert (outcome(grade_simples, ring, everything, fp, doctored)
                == first_outcome(lambda i: loop_universal_grading(ring, i, fp, doctored), ring))
        i = int(rng.integers(ring.rank))
        assert (outcome(universal_grading, ring, i, fp, doctored)
                == outcome(loop_universal_grading, ring, i, fp, doctored))
        kernels, _ = batch_kernels(ring, fp, doctored)
        assert (outcome(check_brauer, ring, everything, [k == {0} for k in kernels])
                == caps_or_error(first_outcome(lambda i: loop_verify_brauer(ring, fp, doctored, i),
                                               ring)))
        assert (outcome(verify_brauer, ring, fp, doctored, i)
                == outcome(loop_verify_brauer, ring, fp, doctored, i))


@pytest.mark.parametrize("values, message", [
    ([0.5, 1j], r"^character value on simple 2 is not a power of xi$"),
    ([1.0, 0.5], r"^simple 2: exponent grade 2 vs character grade 0$"),
])
def test_a_doctored_character_fails_the_batch_at_the_loops_member(values, message):
    # the doctored case of test_grading: mu = (1, i, -1, -i) on pointed_zn(4), moved on 2 and 3
    ring, fp, table = ring_of("pointed_zn(4)"), fp_of("pointed_zn(4)"), table_of("pointed_zn(4)")
    fake = table.characters.copy()
    fake[int(np.argmin(np.abs(fake[:, 1] - 1j))), 2:] = values
    doctored = CharacterTable(characters=fake, codegrees=table.codegrees.copy())
    want = first_outcome(lambda i: loop_universal_grading(ring, i, fp, doctored), ring)
    assert want[0] is MethodDisagreement and re.match(message, want[1])
    assert outcome(grade_simples, ring, range(4), fp, doctored) == want


@pytest.mark.parametrize("name", ["ising", "rep_q8", "pointed_zn(12)", "su2_k(8)",
                                  "tambara_yamagami_zn(4)", "near_group(Z2, 2)"])
def test_a_kernel_mask_that_disagrees_fails_the_batch_as_the_loop(name):
    # a character forced to FPdim on a faithful simple makes its kernel nontrivial; characters
    # moved off FPdim on a simple that is not faithful make its kernel trivial
    ring = batch_ring(name)
    fp, table = spectral_of(ring)
    for i in range(ring.rank):
        fake = table.characters.copy()
        if is_faithful(ring, i):
            fake[-1, i] = fp.dims[i]
        else:
            fake[1:, i] = np.where(np.abs(fake[1:, i] - fp.dims[i]) < 1e-6, -fp.dims[i],
                                   fake[1:, i])
        doctored = CharacterTable(characters=fake, codegrees=table.codegrees.copy())
        kernels, _ = batch_kernels(ring, fp, doctored)
        want = first_outcome(lambda i: loop_verify_brauer(ring, fp, doctored, i), ring)
        assert want[0] in (CapExceeded, InternalInconsistency), (name, i)
        assert outcome(check_brauer, ring, range(ring.rank), [k == {0} for k in kernels]) == want
        assert (outcome(verify_brauer, ring, fp, doctored, i)
                == outcome(loop_verify_brauer, ring, fp, doctored, i))


@pytest.mark.parametrize("name", [n for n in BATCH_RINGS if n != "vec_s3"])
def test_a_cap_of_one_fails_the_batch_as_the_loop(name):
    ring = batch_ring(name)
    fp, table = spectral_of(ring)
    kernels, _ = batch_kernels(ring, fp, table)
    trivial = [k == {table.fp_index} for k in kernels]
    assert (outcome(check_brauer, ring, range(ring.rank), trivial, cap=1)
            == caps_or_error(first_outcome(lambda i: loop_verify_brauer(ring, fp, table, i, cap=1),
                                           ring)))
    for i in range(ring.rank):
        assert (outcome(verify_brauer, ring, fp, table, i, cap=1)
                == outcome(loop_verify_brauer, ring, fp, table, i, cap=1))


def loop_centralizer(md, i, eps=DEFAULT_EPS):
    """Reference: within_eps of s_i against the unit row of S, then closure_defect."""
    s = md.characters
    members = within_eps(s[i], s[md.ring.unit].real, eps)
    defect = closure_defect(md.ring, members)
    if defect is not None:
        kind, witness = defect
        raise ClosureViolation(f"centralizer not closed under {kind} at {witness}")
    return Subcategory(members=tuple(members))


def loop_projective_centralizer(md, i, eps=DEFAULT_EPS):
    s = md.characters
    return frozenset(within_eps(s[i], s[md.ring.unit].real, eps, modulus=True))


RELABELED = {"su2_k(10)": (_su2_k, _su2_k_smatrix, 10),
             "pointed_zn(24)": (_pointed_zn, _pointed_zn_smatrix, 24),
             "pointed_zn(128)": (_pointed_zn, _pointed_zn_smatrix, 128)}


def centralizer_data(name):
    """Modular data of a builtin, or of a ring of RELABELED in a seeded order, the unit first."""
    if not name.endswith(" relabeled"):
        return entry(name).smatrix
    make, make_s, n = RELABELED[name.removesuffix(" relabeled")]
    ring = make(n)
    order = [0] + random.Random(n).sample(range(1, ring.rank), ring.rank - 1)
    return modular_data(relabel(ring, order), make_s(n)[np.ix_(order, order)])


@pytest.mark.parametrize("name", MODULAR_NAMES + [f"{n} relabeled" for n in RELABELED])
def test_batched_centralizers_match_the_loop(name):
    # the loose tolerances admit S-characters that are not closed: the batch must refuse
    # the first simple the loop refuses, in whatever order the simples come
    md = centralizer_data(name)
    r = md.ring.rank
    orders = [list(range(r)), random.Random(r).sample(range(r), r)]
    for eps in (DEFAULT_EPS, 1e-3, 0.1, 0.5, 0.9, 1.5, 2.5):
        for order in orders:
            want = first_outcome(lambda i: loop_centralizer(md, order[i], eps), md.ring)
            assert outcome(centralizers, md, order, eps) == want, eps
        assert projective_centralizers(md, range(r), eps) == [
            loop_projective_centralizer(md, i, eps) for i in range(r)], eps


def unit_last(ring):
    """ring relabeled so that its unit is the last simple."""
    perm = [j for j in range(ring.rank) if j != ring.unit] + [ring.unit]
    inv = np.argsort(perm)
    return FusionRing(labels=[ring.labels[p] for p in perm], N=ring.N[np.ix_(perm, perm, perm)],
                      dual=inv[np.asarray(ring.dual)[perm]].tolist(), unit=ring.rank - 1)


def test_the_unit_is_the_first_member_named_wherever_it_sits():
    # moving mu(unit) to -1 and mu(g2) off every power of xi = i fails both members; the unit,
    # last in the basis after g2, is named
    ring = unit_last(ring_of("pointed_zn(4)"))
    fp, table = spectral_of(ring)
    g1 = ring.index_of("g1")
    fake = table.characters.copy()
    mu = int(np.argmin(np.abs(fake[:, g1] - 1j)))
    fake[mu, ring.unit] *= -1
    fake[mu, ring.index_of("g2")] *= 0.5
    doctored = CharacterTable(characters=fake, codegrees=table.codegrees.copy())
    want = (MethodDisagreement, f"simple {ring.unit}: exponent grade 0 vs character grade 2")
    assert outcome(loop_universal_grading, ring, g1, fp, doctored) == want
    assert outcome(universal_grading, ring, g1, fp, doctored) == want
    assert (outcome(grade_simples, ring, range(ring.rank), fp, doctored)
            == first_outcome(lambda i: loop_universal_grading(ring, i, fp, doctored), ring))


def test_validate_checks_one_simple_of_a_permuted_su2_k(monkeypatch):
    # e_1 and e_19 = e_20 e_1 have the fewest product constituents, and either generates
    checks = count_calls(monkeypatch, ring_module._associative_on)
    rng = np.random.default_rng(20)
    for k in range(10):
        ring = unit_fixing_permutation(_su2_k(20), rng)
        checks.clear()
        assert ring_module._associativity_witness(ring.N, ring.unit, ring.edges) is None
        assert len(checks) == 1, k
        assert ring.labels[checks[0][2]] in ("1", "19")


def test_a_failing_first_check_returns_the_witness_of_checking_every_simple(monkeypatch):
    # the first check fails when a simple below it is broken; the simples below it are then
    # checked in index order, and the witness is the reference's
    ring = unit_fixing_permutation(_su2_k(10), np.random.default_rng(0))
    first = min(ring.labels.index("1"), ring.labels.index("9"))
    assert first > 1
    checks = count_calls(monkeypatch, ring_module._associative_on)
    for b in range(1, first):
        N = np.array(ring.N)
        N[b, b, ring.unit] += 1  # keeps every count of product constituents
        checks.clear()
        w = ring_module._associativity_witness(N, ring.unit, N > 0)
        assert checks[0][2] == first and w[0] < first, b
        assert w == every_simple_witness(N, ring.unit), b
