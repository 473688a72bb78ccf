"""Axiom validation, duality recovery, and exact multiplication."""

import itertools

import numpy as np
import pytest

from conftest import ALL_NAMES, SAMPLE_NAMES, count_calls, ring_of, wrap_ring
from fusionring import FusionRing, basis_vector, dual_from_structure, validate
from fusionring import ring as ring_module
from fusionring.errors import AmbiguousDual, DimensionMismatch, NoDual
from fusionring.ring import exact_matvec


def ising_tensor():
    N = np.array(ring_of("ising").N)
    N.setflags(write=True)
    return N


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtins_validate(name):
    report = validate(ring_of(name))
    assert report.valid and report.violations == []


def test_rank_one_ring_valid():
    ring = FusionRing(labels=("1",), N=np.ones((1, 1, 1), dtype=int), dual=(0,))
    assert validate(ring).valid


def test_associativity_violation_detected():
    N = ising_tensor()
    N[2, 2, 1] = 2  # double the psi multiplicity in sigma*sigma
    ring = FusionRing(labels=("1", "psi", "sigma"), N=N, dual=(0, 1, 2))
    report = validate(ring)
    assert not report.valid
    axioms = {name for name, _ in report.violations}
    assert "associativity" in axioms
    # the reported witness must actually violate associativity
    for name, w in report.violations:
        if name == "associativity":
            i, j, k, l = w
            lhs = sum(N[i, j, m] * N[m, k, l] for m in range(3))
            rhs = sum(N[j, k, m] * N[i, m, l] for m in range(3))
            assert lhs != rhs


def test_unit_violation_detected():
    N = ising_tensor()
    N[0, 1, 2] = 1  # unit row must be the identity
    ring = FusionRing(labels=("1", "psi", "sigma"), N=N, dual=(0, 1, 2))
    axioms = {name for name, _ in validate(ring).violations}
    assert "unit" in axioms


def test_duality_violation_detected():
    # Z4 with the identity declared as duality: g1* should be g3
    z4 = ring_of("pointed_zn(4)")
    ring = FusionRing(labels=z4.labels, N=z4.N, dual=(0, 1, 2, 3))
    axioms = {name for name, _ in validate(ring).violations}
    assert "duality" in axioms


def test_frobenius_violation_detected():
    # Z3 with one extra multiplicity g*g ∋ g: unit law and duality survive
    z3 = ring_of("pointed_zn(3)")
    N = np.array(z3.N)
    N[1, 1, 1] = 1
    ring = FusionRing(labels=z3.labels, N=N, dual=z3.dual)
    report = validate(ring)
    axioms = {name for name, _ in report.violations}
    assert "frobenius" in axioms
    assert "unit" not in axioms
    assert "duality" not in axioms


def test_involution_violation_detected():
    # a 4-cycle is a permutation but not an involution
    z4 = ring_of("pointed_zn(4)")
    ring = FusionRing(labels=z4.labels, N=z4.N, dual=(0, 2, 3, 1))
    axioms = {name for name, _ in validate(ring).violations}
    assert "involution" in axioms


def test_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        FusionRing(labels=("1", "x"), N=np.ones((1, 1, 1), dtype=int), dual=(0, 1))


def test_dual_from_structure_examples():
    assert dual_from_structure(ring_of("ising").N, 0) == (0, 1, 2)
    assert dual_from_structure(ring_of("pointed_zn(3)").N, 0) == (0, 2, 1)


def test_dual_from_structure_no_dual():
    N = ising_tensor()
    N[1, :, 0] = 0  # nothing pairs with psi to reach the unit
    with pytest.raises(NoDual) as info:
        dual_from_structure(N, 0)
    assert info.value.index == 1


def test_dual_from_structure_ambiguous():
    N = ising_tensor()
    N[1, 2, 0] = 1  # psi now reaches the unit against two partners
    with pytest.raises(AmbiguousDual):
        dual_from_structure(N, 0)


def test_fusion_matrix_sigma():
    # columns decompose sigma*e_j on the basis (1, psi, sigma)
    A = ring_of("ising").fusion_matrix(2)
    assert A.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_fusion_matrix_unit_is_identity():
    for name in ("ising", "rep_q8", "su2_k(3)"):
        ring = ring_of(name)
        assert np.array_equal(ring.fusion_matrix(ring.unit), np.eye(ring.rank, dtype=int))


def test_fusion_matrix_fibonacci():
    assert ring_of("fibonacci").fusion_matrix(1).tolist() == [[0, 1], [1, 1]]


def test_multiply_examples():
    ising = ring_of("ising")
    sigma = ising.basis_vector(2)
    assert ising.multiply(sigma, sigma).tolist() == [1, 1, 0]
    s3 = ring_of("rep_s3")
    V = s3.basis_vector(2)
    assert s3.multiply(V, V).tolist() == [1, 1, 1]
    # unit acts as identity on an arbitrary signed vector
    v = np.array([2, -1, 3])
    assert ising.multiply(ising.basis_vector(0), v).tolist() == v.tolist()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_multiply_associative_on_basis(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        for j in range(ring.rank):
            ij = ring.multiply(ring.basis_vector(i), ring.basis_vector(j))
            for k in range(ring.rank):
                jk = ring.multiply(ring.basis_vector(j), ring.basis_vector(k))
                left = ring.multiply(ij, ring.basis_vector(k))
                right = ring.multiply(ring.basis_vector(i), jk)
                assert np.array_equal(left, right)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_duality_through_multiply(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        for j in range(ring.rank):
            coeff = ring.multiply(ring.basis_vector(i), ring.basis_vector(j))[ring.unit]
            assert coeff == (1 if j == ring.dual[i] else 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_fusion_matrix_is_transpose(name):
    ring = ring_of(name)
    for i in range(ring.rank):
        assert np.array_equal(ring.fusion_matrix(ring.dual[i]), ring.fusion_matrix(i).T)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_total_fusion_matrix_strictly_positive(name):
    ring = ring_of(name)
    total = sum(ring.fusion_matrix(i) for i in range(ring.rank))
    assert total.min() > 0


def test_tensor_power_examples():
    ising = ring_of("ising")
    assert ising.tensor_power(2, 2).tolist() == [1, 1, 0]
    assert ising.tensor_power(2, 0).tolist() == [1, 0, 0]
    fib = ring_of("fibonacci")
    assert fib.tensor_power(1, 3).tolist() == [1, 2]


def test_tensor_power_exact_big_integers():
    # tau^n = F(n-1) + F(n) tau; independent oracle: additive Fibonacci loop
    fib = ring_of("fibonacci")
    a, b = 0, 1  # F(0), F(1)
    for _ in range(119):
        a, b = b, a + b
    power = fib.tensor_power(1, 120)
    assert int(power[0]) == a and int(power[1]) == b
    assert int(power[1]) == 5358359254990966640871840  # F(120), exceeds int64


def test_associativity_is_decided_past_int64():
    # ((a a) b)[b] = 1 against (a (a b))[b] = 1 + 2^64: equal in wrapped int64
    assert validate(wrap_ring()).violations == [("associativity", (1, 1, 2, 2))]


def test_exact_matvec_bound_counts_the_inner_size():
    # every entry is below 2^53, the sum is not: float64 would round it to 2^53
    assert exact_matvec(np.array([[2**52, 2**52, 1]]), np.array([1, 1, 1]))[0] == 2**53 + 1


def loop_associativity_witness(N):
    r = len(N)
    for i, j, k, l in itertools.product(range(r), repeat=4):
        lhs = sum(int(N[i, j, m]) * int(N[m, k, l]) for m in range(r))
        rhs = sum(int(N[j, k, m]) * int(N[i, m, l]) for m in range(r))
        if lhs != rhs:
            return (i, j, k, l)
    return None


SMALL_NAMES = [n for n in SAMPLE_NAMES + ["vec_s3"] if ring_of(n).rank <= 6]


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_associativity_witness_matches_a_quadruple_loop(name):
    ring = ring_of(name)
    r = ring.rank
    rng = np.random.default_rng(SMALL_NAMES.index(name))
    for value in (0, 1, 2, 3, 2**40):
        N = np.array(ring.N)
        N[tuple(rng.integers(0, r, 3))] = value
        report = validate(FusionRing(labels=ring.labels, N=N, dual=ring.dual))
        assert dict(report.violations).get("associativity") == loop_associativity_witness(N)


@pytest.mark.parametrize("name", ["ising", "rep_q8", "vec_s3", "su2_k(4)"])
def test_multiply_matches_a_double_loop(name):
    ring = ring_of(name)
    r = ring.rank
    rng = np.random.default_rng(r)
    for scale in (3, 2**28, 2**40, 2**62):
        u, v = rng.integers(-scale, scale, size=(2, r), endpoint=True)
        inputs = [(u, v), (u.astype(object) * 2**20, v.astype(object))]
        for x, y in inputs:
            want = [sum(int(x[i]) * int(y[j]) * int(ring.N[i, j, k])
                        for i in range(r) for j in range(r)) for k in range(r)]
            assert [int(c) for c in ring.multiply(x, y)] == want


def reference_violations(ring):
    """validate's violations for a ring whose duality is an involution fixing the unit.

    Every axiom is spelled out on Python ints; associativity takes object-dtype
    products one i at a time and stops at the first i that fails.
    """
    N, r, u, dual = ring.N.astype(object), ring.rank, ring.unit, ring.dual
    assert sorted(dual) == list(range(r)) and dual[u] == u
    assert all(dual[dual[i]] == i for i in range(r))
    def cells(n):
        return itertools.product(range(r), repeat=n)

    found = {
        "unit": next(((j, k) for j, k in cells(2)
                      if N[u, j, k] != (j == k) or N[j, u, k] != (j == k)), None),
        "associativity": None,
        "duality": next(((i, j) for i, j in cells(2) if N[i, j, u] != (j == dual[i])), None),
        "frobenius": next(((i, j, k) for i, j, k in cells(3)
                           if N[i, j, k] != N[dual[i], k, j] or N[i, j, k] != N[k, dual[j], i]),
                          None),
    }
    for i in range(r):
        lhs = N[i].dot(N.reshape(r, r * r)).reshape(r, r, r)
        rhs = N.reshape(r * r, r).dot(N[i]).reshape(r, r, r)
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            found["associativity"] = (i, *(int(x) for x in bad[0]))
            break
    return [(name, w) for name, w in found.items() if w is not None]


@pytest.mark.parametrize("name", ["pointed_zn(24)", "su2_k(10)", "tambara_yamagami_zn(12)"])
def test_validate_matches_a_reference_on_perturbed_rings(name):
    # 2**40 squared times the rank passes 2**53, so those rings take the object route
    ring = ring_of(name)
    r = ring.rank
    rng = np.random.default_rng(r)
    for value in (0, 1, 2, 3, 2**40):
        for low in (0, 1):  # anywhere, then off the unit's rows and columns
            N = np.array(ring.N)
            N[tuple(rng.integers(low, r, 3))] = value
            perturbed = FusionRing(labels=ring.labels, N=N, dual=ring.dual)
            report = validate(perturbed)
            want = reference_violations(perturbed)
            assert (report.valid, report.violations) == (not want, want), (value, low)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("name", ["pointed_zn(24)", "su2_k(10)", "tambara_yamagami_zn(12)"])
def test_validate_matches_a_reference_across_blocks(monkeypatch, name, rows):
    # blocks of `rows` indices per pass; at 5 the ranks 24, 11 and 13 end on a shorter block
    ring = ring_of(name)
    r = ring.rank
    monkeypatch.setattr(ring_module, "_BLOCK", rows * r * r)
    test_validate_matches_a_reference_on_perturbed_rings(name)
    N = np.array(ring.N)
    N[r - 1, r - 2, r - 1] += 1  # in the last block of i and of k
    broken = FusionRing(labels=ring.labels, N=N, dual=ring.dual)
    want = reference_violations(broken)
    assert want and validate(broken).violations == want


def rounding_ring():
    """Self-dual rank 3 ring, not associative: ((a a) b)[b] = 1 + 2^60, (a (a b))[b] = 2^60.

    The two sides round to the same float64.
    """
    big = 2**30
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(3, dtype=np.int64)
    N[1, 1] = N[2, 2] = [1, 0, big]
    N[1, 2] = N[2, 1] = [0, big, 0]
    return FusionRing(labels=("1", "a", "b"), N=N, dual=(0, 1, 2), name="rounding")


@pytest.mark.parametrize("make", [wrap_ring, rounding_ring])
def test_validate_matches_the_reference_past_2_53(make):
    violations = validate(make()).violations
    assert violations == reference_violations(make())
    assert ("associativity", (1, 1, 2, 2)) in violations


def test_validate_bounds_the_structure_constants_once(monkeypatch):
    bounds = count_calls(monkeypatch, ring_module._max_abs)
    assert validate(ring_of("pointed_zn(24)")).valid
    assert len(bounds) == 1


def test_structure_constants_must_be_nonnegative_int64_integers():
    labels, dual = ("1", "g"), (0, 1)
    N = ring_of("pointed_zn(2)").N
    assert FusionRing(labels=labels, N=N.astype(float), dual=dual).N.dtype == np.int64
    for bad, why in ((N + 0.5, "integers"), (-N, "nonnegative"),
                     (np.where(N == 1, 2**63, 0).astype(np.uint64), "nonnegative")):
        with pytest.raises(ValueError, match=f"must be {why}"):
            FusionRing(labels=labels, N=bad, dual=dual)


def test_a_ring_copies_a_tensor_that_can_still_be_written():
    # a writable array, or a read-only view of one, is copied; a sealed one is kept as it is
    z2 = ring_of("pointed_zn(2)")
    writable = np.array(z2.N)
    view = writable.view()
    view.setflags(write=False)
    rings = [FusionRing(labels=z2.labels, N=N, dual=z2.dual) for N in (writable, view)]
    writable[1, 1, 0] = 7
    assert all(np.array_equal(ring.N, z2.N) and not ring.N.flags.writeable for ring in rings)
    assert FusionRing(labels=z2.labels, N=z2.N, dual=z2.dual).N is z2.N


def test_a_ring_seals_the_array_it_builds_from_a_nested_list(monkeypatch):
    # numpy's int64 array of a list or tuple belongs to the call alone: sealed, never copied
    z2 = ring_of("pointed_zn(2)")
    built, build = [], np.ascontiguousarray
    monkeypatch.setattr(np, "ascontiguousarray", lambda N: built.append(build(N)) or built[-1])
    for N in (z2.N.tolist(), tuple(z2.N.tolist())):
        ring = FusionRing(labels=z2.labels, N=N, dual=z2.dual)
        assert any(ring.N is A for A in built) and not ring.N.flags.writeable
        assert np.array_equal(ring.N, z2.N)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e19, 2.0**63])
def test_structure_constants_are_decided_before_the_int64_cast(value):
    # the cast itself would turn these into some int64 (and warn); they must not get that far
    N = np.array(ring_of("pointed_zn(2)").N, dtype=float)
    N[1, 1, 0] = value
    why = "integers" if not np.isfinite(value) else "nonnegative"
    with pytest.raises(ValueError, match=f"must be {why}"):
        FusionRing(labels=("1", "g"), N=N, dual=(0, 1))


def test_object_structure_constants_are_decided_as_python_ints():
    labels, dual = ("1", "g"), (0, 1)
    N = np.zeros((2, 2, 2), dtype=object)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    ring = FusionRing(labels=labels, N=N, dual=dual)
    assert ring.N.dtype == np.int64 and validate(ring).valid
    nested = ring_of("pointed_zn(2)").N.tolist()
    for value, why in ((2**64, "nonnegative and below 2\\*\\*63"), (-2**64, "nonnegative"),
                       (2**63, "nonnegative"), (1.0, "integers"), ("1", "integers"),
                       (None, "integers"), (True, "integers")):
        bad = N.copy()
        bad[1, 1, 1] = value
        with pytest.raises(ValueError, match=f"must be {why}"):
            FusionRing(labels=labels, N=bad, dual=dual)
        if value in (2**64, -2**64, "1", None):  # nested lists of which numpy makes no numbers
            nested[1][1][1] = value
            with pytest.raises(ValueError, match=f"must be {why}"):
                FusionRing(labels=labels, N=nested, dual=dual)


def test_booleans_are_not_structure_constants():
    # numpy makes them numbers: a bool tensor, or True inside a nested list of ints (int64)
    labels, dual = ("1", "g"), (0, 1)
    N = ring_of("pointed_zn(2)").N
    nested = N.tolist()
    nested[1][1][0] = True
    assert np.asarray(nested).dtype == np.int64
    for bad in (N.astype(bool), nested, list(N.astype(bool))):
        with pytest.raises(ValueError, match="structure constants must be integers"):
            FusionRing(labels=labels, N=bad, dual=dual)
    assert validate(FusionRing(labels=labels, N=N.tolist(), dual=dual)).valid


@pytest.mark.parametrize("name", ALL_NAMES)
def test_relabel_by_a_seeded_permutation_and_back_is_the_identity(name):
    import random

    from fusionring.ring import relabel

    ring = ring_of(name)
    rest = [i for i in range(ring.rank) if i != ring.unit]
    random.Random(name).shuffle(rest)
    order = [ring.unit] + rest
    moved = relabel(ring, order)
    assert validate(moved).valid and moved.unit == 0 and moved.name == ""
    assert moved.labels == tuple(ring.labels[a] for a in order)
    back = relabel(moved, [order.index(a) for a in range(ring.rank)])
    assert np.array_equal(back.N, ring.N)
    assert (back.labels, back.dual) == (ring.labels, ring.dual)


def test_relabel_refuses_an_index_outside_the_ring():
    from fusionring.ring import relabel

    ring = ring_of("ising")
    for order in ([0, 1, 3], [0, 1, -1]):
        with pytest.raises(IndexError):
            relabel(ring, order)


def test_relabel_refuses_an_order_it_cannot_reindex():
    from fusionring.errors import NotClosed
    from fusionring.ring import relabel

    ring = ring_of("pointed_zn(3)")
    with pytest.raises(NotClosed, match=r"^member set not closed under dual, witness \(1,\)$"):
        relabel(ring, [0, 1])  # g1 without its dual g2
    for order in ([1, 0, 2], [0, 1, 2, 1]):  # the unit not first; a simple twice
        with pytest.raises(ValueError, match="^order must list distinct simples, the unit first$"):
            relabel(ring, order)
    with pytest.raises(IndexError):
        relabel(ring, [1, 3])  # out of range comes before the other refusals
