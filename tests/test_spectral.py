"""FP dimensions, character tables, codegrees, idempotents."""

import math

import numpy as np
import pytest

from conftest import ALL_NAMES, COMMUTATIVE_NAMES, fp_of, ring_of, table_of
from fusionring import (
    adjoint_class,
    character_table,
    is_commutative,
    primitive_idempotents,
)
from fusionring import catalog, spectral
from fusionring.errors import DegenerateCombination, NonCommutative
from fusionring.spectral import AGGREGATE_EPS, build_table, fp_character, within_eps

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def rows_match(actual, expected, tol=1e-8):
    """Set equality of character rows up to tolerance."""
    actual = [np.asarray(row, dtype=complex) for row in actual]
    expected = [np.asarray(row, dtype=complex) for row in expected]
    if len(actual) != len(expected):
        return False
    used = set()
    for row in actual:
        hit = next((k for k, exp in enumerate(expected)
                    if k not in used and np.abs(row - exp).max() < tol), None)
        if hit is None:
            return False
        used.add(hit)
    return True


def test_fp_dims_ising():
    fp = fp_of("ising")
    # oracle: solve d_psi^2 = 1, d_sigma^2 = 1 + d_psi with positivity
    assert np.abs(fp.dims - [1.0, 1.0, SQRT2]).max() < 1e-9
    assert abs(fp.global_dim - 4.0) < 1e-8


def test_fp_dims_fibonacci():
    fp = fp_of("fibonacci")
    assert abs(fp.dims[1] - PHI) < 1e-9  # positive root of d^2 = 1 + d
    assert abs(fp.global_dim - (5.0 + math.sqrt(5.0)) / 2.0) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_fp_dims_pointed(n):
    fp = fp_of(f"pointed_zn({n})")
    assert np.abs(fp.dims - 1.0).max() < 1e-9
    assert abs(fp.global_dim - n) < 1e-8


def test_fp_dims_su2k_closed_form():
    # oracle: quantum integers [j+1]_q = sin((j+1)pi/(k+2)) / sin(pi/(k+2))
    for k in (1, 4, 10):
        fp = fp_of(f"su2_k({k})")
        expected = [math.sin((j + 1) * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))
                    for j in range(k + 1)]
        assert np.abs(fp.dims - expected).max() < 1e-9


@pytest.mark.parametrize("name", ALL_NAMES)
def test_regular_element_absorbs_every_simple(name):
    # R = sum_i d_i e_i satisfies e_j R = R e_j = d_j R, on either side
    ring, fp = ring_of(name), fp_of(name)
    regular = fp.dims.astype(float)
    for j in range(ring.rank):
        e = ring.basis_vector(j).astype(float)
        for product in (ring.multiply(e, regular), ring.multiply(regular, e)):
            assert np.abs(product - fp.dims[j] * regular).max() < 1e-8 * max(1.0, fp.global_dim)


def test_is_commutative():
    assert is_commutative(ring_of("rep_s3"))
    assert not is_commutative(ring_of("vec_s3"))
    assert is_commutative(ring_of("trivial"))


def test_character_table_ising():
    table = table_of("ising")
    expected = [(1, 1, SQRT2), (1, 1, -SQRT2), (1, -1, 0)]
    assert rows_match(table.characters, expected)
    assert sorted(np.round(table.codegrees, 6)) == [2.0, 4.0, 4.0]
    assert np.abs(table.characters[0] - [1, 1, SQRT2]).max() < 1e-8  # FP first


def test_character_table_rep_s3_classical():
    # classical S3 character table columns, f = |G| / |class|
    table = table_of("rep_s3")
    assert rows_match(table.characters, [(1, 1, 2), (1, -1, 0), (1, 1, -1)])
    assert sorted(np.round(table.codegrees, 6)) == [2.0, 3.0, 6.0]


def test_character_table_rep_q8_classical():
    # classes 1, -1, i, j, k of Q8; values on (1, a, b, ab, V)
    table = table_of("rep_q8")
    expected = [(1, 1, 1, 1, 2), (1, 1, 1, 1, -2), (1, 1, -1, -1, 0),
                (1, -1, 1, -1, 0), (1, -1, -1, 1, 0)]
    assert rows_match(table.characters, expected)
    assert sorted(np.round(table.codegrees, 6)) == [4.0, 4.0, 4.0, 8.0, 8.0]


def test_character_table_trivial():
    table = table_of("trivial")
    assert table.characters.tolist() == [[1.0 + 0.0j]]
    assert table.codegrees.tolist() == [1.0]


def test_character_table_pointed_roots_of_unity():
    n = 7
    table = table_of(f"pointed_zn({n})")
    # every character is j -> w^(jt) for some t; identify by its value on g1
    for row in table.characters:
        z = row[1]
        assert abs(abs(z) - 1.0) < 1e-8
        t = round(np.angle(z) * n / (2 * np.pi)) % n
        expected = np.exp(2j * np.pi * t * np.arange(n) / n)
        assert np.abs(row - expected).max() < 1e-8


def test_character_table_noncommutative_raises():
    with pytest.raises(NonCommutative):
        character_table(ring_of("vec_s3"))


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_character_invariants(name):
    ring = ring_of(name)
    fp = fp_of(name)
    table = table_of(name)
    assert table.characters.shape == (ring.rank, ring.rank)
    # unit normalization and the FP bound |mu(j)| <= FPdim(j)
    assert np.abs(table.characters[:, ring.unit] - 1.0).max() < 1e-8
    assert (np.abs(table.characters) <= fp.dims[None, :] + 1e-8).all()
    # multiplicativity of each row
    for row in table.characters:
        outer = np.outer(row, row)
        images = np.einsum("ijk,k->ij", ring.N, row)
        assert np.abs(outer - images).max() < AGGREGATE_EPS
    # row 0 agrees with the positive character from the FP eigensolve
    assert np.abs(table.characters[0] - fp.dims).max() < 1e-8


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_codegree_identities(name):
    ring = ring_of(name)
    table = table_of(name)
    assert table.codegrees.min() > 0
    assert abs(np.sum(1.0 / table.codegrees) - 1.0) < AGGREGATE_EPS
    # f_t as a value: mu_t evaluated on the adjoint class
    adj = adjoint_class(ring).astype(complex)
    values = table.characters @ adj
    assert np.abs(values - table.codegrees).max() < AGGREGATE_EPS


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_orthogonality(name):
    ring = ring_of(name)
    table = table_of(name)
    weights = 1.0 / table.codegrees
    gram = np.einsum("t,ti,tj->ij", weights, table.characters, table.characters.conj())
    assert np.abs(gram - np.eye(ring.rank)).max() < AGGREGATE_EPS


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_dual_values_are_conjugate(name):
    ring = ring_of(name)
    table = table_of(name)
    dual = list(ring.dual)
    assert np.abs(table.characters[:, dual] - table.characters.conj()).max() < AGGREGATE_EPS


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_phase_propagates_to_constituents(name):
    # if mu(x) = xi * FPdim(x) with |xi| = 1 for a product x of two simples,
    # every constituent k of x satisfies mu(k) = xi * FPdim(k)
    ring = ring_of(name)
    fp = fp_of(name)
    table = table_of(name)
    for i in range(ring.rank):
        for j in range(ring.rank):
            x = ring.multiply(ring.basis_vector(i), ring.basis_vector(j))
            dim_x = float(fp.dims @ x)
            values = table.characters @ x.astype(complex)
            for t in range(table.count):
                if abs(abs(values[t]) - dim_x) < 1e-8:
                    xi = values[t] / dim_x
                    for k in np.nonzero(x)[0]:
                        assert abs(table.characters[t, k] - xi * fp.dims[k]) < 1e-7


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_idempotents(name):
    ring = ring_of(name)
    fp = fp_of(name)
    table = table_of(name)
    ids = primitive_idempotents(ring, table).idempotents
    # mu_t(E_s) = delta_ts
    values = table.characters @ ids.T
    assert np.abs(values - np.eye(ring.rank)).max() < AGGREGATE_EPS
    # E_s E_t = delta_st E_s under the complex-bilinear product
    for s in range(ring.rank):
        for t in range(ring.rank):
            prod = ring.multiply(ids[s], ids[t])
            expect = ids[s] if s == t else np.zeros(ring.rank)
            assert np.abs(prod - expect).max() < AGGREGATE_EPS
    assert np.abs(ids.sum(axis=0) - ring.basis_vector(ring.unit)).max() < AGGREGATE_EPS
    # E_0 is the regular element over the global dimension
    assert np.abs(ids[0] - fp.dims / fp.global_dim).max() < AGGREGATE_EPS


def test_idempotents_fibonacci_closed_form():
    ring = ring_of("fibonacci")
    ids = primitive_idempotents(ring, table_of("fibonacci")).idempotents
    e0 = np.array([1.0, PHI]) / (2.0 + PHI)
    assert np.abs(ids[0] - e0).max() < 1e-8
    assert np.abs(ids[1] - (np.array([1.0, 0.0]) - e0)).max() < 1e-8


def test_idempotents_trivial():
    ids = primitive_idempotents(ring_of("trivial"), table_of("trivial")).idempotents
    assert np.abs(ids - [[1.0]]).max() < 1e-12


def test_adjoint_class_examples():
    assert adjoint_class(ring_of("ising")).tolist() == [3, 1, 0]
    n = 6
    assert adjoint_class(ring_of(f"pointed_zn({n})")).tolist() == [n] + [0] * (n - 1)
    assert adjoint_class(ring_of("rep_q8")).tolist() == [5, 1, 1, 1, 0]


def test_fp_character_matches_table_everywhere():
    for name in COMMUTATIVE_NAMES:
        assert np.abs(table_of(name).characters[0] - fp_of(name).dims).max() < 1e-8


@pytest.mark.parametrize("ring", [ring_of(name) for name in ALL_NAMES]
                         + [catalog._su2_k(40), catalog._su2_k(120), catalog._pointed_zn(64)],
                         ids=lambda ring: ring.name)
def test_fp_dims_are_exact_to_rounding(ring):
    # d_i d_j = sum_k N[i][j][k] d_k, and on a commutative ring d is chi0's real part,
    # both to 1e-13 of the scale whatever the tolerance elsewhere
    d = fp_character(ring).dims
    outer = np.outer(d, d)
    assert np.abs(outer - ring.N @ d).max() <= 1e-13 * outer.max()
    if is_commutative(ring):
        assert np.abs(character_table(ring).characters[0].real - d).max() <= 1e-13 * d.max()


@pytest.mark.parametrize("ring", [ring_of(name) for name in ALL_NAMES]
                         + [catalog._su2_k(40), catalog._su2_k(120), catalog._pointed_zn(64)],
                         ids=lambda ring: ring.name)
def test_fp_dims_match_the_top_eigenvector_of_eigh(ring):
    # np.linalg.eigh of the same sum M + M^T, eigenvectors included, is an oracle independent
    # of fp_character's eigenvalue solve and inverse iteration
    M = ring.N.sum(axis=0)
    v = np.linalg.eigh((M + M.T).astype(float))[1][:, -1]
    d = fp_character(ring).dims
    assert np.abs(d - v / v[ring.unit]).max() <= 1e-13 * d.max()


def test_within_eps_is_strict_and_can_compare_moduli():
    assert within_eps([1.0, 1.5, 2.0], 1.0, 0.5) == [0]  # 0.5 away is outside
    assert within_eps([1.0, 1j, -2.0], [1.0, 1.0, 1.0], 0.1, modulus=True) == [0, 1]


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(eps):
    ising = ring_of("ising")
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        character_table(ising, eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        within_eps([1.0], 1.0, eps)


@pytest.mark.parametrize("ring", [catalog._su2_k(10), catalog._pointed_zn(24),
                                  catalog._pointed_zn(48)], ids=lambda ring: ring.name)
def test_multiplicativity_residuals_match_a_per_row_einsum(ring):
    # pointed_zn(48) takes several blocks, the others one
    r = ring.rank
    rows = np.random.default_rng(r).normal(size=(r, r)) + 1j
    want = [np.abs(np.outer(row, row) - np.einsum("ijk,k->ij", ring.N, row)).max() for row in rows]
    assert np.allclose(spectral._multiplicativity_residuals(ring, rows), want, rtol=1e-12)


def test_build_table_reports_the_first_failing_row():
    ring, rows = ring_of("pointed_zn(5)"), table_of("pointed_zn(5)").characters
    not_multiplicative, not_normalized = rows.copy(), rows.copy()
    not_multiplicative[1, 2] += 0.1
    not_multiplicative[2, 0] = 2.0
    not_normalized[1, 0] = 2.0
    not_normalized[2, 2] += 0.1
    with pytest.raises(DegenerateCombination, match="not multiplicative"):
        build_table(ring, not_multiplicative)
    with pytest.raises(DegenerateCombination, match="not normalized"):
        build_table(ring, not_normalized)


def _python_sorted(rows):
    """Rows sorted by Python round(., 9) tuples of (real, imaginary) parts, the order of reference."""
    return sorted(rows, key=lambda row: tuple((round(float(z.real), 9), round(float(z.imag), 9))
                                              for z in row))


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_build_table_does_not_depend_on_the_row_order(name):
    ring, table = ring_of(name), table_of(name)
    real = np.abs(table.characters.imag).max(axis=1) == 0
    noisy = table.characters + 1e-14j * real[:, None]  # below the 1e-12 cleaning threshold
    rng = np.random.default_rng(ring.rank)
    for rows in (table.characters, noisy):
        for _ in range(3):
            rebuilt = build_table(ring, rows[rng.permutation(ring.rank)])
            assert np.array_equal(rebuilt.characters, table.characters)
            assert np.array_equal(rebuilt.codegrees, table.codegrees)
            assert not np.signbit(rebuilt.characters[real].imag).any()
    reference = np.reshape(_python_sorted(table.characters[1:]), (-1, ring.rank))
    assert np.array_equal(reference, table.characters[1:])


def test_character_table_of_rank_one_is_built_like_any_other(monkeypatch):
    from conftest import count_calls

    builds = count_calls(monkeypatch, spectral.build_table)
    table = spectral.character_table(catalog._trivial())
    assert len(builds) == 1
    assert table.characters.tolist() == [[1.0 + 0.0j]] and table.codegrees.tolist() == [1.0]
    assert table.characters.dtype == complex and table.fp_index == 0
