"""Spectral data of a commutative fusion ring.

Computes the Frobenius-Perron character (the unique basis-positive ring
homomorphism) as the top eigenvector of one symmetric matrix, exact to
rounding whatever the tolerance; the full character table by simultaneous
diagonalization of the commuting left-multiplication matrices, formal
codegrees f_t = sum_j mu_t(j) mu_t(j*), and the primitive central idempotents.
within_eps holds the one tolerance rule of every membership test. The FP
character and the last character table of each ring are kept while the ring
lives, as read-only arrays; a call that raises stores nothing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateCombination,
    DimensionMismatch,
    NonCommutative,
    SingularCharacterMatrix,
)
from .ring import FusionRing, blocks, exact_matvec
from .subcat import is_indecomposable_matrix

#: equality tolerance for complex scalars
DEFAULT_EPS = 1e-9
#: tolerance for aggregate identities (sums over the whole basis)
AGGREGATE_EPS = 1e-8
#: seed of the random linear combination used for diagonalization
DEFAULT_SEED = 0

_MAX_RETRIES = 8
#: the least gap, relative to the largest |eigenvalue|, between the top eigenvalue of
#: fp_character's matrix and the next one, below which the top one counts as repeated
_SIMPLE_GAP = 1e-8

# ring -> {"fp": FPData, "table": ((eps, seed), CharacterTable), "commutative": bool}; an
# entry goes when its ring is collected
_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class FPData:
    """Frobenius-Perron dimensions of the simples and the global dimension."""

    dims: np.ndarray
    global_dim: float


@dataclass(frozen=True)
class CharacterTable:
    """All ring homomorphisms to the complex numbers, one per row.

    Row 0 is the Frobenius-Perron character; the others are sorted by the real and
    imaginary parts of their values rounded to 9 digits, first entry first.
    codegrees[t] = sum_j characters[t][j] * characters[t][dual(j)].
    """

    characters: np.ndarray
    codegrees: np.ndarray
    fp_index: int = 0

    @property
    def count(self) -> int:
        return self.characters.shape[0]


@dataclass
class IdempotentSet:
    """Primitive central idempotents E_t, one per character, rows over the basis."""

    idempotents: np.ndarray


def is_commutative(ring: FusionRing) -> bool:
    """True iff N[i][j][k] = N[j][i][k] for all i, j, k; compared over blocks of i, so no
    r^3 temporary exists, and once per ring: later calls return the same answer."""
    spectra = _SPECTRA.setdefault(ring, {})
    if "commutative" not in spectra:
        N = ring.N
        spectra["commutative"] = all(np.array_equal(N[s], N[:, s].transpose(1, 0, 2))
                                     for s in blocks(ring.rank, ring.rank**2))
    return spectra["commutative"]


def _check_eps(eps) -> None:
    """ValueError unless eps, a number or an array of them, is positive and finite throughout."""
    if not (all(0 < e < np.inf for e in eps.ravel().tolist()) if isinstance(eps, np.ndarray)
            else 0 < eps < np.inf):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")  # also refuses NaN


def fp_character(ring: FusionRing) -> FPData:
    """Frobenius-Perron dimensions from one symmetric eigenvalue solve and inverse iteration.

    The vector d of FP dimensions satisfies (A_i^T d)_j = d_i d_j for every
    fusion matrix A_i, hence is the principal eigenvector of the strictly
    positive matrix M[j][k] = sum_i N[i][j][k]. M is symmetric on a valid ring:
    by Frobenius reciprocity N[i][j][k] = N[i*][k][j], and i -> i* permutes the
    simples, so M[j][k] = M[k][j]. The exact integer sum A = M + M^T is 2M on a
    valid ring, and symmetric on a ring never validated (modular_data reads such
    rings). np.linalg.eigvalsh(A) gives its top eigenvalue; the nonnegative A has a
    strictly positive top eigenvector exactly when its pattern is connected
    (subcat.is_indecomposable_matrix), and the eigenvalue must also be simple, above the
    next by more than _SIMPLE_GAP of the largest |eigenvalue|, or ConvergenceFailure.
    Three solves with A shifted by 2**-20 of that gap above the top eigenvalue, from the
    all-ones vector, shrink every other eigenvector's share by 2**-20 each: d is the
    result normalized so that d[unit] = 1, np.linalg.eigh's top vector to rounding.
    eigh itself is not called: OpenBLAS threads its eigenvector stage, at rank 41 already
    (see ring._GEMM_MADDS for what a threaded call costs). No tolerance enters, so the
    dims do not move with eps, and they are computed once per ring: later calls return
    the same FPData.
    """
    fp = _SPECTRA.get(ring, {}).get("fp")
    if fp is not None:
        return fp
    r = ring.rank
    M = ring.N.sum(axis=0)
    A = (M + M.T).astype(float)
    lam = np.linalg.eigvalsh(A)
    gap = lam[-1] - lam[-2] if r > 1 else 1.0  # one eigenvalue is simple
    dims = np.zeros(r)
    if gap > _SIMPLE_GAP * np.abs(lam).max() and is_indecomposable_matrix(A):
        shifted = A - (lam[-1] + gap * 2**-20) * np.eye(r)
        v = np.ones(r)
        for _ in range(3):
            v = np.linalg.solve(shifted, v)
        dims = v / v[ring.unit]
    if not dims.min() > 0:
        raise ConvergenceFailure("principal eigenvector is not strictly positive")
    dims.setflags(write=False)
    fp = _SPECTRA.setdefault(ring, {})["fp"] = FPData(dims=dims, global_dim=float(np.sum(dims**2)))
    return fp


def within_eps(values, targets, eps=DEFAULT_EPS, modulus: bool = False) -> list[int]:
    """Indices k with |values[k] - targets[k]| < eps, or ||values[k]| - targets[k]| < eps.

    The one tolerance rule of kernels, centers, centralizers and invertibles.
    targets and eps broadcast against values; k is the flat index in C order.
    """
    _check_eps(eps)
    values = np.abs(values) if modulus else np.asarray(values)
    return (np.abs(values - targets) < eps).ravel().nonzero()[0].tolist()


def adjoint_class(ring: FusionRing) -> np.ndarray:
    """Class of the adjoint object: sum over simples j of e_j * e_{j*}."""
    return exact_matvec(ring.N[np.arange(ring.rank), list(ring.dual)].T,
                        np.ones(ring.rank, dtype=np.int64))


def _multiplicativity_residuals(ring: FusionRing, rows: np.ndarray) -> np.ndarray:
    """Per row t, max over j, k of |rows[t][j] rows[t][k] - sum_l N[j][k][l] rows[t][l]|.

    The sums for all rows are N[js].reshape(-1, r) @ rows.T over the blocks js of
    ring.blocks(r, r * r): one block up to rank 40, and never r^3 complex memory
    beyond it. N is real, so each block is two real GEMMs, on the real and the
    imaginary parts of rows.
    """
    r = ring.rank
    worst = np.zeros(r)
    for js in blocks(r, r * r):
        block = ring.N[js].reshape(-1, r).astype(float)
        images = (block @ rows.real.T + 1j * (block @ rows.imag.T)).reshape(-1, r, r)
        outer = rows.T[js, None, :] * rows.T[None, :, :]
        worst = np.maximum(worst, np.abs(outer - images).max(axis=(0, 1)))
    return worst


def build_table(ring: FusionRing, rows: np.ndarray, eps: float = DEFAULT_EPS) -> CharacterTable:
    """Assemble a canonical CharacterTable from raw character value rows, as whole arrays.

    Raises for the first row not normalized at the unit or not multiplicative,
    makes real the rows whose imaginary parts are below 1e-12 * max(1, max|row|),
    puts the basis-positive (Frobenius-Perron) row first, orders the rest by one
    np.lexsort of their rounded values, and computes the formal codegrees.
    """
    rows = np.asarray(rows, dtype=complex)
    r = ring.rank
    if rows.shape != (r, r):
        raise DimensionMismatch(f"expected {r} characters of length {r}, got {rows.shape}")
    unnormalized = np.abs(rows[:, ring.unit] - 1.0) > AGGREGATE_EPS
    failing = unnormalized | (_multiplicativity_residuals(ring, rows) > AGGREGATE_EPS)
    if failing.any():
        raise DegenerateCombination("character row is not normalized at the unit"
                                    if unnormalized[np.argmax(failing)]
                                    else "character row is not multiplicative")
    real = np.abs(rows.imag).max(axis=1) < 1e-12 * np.maximum(1.0, np.abs(rows).max(axis=1))
    rows = np.where(real[:, None], rows.real + 0j, rows)

    fp_rows = np.flatnonzero((np.abs(rows.imag).max(axis=1) < AGGREGATE_EPS)
                             & (rows.real.min(axis=1) > eps))
    if len(fp_rows) != 1:
        raise DegenerateCombination(
            f"expected exactly one basis-positive character, found {len(fp_rows)}")
    rest = np.delete(rows, fp_rows[0], axis=0)
    keys = np.round(np.stack([rest.real, rest.imag], axis=2), 9).reshape(len(rest), 2 * r)
    characters = np.vstack([rows[fp_rows], rest[np.lexsort(keys.T[::-1])]])

    codegrees_c = np.sum(characters * characters[:, list(ring.dual)], axis=1)
    if np.abs(codegrees_c.imag).max() > AGGREGATE_EPS or codegrees_c.real.min() <= 0:
        raise DegenerateCombination("formal codegrees are not real positive")
    codegrees = codegrees_c.real
    if abs(np.sum(1.0 / codegrees) - 1.0) > AGGREGATE_EPS:
        raise DegenerateCombination("codegree reciprocals do not sum to 1")
    return CharacterTable(characters=characters, codegrees=codegrees)


def character_table(ring: FusionRing, eps: float = DEFAULT_EPS,
                    seed: int = DEFAULT_SEED) -> CharacterTable:
    """Character table of a commutative fusion ring.

    The matrices A_i^T commute and share r one-dimensional eigenspaces;
    the common eigenvectors, normalized at the unit coordinate, are exactly
    the character value vectors. We diagonalize one random real linear
    combination (deterministic seed, default 0) and retry with seed+1, up
    to 8 times, on eigenvalue collision or any verification failure.
    Each ring keeps the table of its last (eps, seed), returned while they repeat.
    """
    _check_eps(eps)
    key, table = _SPECTRA.get(ring, {}).get("table", (None, None))
    if key == (eps, seed):
        return table
    if not is_commutative(ring):
        raise NonCommutative("character table requires a commutative Grothendieck ring")
    r = ring.rank
    last_error: Exception | None = None
    for attempt in range(_MAX_RETRIES + 1):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.uniform(0.25, 1.0, size=r)
        # T[j][k] = sum_i c_i N[i][j][k] is the combination sum_i c_i A_i^T
        T = np.einsum("i,ijk->jk", coeffs, ring.N.astype(float))
        eigvals, eigvecs = np.linalg.eig(T)
        scale = max(1.0, float(np.abs(eigvals).max()))
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        gaps[np.diag_indices(r)] = np.inf
        if gaps.min() < 1e-8 * scale:
            last_error = DegenerateCombination("eigenvalue collision in random combination")
            continue
        units = eigvecs[ring.unit, :]
        if np.abs(units).min() < 1e-12:
            last_error = DegenerateCombination("eigenvector vanishes at the unit coordinate")
            continue
        rows = (eigvecs / units[None, :]).T
        try:
            table = build_table(ring, rows, eps=eps)
        except DegenerateCombination as exc:
            last_error = exc
            continue
        table.characters.setflags(write=False)
        table.codegrees.setflags(write=False)
        _SPECTRA.setdefault(ring, {})["table"] = ((eps, seed), table)
        return table
    raise DegenerateCombination(
        f"no usable linear combination after {_MAX_RETRIES + 1} attempts: {last_error}")


def primitive_idempotents(ring: FusionRing, table: CharacterTable) -> IdempotentSet:
    """Solve mu_t(E_s) = delta_ts for the primitive central idempotents.

    With C[t][j] = mu_t(e_j) the idempotent E_s is the s-th column of C^-1;
    E_0 coincides with the regular element sum_j FPdim(e_j) e_j divided by the
    global dimension.
    """
    C = table.characters
    r = C.shape[0]
    if np.linalg.matrix_rank(C) < r or np.linalg.cond(C) > 1e12:
        raise SingularCharacterMatrix("character matrix is numerically singular")
    inv = np.linalg.inv(C)
    return IdempotentSet(idempotents=inv.T.copy())
