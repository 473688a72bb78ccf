"""Modular data: S-matrices, Verlinde reconstruction, and centralizers.

An S-matrix is accepted at any positive scale: symmetry, nondegeneracy
(S conj(S) is a positive multiple of the identity) and pseudo-unitarity
(unit row positive and proportional to the FP dimensions) are validated,
and the scale is absorbed into global_dim. Normalized rows s_i of S are the
ring homomorphisms of the Grothendieck ring; their kernels and centers give
centralizers and projective centralizers, measured by spectral.within_eps
against the unit row s_unit, which modular_data checked against FPdim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousDual,
    DegenerateCombination,
    DimensionMismatch,
    InternalInconsistency,
    InvalidRing,
    InvariantFailed,
    NoDual,
    NonIntegral,
    VerlindeMismatch,
    ZeroEntry,
)
from .kernel import _closed_kernel
from .ring import FusionRing, check_simples, dual_from_structure, validate
from .spectral import (
    AGGREGATE_EPS,
    DEFAULT_EPS,
    CharacterTable,
    FPData,
    build_table,
    fp_character,
    within_eps,
)
from .subcat import Subcategory

_VERLINDE_INT_TOL = 1e-6


@dataclass
class ModularData:
    """A validated S-matrix bound to its fusion ring.

    global_dim is the scalar g with S conj(S) = g * I; for a quantum-trace
    normalized S it equals the global FP dimension, for a unitary S it is 1.
    """

    S: np.ndarray
    ring: FusionRing
    global_dim: float


def _nondegenerate(S: np.ndarray, rank: int, error: type[Exception]) -> float:
    """The g > 0 with S conj(S) = g * I; raises error for a non-finite or degenerate S."""
    if S.shape != (rank, rank):
        raise DimensionMismatch(f"S-matrix shape {S.shape} does not match rank {rank}")
    if not np.isfinite(S).all():
        raise error("S-matrix has a non-finite entry")
    G = S @ S.conj()
    g = float(np.mean(np.diag(G)).real)
    if g <= 0 or np.abs(G - g * np.eye(rank)).max() > AGGREGATE_EPS * max(1.0, g):
        raise error("S conj(S) is not a positive multiple of the identity")
    return g


def modular_data(ring: FusionRing, S: np.ndarray) -> ModularData:
    """Validate an S-matrix against a ring, Verlinde round trip included.

    Raises DimensionMismatch or InvariantFailed when S fails a basic check,
    NonIntegral or InvalidRing when its Verlinde coefficients are not
    nonnegative integers, and VerlindeMismatch when they are but do not
    reproduce the ring's structure constants and duality.
    """
    S = np.asarray(S, dtype=complex)
    g = _nondegenerate(S, ring.rank, InvariantFailed)
    scale = float(np.abs(S).max())
    if np.abs(S - S.T).max() > AGGREGATE_EPS * scale:
        raise InvariantFailed("S-matrix is not symmetric")
    row = S[ring.unit]
    if np.abs(row.imag).max() > AGGREGATE_EPS * scale or row.real.min() <= 0:
        raise InvariantFailed("unit row of S is not strictly positive (pseudo-unitarity)")
    fp = fp_character(ring)
    dims = row.real / row.real[ring.unit]
    if np.abs(dims - fp.dims).max() > AGGREGATE_EPS * max(1.0, fp.dims.max()):
        raise InvariantFailed("unit row of S is not proportional to the FP dimensions")
    N = _verlinde_tensor(S / np.sqrt(g), ring.unit)
    if not np.array_equal(N, ring.N) or dual_from_structure(N, ring.unit) != ring.dual:
        raise VerlindeMismatch(
            "Verlinde reconstruction from S does not reproduce the declared ring")
    return ModularData(S=S, ring=ring, global_dim=g)


def _s_characters(md: ModularData) -> np.ndarray:
    """S-characters s_t = S[t] / S[t][unit], one per row; ZeroEntry if an S[t][unit] vanishes."""
    units = md.S[:, md.ring.unit]
    small = np.abs(units) < 1e-12 * float(np.abs(md.S).max())
    if small.any():
        raise ZeroEntry(
            f"S[t][unit] vanishes for t={int(np.argmax(small))}; not pseudo-unitary")
    return md.S / units[:, None]


def characters_from_smatrix(md: ModularData, eps: float = DEFAULT_EPS) -> CharacterTable:
    """Character table of the S-characters s_t(Y) = S[t][Y] / S[t][unit], from build_table."""
    try:
        return build_table(md.ring, _s_characters(md), eps=eps)
    except DegenerateCombination as exc:
        raise InvariantFailed(f"S-matrix rows are not ring characters: {exc}") from exc


def verlinde_ring(S: np.ndarray, labels: tuple[str, ...] | None = None) -> FusionRing:
    """Reconstruct structure constants from a nondegenerate S-matrix.

    With U = S normalized to a unitary matrix, the structure constants are
    N[i][j][k] = sum_m U[i][m] U[j][m] conj(U[k][m]) / U[0][m], rounded to
    the nearest integer (tolerance 1e-6). The result must validate.
    """
    S = np.asarray(S, dtype=complex)
    r = len(S)
    g = _nondegenerate(S, r, InvalidRing)
    N = _verlinde_tensor(S / np.sqrt(g), 0)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(r))
    try:
        dual = dual_from_structure(N, 0)
    except (NoDual, AmbiguousDual) as exc:
        raise InvalidRing(f"reconstructed tensor has no duality: {exc}") from exc
    ring = FusionRing(labels=labels, N=N, dual=dual, unit=0)
    report = validate(ring)
    if not report.valid:
        axioms = ", ".join(name for name, _ in report.violations)
        raise InvalidRing(f"reconstructed ring violates: {axioms}")
    return ring


def _verlinde_tensor(U: np.ndarray, unit: int) -> np.ndarray:
    """Rounded, nonnegative Verlinde constants of a unitary U, divided by its unit row U[unit].

    N[i][j][k] = sum_m U[i][m] U[j][m] conj(U[k][m]) / U[unit][m], formed as
    one r x r complex GEMM per i, (U[i] * U) @ weights.T, into a preallocated
    r^3 array.
    """
    if np.abs(U[unit]).min() < 1e-12:
        raise InvalidRing("unit row of S has a vanishing entry")
    weights = U.conj() / U[unit][None, :]
    r = len(U)
    Nc = np.empty((r, r, r), dtype=complex)
    for i in range(r):
        np.matmul(U[i] * U, weights.T, out=Nc[i])
    Nr = np.rint(Nc.real)
    if np.abs(Nc - Nr).max() > _VERLINDE_INT_TOL:
        worst = np.unravel_index(np.argmax(np.abs(Nc - Nr)), Nc.shape)
        raise NonIntegral(
            f"Verlinde coefficient at {tuple(int(x) for x in worst)} is not integral: "
            f"{Nc[worst]:.8g}")
    N = Nr.astype(np.int64)
    if N.min() < 0:
        raise InvalidRing("Verlinde reconstruction produced negative multiplicities")
    return N


def centralizer(md: ModularData, i: int, eps: float = DEFAULT_EPS) -> Subcategory:
    """Simples centralizing e_i: the kernel of s_i, against s_unit = S[unit] / S[unit][unit]."""
    check_simples(md.ring.rank, (i,))
    s = _s_characters(md)
    return _closed_kernel(md.ring, s[i], s[md.ring.unit].real, eps,
                          "centralizer not closed under {kind} at {witness}")


def projective_centralizer(md: ModularData, i: int, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Simples projectively centralizing e_i: |s_i(Y)| attains s_unit(Y) = FPdim(Y)."""
    check_simples(md.ring.rank, (i,))
    s = _s_characters(md)
    return frozenset(within_eps(s[i], s[md.ring.unit].real, eps, modulus=True))


def invertibles(ring: FusionRing, fp: FPData, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Simples of FP dimension 1; cross-checked exactly: e_j * e_{j*} = unit, read off N[j, j*]."""
    by_dim = frozenset(within_eps(fp.dims, 1.0, eps))
    unit_rows = ring.N[np.arange(ring.rank), list(ring.dual)] == ring.basis_vector(ring.unit)
    exact = frozenset(np.flatnonzero(unit_rows.all(axis=1)).tolist())
    if by_dim != exact:
        raise InternalInconsistency(
            f"dimension-1 set {sorted(by_dim)} disagrees with exact invertibles {sorted(exact)}")
    return exact
