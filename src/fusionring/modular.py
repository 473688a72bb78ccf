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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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
from .kernel import _closed_kernels
from .ring import FusionRing, blocks, check_simples, dual_from_structure, gemm, validate
from .spectral import (
    AGGREGATE_EPS,
    DEFAULT_EPS,
    CharacterTable,
    FPData,
    build_table,
    fp_character,
    is_commutative,
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

    @cached_property
    def characters(self) -> np.ndarray:
        """S-characters s_t = S[t] / S[t][unit], one per row, formed once; ZeroEntry if one is 0."""
        units = self.S[:, self.ring.unit]
        small = np.abs(units) < 1e-12 * float(np.abs(self.S).max())
        if small.any():
            raise ZeroEntry(
                f"S[t][unit] vanishes for t={int(np.argmax(small))}; not pseudo-unitary")
        return self.S / units[:, None]


def _nondegenerate(S: np.ndarray, rank: int, error: type[Exception]) -> float:
    """The g > 0 with S conj(S) = g * I; raises error for a non-finite or degenerate S."""
    if S.shape != (rank, rank):
        raise DimensionMismatch(f"S-matrix shape {S.shape} does not match rank {rank}")
    if not np.isfinite(S).all():
        raise error("S-matrix has a non-finite entry")
    G = gemm(S, S.conj())
    g = float(np.mean(np.diag(G)).real)
    if g <= 0 or np.abs(G - g * np.eye(rank)).max() > AGGREGATE_EPS * max(1.0, g):
        raise error("S conj(S) is not a positive multiple of the identity")
    return g


def modular_data(ring: FusionRing, S: np.ndarray) -> ModularData:
    """Validate an S-matrix against a ring, Verlinde round trip included.

    Raises DimensionMismatch or InvariantFailed when S fails a basic check,
    NonIntegral or InvalidRing when its Verlinde coefficients are not
    nonnegative integers, and VerlindeMismatch when they are but do not
    reproduce the ring's structure constants and duality. The Verlinde blocks
    of the pairs i <= j are compared with ring.N[i, i:] as they are formed (see
    _verlinde_tensor), so no second r^3 tensor exists; the constants are
    symmetric in i and j, so the ring must also be commutative
    (spectral.is_commutative, computed once per ring). Every block is formed
    first, so NonIntegral and InvalidRing come before VerlindeMismatch.
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
    N = _verlinde_tensor(S / np.sqrt(g), ring.unit, ring.N)
    if N is None or not is_commutative(ring) or dual_from_structure(N, ring.unit) != ring.dual:
        raise VerlindeMismatch(
            "Verlinde reconstruction from S does not reproduce the declared ring")
    return ModularData(S=S, ring=ring, global_dim=g)


def characters_from_smatrix(md: ModularData, eps: float = DEFAULT_EPS) -> CharacterTable:
    """Character table of the S-characters s_t(Y) = S[t][Y] / S[t][unit], from build_table."""
    try:
        return build_table(md.ring, md.characters, eps=eps)
    except DegenerateCombination as exc:
        raise InvariantFailed(f"S-matrix rows are not ring characters: {exc}") from exc


def verlinde_ring(S: np.ndarray) -> FusionRing:
    """Reconstruct structure constants from a nondegenerate S-matrix.

    With U = S normalized to a unitary matrix, the structure constants are
    N[i][j][k] = sum_m U[i][m] U[j][m] conj(U[k][m]) / U[0][m], rounded to
    the nearest integer (tolerance 1e-6). They are symmetric in i and j, so
    _verlinde_tensor forms the pairs i <= j and writes each to N[i][j] and
    N[j][i]. The result must validate.
    """
    S = np.asarray(S, dtype=complex)
    r = len(S)
    g = _nondegenerate(S, r, InvalidRing)
    N = _verlinde_tensor(S / np.sqrt(g), 0)
    try:
        dual = dual_from_structure(N, 0)
    except (NoDual, AmbiguousDual) as exc:
        raise InvalidRing(f"reconstructed tensor has no duality: {exc}") from exc
    ring = FusionRing(labels=tuple(f"x{i}" for i in range(r)), N=N, dual=dual, unit=0)
    report = validate(ring)
    if not report.valid:
        axioms = ", ".join(name for name, _ in report.violations)
        raise InvalidRing(f"reconstructed ring violates: {axioms}")
    return ring


def _verlinde_tensor(U: np.ndarray, unit: int, expected: np.ndarray | None = None):
    """Rounded, nonnegative Verlinde constants of a unitary U, divided by its unit row U[unit].

    N[i][j][k] = sum_m U[i][m] U[j][m] conj(U[k][m]) / U[unit][m] is symmetric in i and j,
    so only the pairs i <= j are formed. For the i of a block (see ring.blocks), the rows
    U[i] * U[i:] are stacked and multiplied by weights.T through ring.gemm, in real
    arithmetic when U has no imaginary part (every su2_k) and in complex arithmetic
    otherwise; where fewer than 8 stacked rows fit (complex r > 90, real r > 181), a block
    is one threaded GEMM. Each block is rounded to int64 and
    written to N[i, i:] and N[i:, i] of a preallocated N, which is returned, so beyond N
    the memory is O(r^2 * block). Given an (r, r, r) tensor
    `expected`, each block is compared with expected[i, i:] instead and dropped, and the
    result is `expected` when every block equals it, else None: no r^3 reconstruction is
    made then, and nothing below the diagonal i = j is compared, so the caller checks that
    `expected` is commutative. Either way every block is formed before anything is decided:
    NonIntegral names the first coefficient, in C order, farthest from its rounding (its
    i <= j); only then are negatives refused, and only then does a mismatch count. A block
    whose real and imaginary parts all lie within half the worst distance so far of Nr and
    0 holds no farther coefficient, and forms no complex distances.
    """
    if np.abs(U[unit]).min() < 1e-12:
        raise InvalidRing("unit row of S has a vanishing entry")
    weights = U.conj() / U[unit][None, :]
    real = not U.imag.any()
    if real:  # weights from the complex division, so both dtypes round alike
        U, weights = np.ascontiguousarray(U.real), np.ascontiguousarray(weights.real)
    r = len(U)
    N = np.empty((r, r, r), dtype=np.int64) if expected is None else None
    worst, drift, negative, same = None, _VERLINDE_INT_TOL, False, True
    for bs in blocks(r, r * r):
        # the rows of pair (i, j) in the block: starts[i - bs.start] + j - i
        starts = [0, *accumulate(r - i for i in range(bs.start, bs.stop))]
        spans = list(zip(range(bs.start, bs.stop), starts, starts[1:]))
        pairs = np.empty((starts[-1], r), dtype=U.dtype)
        for i, a, b in spans:
            np.multiply(U[i], U[i:], out=pairs[a:b])
        Nc = gemm(pairs, weights.T)
        del pairs
        Nr = np.rint(Nc.real)
        re = Nc.real - Nr
        half = drift / 2  # parts within it keep |Nc - Nr| <= drift / sqrt(2); NaN fails this
        near = -half <= re.min() <= re.max() <= half
        del re
        if not (near and (real or np.abs(Nc.imag).max() <= half)):
            off = np.abs(Nc - Nr)
            p, k = np.unravel_index(np.argmax(off), off.shape)
            if off[p, k] > drift:
                n = bisect_right(starts, p) - 1
                i = bs.start + n
                worst, drift = (i, i + p - starts[n], k), off[p, k]
                value = complex(Nc[p, k])
        block = Nr.astype(np.int64)
        negative = negative or block.min() < 0
        for i, a, b in spans:
            if N is not None:
                N[i, i:] = N[i:, i] = block[a:b]
            elif same:
                same = np.array_equal(block[a:b], expected[i, i:])
        del Nc, Nr, block  # freed before the next block's GEMM
    if worst is not None:
        raise NonIntegral(
            f"Verlinde coefficient at {tuple(int(x) for x in worst)} is not integral: "
            f"{value:.8g}")
    if negative:
        raise InvalidRing("Verlinde reconstruction produced negative multiplicities")
    if expected is None:
        return N
    return expected if same else None


def centralizers(md: ModularData, simples, eps: float = DEFAULT_EPS) -> list[Subcategory]:
    """Per simple e_i of `simples`, the simples centralizing it: the kernel of s_i, against
    s_unit = S[unit] / S[unit][unit]. One within_eps and one closure test decide them all;
    ClosureViolation names the first simple, in the order given, whose set is not closed."""
    simples = list(simples)
    check_simples(md.ring.rank, simples)
    s = md.characters
    return _closed_kernels(md.ring, s[simples], s[md.ring.unit].real, eps,
                           "centralizer not closed under {kind} at {witness}")


def centralizer(md: ModularData, i: int, eps: float = DEFAULT_EPS) -> Subcategory:
    """Simples centralizing e_i; the batch of one of centralizers."""
    return centralizers(md, [i], eps)[0]


def projective_centralizers(md: ModularData, simples,
                            eps: float = DEFAULT_EPS) -> list[frozenset[int]]:
    """Per simple e_i of `simples`, the simples Y projectively centralizing it: |s_i(Y)|
    attains s_unit(Y) = FPdim(Y). One within_eps decides them all."""
    simples = list(simples)
    check_simples(md.ring.rank, simples)
    s = md.characters
    member = np.zeros((len(simples), md.ring.rank), dtype=bool)
    member.flat[within_eps(s[simples], s[md.ring.unit].real, eps, modulus=True)] = True
    return [frozenset(row.nonzero()[0].tolist()) for row in member]


def projective_centralizer(md: ModularData, i: int, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Simples projectively centralizing e_i; the batch of one of projective_centralizers."""
    return projective_centralizers(md, [i], eps)[0]


def invertibles(ring: FusionRing, fp: FPData, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Simples of FP dimension 1; cross-checked exactly: e_j * e_{j*} = unit, read off N[j, j*]."""
    by_dim = frozenset(within_eps(fp.dims, 1.0, eps))
    unit_rows = ring.N[np.arange(ring.rank), list(ring.dual)] == ring.basis_vector(ring.unit)
    exact = frozenset(np.flatnonzero(unit_rows.all(axis=1)).tolist())
    if by_dim != exact:
        raise InternalInconsistency(
            f"dimension-1 set {sorted(by_dim)} disagrees with exact invertibles {sorted(exact)}")
    return exact
