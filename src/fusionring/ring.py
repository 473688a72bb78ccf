"""Fusion rings given by structure constants, and exact multiplication primitives.

A fusion ring of rank r is a based ring with basis e_0, ..., e_{r-1}, unit
e_0 (by normalization), a duality involution, and nonnegative integer
structure constants N[i][j][k] giving the multiplicity of e_k in e_i * e_j.
All integer arithmetic in this module is exact and follows one rule,
:func:`_float64_exact`: float64 while every partial sum is provably an exact
integer, Python integers otherwise, so it never rounds or wraps around.
:func:`exact_matvec` applies it per product, :func:`validate` once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousDual, DimensionMismatch, NoDual


def check_simples(rank: int, simples) -> None:
    """IndexError unless every index in `simples` is a basis index, 0 <= i < rank."""
    if len(simples) and not 0 <= min(simples) <= max(simples) < rank:
        raise IndexError(f"simple indices {sorted(simples)} out of range for rank {rank}")


def basis_vector(rank: int, i: int) -> np.ndarray:
    """Class vector of the i-th basis element."""
    check_simples(rank, (i,))
    v = np.zeros(rank, dtype=np.int64)
    v[i] = 1
    return v


def _max_abs(v: np.ndarray) -> int:
    if v.size == 0:
        return 0
    if v.dtype == object:
        return max(abs(int(x)) for x in v.flat)
    return max(int(v.max()), -int(v.min()))


def _float64_exact(bound_a: int, bound_b: int, inner: int) -> bool:
    """The 2**53 rule of every exact product.

    A product of integer arrays bounded by bound_a and bound_b in modulus,
    summing `inner` terms per entry, has every partial sum below
    bound_a * bound_b * inner; below 2**53 float64 holds each one exactly.
    """
    return bound_a * bound_b * inner < 2**53


def exact_matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v over the integers, exactly; v is a vector or a matrix.

    When _float64_exact(max|A|, max|v|, inner size) holds, the product runs
    as a float64 matmul cast back to int64. Otherwise it runs on Python ints
    (object dtype). :func:`validate` applies the same rule once per call to
    the one operand N of all its products.
    """
    if A.dtype != object and v.dtype != object:
        if _float64_exact(_max_abs(A), _max_abs(v), A.shape[-1]):
            return (A.astype(np.float64) @ v.astype(np.float64)).astype(np.int64)
    return A.astype(object).dot(v.astype(object))


@dataclass(frozen=True, eq=False)
class FusionRing:
    """A based ring: labels, structure tensor N[i][j][k], duality, unit index.

    Instances are immutable; the structure tensor is stored read-only.
    Construction checks shapes only; the based-ring axioms are checked by
    :func:`validate`.
    """

    labels: tuple[str, ...]
    N: np.ndarray
    dual: tuple[int, ...]
    unit: int = 0
    name: str = ""

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        r = len(labels)
        if len(set(labels)) != r:
            raise ValueError("labels must be distinct")
        N = np.ascontiguousarray(np.asarray(self.N))
        if N.shape != (r, r, r):
            raise DimensionMismatch(f"structure tensor shape {N.shape} != ({r}, {r}, {r})")
        # decided before the cast, which would wrap or saturate what int64 cannot hold
        if not (np.issubdtype(N.dtype, np.integer) or np.all(np.isfinite(N) & (N == np.rint(N)))):
            raise ValueError("structure constants must be integers")
        if N.size and not 0 <= int(N.min()) <= int(N.max()) < 2**63:
            raise ValueError("structure constants must be nonnegative and below 2**63")
        N = N.astype(np.int64)
        N.setflags(write=False)
        object.__setattr__(self, "N", N)
        dual = tuple(int(d) for d in self.dual)
        if len(dual) != r or any(d < 0 or d >= r for d in dual):
            raise DimensionMismatch("dual must assign a basis index to every basis index")
        object.__setattr__(self, "dual", dual)
        if not 0 <= self.unit < r:
            raise DimensionMismatch(f"unit index {self.unit} out of range for rank {r}")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no simple labeled {label!r}") from None

    def basis_vector(self, i: int) -> np.ndarray:
        return basis_vector(self.rank, i)

    def fusion_matrix(self, i: int) -> np.ndarray:
        """Matrix of left multiplication by e_i: A[k][j] = N[i][j][k].

        Column j holds the decomposition of e_i * e_j, so A @ v implements
        left multiplication by e_i on class vectors.
        """
        check_simples(self.rank, (i,))
        return self.N[i].T.copy()

    def multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of two class vectors: (u*v)[k] = sum_ij u[i] v[j] N[i][j][k].

        Integer and object inputs are multiplied exactly by two exact_matvec
        calls, through X[j][k] = sum_i u[i] N[i][j][k] over the support of u
        only; float/complex inputs use the same bilinear extension in floating
        point.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        r = self.rank
        if u.shape != (r,) or v.shape != (r,):
            raise DimensionMismatch("class vectors must have length equal to the rank")
        if all(x.dtype == object or np.issubdtype(x.dtype, np.integer) for x in (u, v)):
            nz = np.flatnonzero(u)
            X = exact_matvec(self.N[nz].reshape(len(nz), r * r).T, u[nz]).reshape(r, r)
            return exact_matvec(X.T, v)
        # float/complex inputs: plain bilinear extension, numpy promotes the dtype
        return np.einsum("i,j,ijk->k", u, v, self.N)

    def tensor_power(self, i: int, n: int) -> np.ndarray:
        """Class of the n-th power of e_i; n = 0 gives the unit class."""
        if n < 0:
            raise ValueError("tensor power exponent must be nonnegative")
        A = self.fusion_matrix(i)
        v = self.basis_vector(self.unit)
        for _ in range(n):
            v = exact_matvec(A, v)
        return v

    def __repr__(self):
        name = f" {self.name!r}" if self.name else ""
        return f"<FusionRing{name} rank={self.rank} labels={list(self.labels)}>"


@dataclass
class ValidationReport:
    """Axiom-check outcome: one (axiom, witness) entry per violated axiom."""

    valid: bool
    violations: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)


def _first_mismatch(diff: np.ndarray):
    idx = np.argwhere(diff)
    return tuple(int(x) for x in idx[0]) if idx.size else None


def _associativity_witness(N: np.ndarray):
    """First (i, j, k, l) in C order with ((e_i e_j) e_k)[l] != (e_i (e_j e_k))[l], or None.

    One i at a time, in r^3 memory, not r^4: lhs[j][k][l] = sum_m N[i][j][m]
    N[m][k][l] and rhs[j][k][l] = sum_m N[j][k][m] N[i][m][l], written into
    two buffers that every i reuses.
    """
    r = len(N)
    bound = _max_abs(N)
    M = N.astype(np.float64 if _float64_exact(bound, bound, r) else object)
    lhs, rhs = np.empty((2, r, r, r), dtype=M.dtype)
    for i in range(r):
        np.matmul(M[i], M.reshape(r, r * r), out=lhs.reshape(r, r * r))
        np.matmul(M.reshape(r * r, r), M[i], out=rhs.reshape(r * r, r))
        if not np.array_equal(lhs, rhs):
            return (i, *_first_mismatch(lhs != rhs))
    return None


def validate(ring: FusionRing) -> ValidationReport:
    """Check unit law, associativity, duality, Frobenius reciprocity, involution.

    Returns a report listing every violated axiom with one witness index
    tuple, the first True entry of its mask; a valid ring returns an empty
    violation list.

    Associativity is checked exactly, one simple at a time in r^3 memory.
    The operand of all 2r products is decided once per call: one bound
    max|N|, then one cast of N, to float64 when _float64_exact(max|N|,
    max|N|, r) holds and to Python ints otherwise. For each i the two sides
    are GEMMs on that operand, compared with np.array_equal; the C-order
    witness is looked for only when they differ.
    """
    N = ring.N
    r = ring.rank
    u = ring.unit
    if N.shape != (r, r, r):
        raise DimensionMismatch(f"structure tensor shape {N.shape} != rank {r}")
    dual = np.asarray(ring.dual)
    violations: list[tuple[str, tuple[int, ...]]] = []

    eye = np.eye(r, dtype=np.int64)
    bad = (N[u] != eye) | (N[:, u, :] != eye)
    w = _first_mismatch(bad)
    if w is not None:
        violations.append(("unit", w))

    w = _associativity_witness(N)
    if w is not None:
        violations.append(("associativity", w))

    expected = np.zeros((r, r), dtype=np.int64)
    expected[np.arange(r), dual] = 1
    w = _first_mismatch(N[:, :, u] != expected)
    if w is not None:
        violations.append(("duality", w))

    frob = (N != N[dual].transpose(0, 2, 1)) | (N != N[:, dual, :].transpose(2, 1, 0))
    w = _first_mismatch(frob)
    if w is not None:
        violations.append(("frobenius", w))

    bad = np.bincount(dual, minlength=r) != 1
    if not bad.any():
        bad = np.arange(r) == u if dual[u] != u else dual[dual] != np.arange(r)
    w = _first_mismatch(bad)
    if w is not None:
        violations.append(("involution", w))

    return ValidationReport(valid=not violations, violations=violations)


def dual_from_structure(N: np.ndarray, unit: int) -> tuple[int, ...]:
    """Recover the duality permutation: dual(i) is the unique j with N[i][j][unit] = 1.

    Read off the unit column N[:, :, unit] at once; its first row without a
    single nonzero entry equal to 1 raises NoDual (none) or AmbiguousDual.
    """
    N = np.asarray(N)
    r = N.shape[0]
    if N.shape != (r, r, r):
        raise DimensionMismatch(f"structure tensor shape {N.shape} is not cubic")
    col = N[:, :, unit]
    hits = np.count_nonzero(col, axis=1)
    w = _first_mismatch((hits != 1) | (col.max(axis=1) != 1))
    if w is not None:
        raise (NoDual if hits[w] == 0 else AmbiguousDual)(*w)
    return tuple(col.argmax(axis=1).tolist())
