"""Fusion rings given by structure constants, and exact multiplication primitives.

A fusion ring of rank r is a based ring with basis e_0, ..., e_{r-1}, unit
e_0 (by normalization), a duality involution, and nonnegative integer
structure constants N[i][j][k] giving the multiplicity of e_k in e_i * e_j.
All integer arithmetic in this module is exact and follows one rule: a
float type while every partial sum is provably an exact integer in it
(:func:`_float32_exact`, :func:`_float64_exact`), Python integers otherwise,
so it never rounds or wraps around. :func:`exact_matvec` applies the float64
bound per product, :func:`validate` both bounds once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import AmbiguousDual, DimensionMismatch, NoDual, NotClosed


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


def _float32_exact(bound_a: int, bound_b: int, inner: int) -> bool:
    """The 2**24 rule, the float32 twin of _float64_exact: below 2**24 float32 holds every
    partial sum of such a product exactly."""
    return bound_a * bound_b * inner < 2**24


# Entries per block of every r^3 pass that runs in blocks of one index: validate's
# associativity GEMMs and Frobenius mask, the Verlinde tensor, the profiles' edge
# lists. It splits r = 64 into several blocks: a single block as large as N made
# the Verlinde peak worse than the unblocked tensor.
_BLOCK = 2**16


def blocks(n: int, row: int) -> list[slice]:
    """Slices covering range(n) in order, each of at most max(1, _BLOCK // row) indices."""
    step = max(1, _BLOCK // row)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


#: real multiply-adds (a complex one counts 4) below which OpenBLAS runs a GEMM on the
#: calling thread. A threaded call wakes OpenBLAS's worker thread, which then spins for
#: longer than a whole `modular` call: a caller moved to the CPU it spins on stalls for
#: scheduler ticks, 8-16 ms, in that call or in any later one, pure Python included.
_GEMM_MADDS = 2**18


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The matrix product a @ b, into out if given, in calls that OpenBLAS runs unthreaded.

    The rows of a are split evenly into calls of fewer than _GEMM_MADDS multiply-adds each,
    never with a short last call: numpy hands a one-row product to GEMV, which OpenBLAS
    threads. Where fewer than 8 rows fit, the product is one call, since calls that thin
    cost more than the stalls they avoid (on 2 vCPUs, 3-row Verlinde calls at pointed_zn(128)
    took 90 ms against 29 ms threaded). Callers put the long side of a product in its rows.
    """
    m = len(a)
    if out is None:
        out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
    step = (_GEMM_MADDS - 1) // max(1, b.size * (4 if out.dtype.kind == "c" else 1))
    calls = -(-m // step) if step >= 8 else 1
    for c in range(calls):
        rows = slice(c * m // calls, (c + 1) * m // calls)
        np.matmul(a[rows], b, out=out[rows])
    return out


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


def _sealed(A: np.ndarray) -> bool:
    """Whether nothing can write A's memory through a writable array: A and every array it
    views are read-only, and the last of them owns its memory."""
    while A is not None:
        if not isinstance(A, np.ndarray) or A.flags.writeable:
            return False
        A = A.base
    return True


def structure_constants(N, rank: int) -> np.ndarray:
    """N as a read-only int64 tensor of shape (rank, rank, rank); the one place deciding it.
    ValueError unless every entry is an integer in [0, 2**63), decided before the cast, which
    would wrap or saturate; booleans are not integers, also where numpy made them numbers.
    A read-only int64 array that no writable array shares memory with, as this returns, is
    kept without a copy, and so is the int64 array made from a nested list."""
    A = np.ascontiguousarray(N)
    if A.shape != (rank, rank, rank):
        raise DimensionMismatch(f"structure tensor shape {A.shape} != ({rank}, {rank}, {rank})")
    if A.dtype == object:
        integers = set(map(type, A.ravel())) <= {int}
    elif not isinstance(N, np.ndarray) and {bool, np.bool_} & set(
            map(type, np.asarray(N, dtype=object).ravel())):
        integers = False
    else:
        integers = A.dtype.kind in "iu" or (
            A.dtype.kind == "f" and np.all(np.isfinite(A) & (A == np.rint(A))))
    if not integers:
        raise ValueError("structure constants must be integers")
    try:  # Python ints are cast in C, which raises OverflowError past int64
        T = A.astype(np.int64) if A.dtype == object else A
    except OverflowError:
        T = None
    if T is None or T.size and not 0 <= int(T.min()) <= int(T.max()) < 2**63:
        raise ValueError("structure constants must be nonnegative and below 2**63")
    # an array numpy built from a list or tuple is this call's own, so it is sealed in place
    fresh = isinstance(N, (list, tuple))
    T = T.astype(np.int64, copy=T is A and not (fresh or _sealed(A)))
    T.setflags(write=False)
    return T


@dataclass(frozen=True, eq=False)
class FusionRing:
    """A based ring: labels, structure tensor N[i][j][k], duality, unit index.

    Instances are immutable; the structure tensor is stored read-only.
    Construction decides N by :func:`structure_constants` and checks shapes;
    the based-ring axioms are checked by :func:`validate`.
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
        object.__setattr__(self, "N", structure_constants(self.N, r))
        dual = tuple(int(d) for d in self.dual)
        if len(dual) != r or any(d < 0 or d >= r for d in dual):
            raise DimensionMismatch("dual must assign a basis index to every basis index")
        object.__setattr__(self, "dual", dual)
        if not 0 <= self.unit < r:
            raise DimensionMismatch(f"unit index {self.unit} out of range for rank {r}")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def edges(self) -> np.ndarray:
        """The read-only pattern N > 0, built on first use: edges[i, j, k] iff e_k is in e_i * e_j.

        validate's choice of generators, the profiles' searches and analyze's check of
        the profiles all read this one array, so a ring builds its r^3 bytes once.
        """
        edges = self.N > 0
        edges.setflags(write=False)
        return edges

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


def closure_defect(ring: FusionRing, members: Iterable[int]):
    """First witness that `members` is not closed, or None if it is closed.

    Checks, on one membership mask, the unit, the duals, then the constituents
    of pairwise products; each witness is the first failure in sorted order.
    """
    S = sorted({int(m) for m in members})
    check_simples(ring.rank, S)
    inside = np.zeros(ring.rank, dtype=bool)
    inside[S] = True
    if not inside[ring.unit]:
        return ("unit", (ring.unit,))
    out = np.flatnonzero(~inside[np.asarray(ring.dual)[S]])
    if out.size:
        return ("dual", (S[out[0]],))
    i, j, k = np.nonzero((ring.N[np.ix_(S, S)] > 0) & ~inside)
    if i.size:
        return ("product", (S[i[0]], S[j[0]], int(k[0])))
    return None


def closed_rows(ring: FusionRing, member: np.ndarray) -> np.ndarray:
    """Per row of a boolean (count, rank) membership matrix, whether its simples are closed.

    The tests of closure_defect, decided for every row at once: the unit, the duals,
    then the constituents of pairwise products, only for rows that pass the first two.
    e_k is such a constituent of row g when P[g][k] = sum_ab m[g][a] m[g][b] edges[a][b][k]
    is positive. P is formed over blocks of b (see blocks): the block of ring.edges is cast
    to float32 on its own and multiplied, as block * rank rows (see gemm), by the rows
    holding a simple of the block, so beyond edges the memory is O(count * rank * block).
    Every term is 0 or 1, so a sum of them is positive, whatever its rounding, exactly when
    one term is.
    """
    r = ring.rank
    closed = member[:, ring.unit] & ~(member & ~member[:, list(ring.dual)]).any(axis=1)
    live = np.flatnonzero(closed)
    rows = member[live]
    weights = rows.astype(np.float32)
    reached = np.zeros(rows.shape, dtype=np.float32)
    for bs in blocks(r, r * r):
        g = np.flatnonzero(rows[:, bs].any(axis=1))
        if g.size:
            E = ring.edges[:, bs].astype(np.float32).reshape(r, -1)
            # X[b, k, g] = sum_a edges[a][b][k] m[g][a], over two columns at least (one
            # column would be a GEMV): a lone row g is taken twice
            W = weights[np.resize(g, max(2, g.size))]
            X = gemm(E.T, W.T).reshape(-1, r, len(W))
            reached[g] += np.einsum("gb,bkg->gk", W[:g.size, bs], X[:, :, :g.size])
    closed[live] = ~((reached > 0) & ~rows).any(axis=1)
    return closed


def relabel(ring: FusionRing, order, name: str = "") -> FusionRing:
    """The ring on the simples `order` of ring: order[p] becomes p, order[0] the unit.
    It is named `name`, unnamed by default. A permutation relabels the ring; a list
    closed under products and duals restricts it.
    IndexError for an index outside the ring, then NotClosed for a list that is not
    closed, then ValueError for a list that repeats a simple or does not start at the unit."""
    check_simples(ring.rank, order)
    defect = closure_defect(ring, order)
    if defect is not None:
        kind, witness = defect
        raise NotClosed(f"member set not closed under {kind}, witness {witness}")
    if order[0] != ring.unit or len(set(order)) != len(order):
        raise ValueError("order must list distinct simples, the unit first")
    pos = {a: p for p, a in enumerate(order)}
    return FusionRing(labels=tuple(ring.labels[a] for a in order),
                      N=ring.N[np.ix_(order, order, order)],
                      dual=tuple(pos[ring.dual[a]] for a in order), unit=0, name=name)


@dataclass
class ValidationReport:
    """Axiom-check outcome: one (axiom, witness) entry per violated axiom."""

    valid: bool
    violations: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)


def _first_mismatch(diff: np.ndarray):
    idx = np.argwhere(diff)
    return tuple(int(x) for x in idx[0]) if idx.size else None


def _first_in_blocks(r: int, axis: int, mask) -> tuple[int, ...] | None:
    """First True entry, in C order, of an (r, r, r) boolean tensor, or None.

    mask(s) gives the part with index s along `axis`, for the slices of
    blocks(r, r * r) in turn, so only one block exists at a time; the least of
    the blocks' first True entries is the tensor's.
    """
    found = []
    for s in blocks(r, r * r):
        m = mask(s)
        if m.any():
            w = _first_mismatch(m)
            found.append(w[:axis] + (s.start + w[axis],) + w[axis + 1:])
    return min(found, default=None)


def _associative_on(N: np.ndarray, dtype, i: int):
    """First (j, k, l) in C order with ((e_i e_j) e_k)[l] != (e_i (e_j e_k))[l], or None.

    lhs[j][k][l] = sum_m N[i][j][m] N[m][k][l] and rhs[j][k][l] = sum_m
    N[j][k][m] N[i][m][l] are formed over blocks of k: each block N[:, ks] is
    cast to dtype and takes two products of r * block rows (see gemm), so the extra
    memory is a few arrays of shape (r, block, r).
    """
    r = len(N)
    Mi = N[i].astype(dtype)

    def mismatch(ks):
        M = N[:, ks].astype(dtype)
        b = M.shape[1]
        lhs = gemm(M.reshape(r, b * r).T, Mi.T)  # lhs[j][k][l] at row (k, l), column j
        rhs = gemm(M.reshape(r * b, r), Mi)
        return lhs.reshape(b, r, r).transpose(2, 0, 1) != rhs.reshape(r, b, r)

    return _first_in_blocks(r, 1, mismatch)


def _associativity_witness(N: np.ndarray, unit: int, edges: np.ndarray):
    """First (i, j, k, l) in C order with ((e_i e_j) e_k)[l] != (e_i (e_j e_k))[l], or None.

    Only simples that generate the ring are checked. K = {x : (xy)z = x(yz) for
    all y, z} is a subspace containing e_unit when the left unit law holds, and
    ((uv)y)z = (u(vy))z = u((vy)z) = u(v(yz)) = (uv)(yz) makes it closed under
    products. So `covered` simples lie in K, and if e_a e_b (a, b covered) has
    exactly one uncovered constituent k, e_k = (e_a e_b - covered terms) / N[a][b][k]
    is covered too. When no product adds one, the uncovered simple likeliest to
    generate is checked by _associative_on: the one with the fewest product
    constituents, counted as (N[i] > 0).sum(), with invertibles (a count of r)
    last and ties broken by index. If it fails, the uncovered simples below it
    are checked in index order and the first that fails is returned; covered
    ones lie in K, so the failing simple and its C-order witness are those of
    checking every simple in turn. Products are only tried after a check: before
    the first, the covered set is empty or the unit alone, whose square is
    itself, so a round there adds nothing. edges is the pattern N > 0.
    """
    r = len(N)
    bound = _max_abs(N)
    dtype = (np.float32 if _float32_exact(bound, bound, r) else
             np.float64 if _float64_exact(bound, bound, r) else object)
    counts = edges.sum(axis=(1, 2))
    order = np.lexsort((counts, counts == r)).tolist()  # stable: ties stay in index order
    covered = np.zeros(r, dtype=bool)
    covered[unit] = np.array_equal(N[unit], np.eye(r, dtype=N.dtype))
    while not covered.all():
        i = next(a for a in order if not covered[a])
        w = _associative_on(N, dtype, i)
        if w is not None:
            for b in np.flatnonzero(~covered[:i]).tolist():
                wb = _associative_on(N, dtype, b)
                if wb is not None:
                    return (b, *wb)
            return (i, *w)
        covered[i] = True
        while not covered.all():
            out = edges[np.ix_(covered, covered)] & ~covered
            new = out[out.sum(axis=2) == 1].any(axis=0)
            if not new.any():
                break
            covered |= new
    return None


def validate(ring: FusionRing) -> ValidationReport:
    """Check unit law, associativity, duality, Frobenius reciprocity, involution.

    Returns a report listing every violated axiom with one witness index
    tuple, the first True entry of its mask; a valid ring returns an empty
    violation list.

    Associativity is checked exactly and only on simples that generate the
    ring (see _associativity_witness): the unit, when the left unit law
    holds, and each product constituent that is the only one not yet
    covered count as checked; of the rest, the simple with the fewest
    product constituents, invertibles last, is checked first, since it is
    the likeliest to generate. The dtype of the GEMMs is decided once per
    call from one bound max|N|: float32 when _float32_exact(max|N|, max|N|, r)
    holds, else float64 when _float64_exact does, else Python ints. For each
    checked i the two sides are GEMMs over blocks of N cast to that dtype
    (see _associative_on), and
    the witness is the one that checking every simple in index order would
    report: a failing check is followed by checks of the uncovered simples
    below it. The Frobenius mask is formed in blocks too, so beyond N the
    memory is O(r^2 * block) and the ring's one pattern N > 0 (ring.edges).
    """
    N = ring.N
    r = ring.rank
    u = ring.unit
    dual = np.asarray(ring.dual)
    violations: list[tuple[str, tuple[int, ...]]] = []

    eye = np.eye(r, dtype=np.int64)
    bad = (N[u] != eye) | (N[:, u, :] != eye)
    w = _first_mismatch(bad)
    if w is not None:
        violations.append(("unit", w))

    w = _associativity_witness(N, u, ring.edges)
    if w is not None:
        violations.append(("associativity", w))

    expected = np.zeros((r, r), dtype=np.int64)
    expected[np.arange(r), dual] = 1
    w = _first_mismatch(N[:, :, u] != expected)
    if w is not None:
        violations.append(("duality", w))

    # N[i][j][k] = N[i*][k][j] over blocks of i, and = N[k][j*][i] over blocks of j,
    # each block gathering whole rows of N
    found = [_first_in_blocks(r, 0, lambda s: N[s] != N[dual[s]].transpose(0, 2, 1)),
             _first_in_blocks(r, 1, lambda s: N[:, s] != N[:, dual[s]].transpose(2, 1, 0))]
    w = min(filter(None, found), default=None)
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
