"""Fusion subcategories generated by objects, restriction, and faithfulness.

A subcategory is represented by the set of basis indices of its simples;
it must contain the unit and be closed under duals and under constituents
of pairwise products. What the powers of an object decide, and the subcategory
any set of simples generates, is read off a breadth-first search of its fusion
digraph, cached per support (ObjectProfile). profiles builds every support it
misses in one batch: all simples of a ring at once, or a few supports searched
forwards and backwards in one pass. The search of all simples also keeps its
levels, indices and orders as read-only arrays, the ring's ProfileTable, which
the readers of every simple take whole (profile_rows); a batch of fewer simples
searches only its own supports. Faithfulness of a simple is equivalent to
indecomposability of its fusion matrix, tested independently and exactly by
the Frobenius criterion (I + A)^(n-1) > 0. A restricted ring is built once per
ring and member set while the ring lives, so what is cached per ring applies to it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InternalInconsistency
from .ring import FusionRing, blocks, check_simples, relabel


@dataclass(frozen=True)
class Subcategory:
    """Sorted basis indices of the simples of a fusion subcategory."""

    members: tuple[int, ...]

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ObjectProfile:
    """What the powers of an object X decide, from a breadth-first search of its fusion digraph.

    The digraph has an edge j -> k when e_k occurs in e_s * e_j for a simple s
    in the support of X. As N >= 0, the support of X^n is exactly the set of
    simples reached from the unit by walks of length n, so the support of X
    decides all. level[k] is the least n with e_k in X^n (-1 if none); members,
    the simples reached, form C(X); index, the period of the digraph, is the gcd
    of level(u) + 1 - level(v) over its edges u -> v; and order, the first
    return to the unit, is 1 + the least level of a member with an edge into
    the unit. The empty support reaches the unit alone, with index and order 0.
    A search backwards from the unit guards all of this: it must reach every
    member, else InternalInconsistency.
    """

    level: tuple[int, ...]
    members: tuple[int, ...]
    index: int
    order: int


@dataclass(frozen=True)
class ProfileTable:
    """The profiles of all simples of a ring as read-only arrays: row i of level (r x r),
    and entry i of index and order, are those of the ObjectProfile of e_i."""

    level: np.ndarray
    index: np.ndarray
    order: np.ndarray


# ring -> {support: profile}, and ring -> ProfileTable; an entry goes when its ring is collected
_PROFILES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# ring -> {members: the ring restricted to them}
_RESTRICTED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal keys in a sorted array."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _levels(adj: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first levels from start in each digraph adj[g] of a stack; -1 where unreached.

    The frontier is a list of (digraph, node) pairs sorted by digraph. Each level
    gathers their rows adj[g, u] at once and ORs them per digraph with one
    reduceat, so every pair is expanded once and the work is that of the edges.
    """
    depth = np.zeros(adj.shape[:2], dtype=np.int64)  # level + 1, so 0 where unreached
    rows = heads = np.arange(len(adj))
    nodes = np.full(len(adj), start)
    n = 1
    while rows.size:
        depth[rows, nodes] = n
        reached = np.logical_or.reduceat(adj[rows, nodes], heads)
        rows = rows[heads]
        k, nodes = (reached > depth[rows]).nonzero()
        rows, heads = rows[k], _run_starts(k)
        n += 1
    return depth - 1


def _build_profiles(ring: FusionRing, supports: list[frozenset[int]]) -> list[ObjectProfile]:
    """Profiles of objects with the given supports, from batched searches forwards and back.

    The search of all simples in order also keeps its arrays as the ring's ProfileTable.
    """
    r, unit, count = ring.rank, ring.unit, len(supports)
    everything = count == r and supports == [frozenset({i}) for i in range(r)]
    if everything:
        # the digraphs of all simples are the ring's pattern N > 0, searched backwards as a view
        adj = ring.edges  # adj[g, j, k]: e_k occurs in e_g * e_j
        level, back = _levels(adj, unit), _levels(adj.transpose(0, 2, 1), unit)
    else:  # a few digraphs: one search runs both ways
        adj = np.array([ring.edges[sorted(s)].any(axis=0) for s in supports])
        both = _levels(np.concatenate((adj, adj.transpose(0, 2, 1))), unit)
        level, back = both[:count], both[count:]
    member = level >= 0
    # 1 + the least level of a member with an edge into the unit; r + 1 (none) wraps to 0
    into_unit = member & adj[:, :, unit]
    order = (np.minimum.reduce(level, axis=1, initial=r, where=into_unit) + 1) % (r + 1)
    # every walk from a member stays in C(X), so C(X) is strongly connected
    # iff every member reaches the unit; then a nonempty support returns to it
    stuck = (member & (back < 0)).any(axis=1) | ((order == 0) & [len(s) > 0 for s in supports])
    if stuck.any():
        raise InternalInconsistency(f"fusion digraph of {sorted(supports[int(stuck.argmax())])} "
                                    "is not strongly connected on its subcategory")
    index = np.zeros(count, dtype=np.int64)
    for gs in blocks(count, r * r):  # the edge list of a block of digraphs, sorted by digraph
        gu, v = np.divmod(np.flatnonzero(adj[gs]) + gs.start * r * r, r)
        g = gu // r  # gu = g * r + u, the entry of level.ravel() at (g, u)
        tail = level.ravel()[gu]
        inside = tail >= 0
        g, gap = g[inside], (tail + 1 - level[g, v])[inside]
        heads = _run_starts(g)
        index[g[heads]] = np.gcd.reduceat(gap, heads)
    if everything:
        for array in (level, index, order):
            array.setflags(write=False)
        _TABLES[ring] = ProfileTable(level, index, order)
    return [ObjectProfile(level=tuple(row), members=tuple(k for k, n in enumerate(row) if n >= 0),
                          index=i, order=o)
            for row, i, o in zip(level.tolist(), index.tolist(), order.tolist())]


def profiles(ring: FusionRing, supports: Iterable[Iterable[int]]) -> list[ObjectProfile]:
    """Profiles of objects with the given supports, each computed once per ring and support.

    Indices are checked support by support, in order; every support not yet
    cached is then built in one batch.
    """
    cache = _PROFILES.setdefault(ring, {})
    supports = [frozenset(s) for s in supports]
    missing = list(dict.fromkeys(s for s in supports if s not in cache))
    for support in missing:
        check_simples(ring.rank, support)
    if missing:
        cache.update(zip(missing, _build_profiles(ring, missing)))
    return [cache[s] for s in supports]


def profile_table(ring: FusionRing) -> ProfileTable:
    """The ProfileTable of a ring, built with the profiles of its simples by one search."""
    table = _TABLES.get(ring)
    if table is None:
        singles = [frozenset({i}) for i in range(ring.rank)]
        _PROFILES.setdefault(ring, {}).update(zip(singles, _build_profiles(ring, singles)))
        table = _TABLES[ring]
    return table


def profile_rows(ring: FusionRing, simples: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level, index and order of each simple of a batch, a row or an entry per simple.

    All simples in order are the ring's ProfileTable itself; any other batch is stacked
    from the profiles of its own supports and never builds the table.
    """
    if len(simples) == ring.rank and simples == list(range(ring.rank)):
        table = profile_table(ring)
        return table.level, table.index, table.order
    batch = profiles(ring, ([i] for i in simples))
    return (np.array([p.level for p in batch], dtype=np.int64).reshape(len(batch), ring.rank),
            np.array([p.index for p in batch], dtype=np.int64),
            np.array([p.order for p in batch], dtype=np.int64))


def object_profile(ring: FusionRing, *simples: int) -> ObjectProfile:
    """Profile of any object whose support is `simples`; the batch of one of profiles."""
    return profiles(ring, [simples])[0]


def generated_subcategory(ring: FusionRing, gens: Iterable[int]) -> Subcategory:
    """Least closed set of simples containing the generators and the unit.

    It is C(x) for any object x with support `gens`: the members of the profile
    of that support, the simples in some power of x (the unit alone if none).
    """
    return Subcategory(members=object_profile(ring, *gens).members)


def is_faithful(ring: FusionRing, i: int) -> bool:
    """True iff the subcategory generated by e_i is the whole ring."""
    return len(object_profile(ring, i).members) == ring.rank


def is_indecomposable_matrix(A: np.ndarray) -> bool | np.ndarray:
    """Strong connectivity of the digraph with an edge j -> k when A[k][j] > 0.

    Equivalent to A admitting no partition of the index set into nonempty
    M, N with A[m][n] = 0 for m in M, n in N, and to (I + P)^(n-1) > 0 for its
    0/1 pattern P: at most (n-1).bit_length() squarings in float32, exact for every n that
    fits in memory, since each entry of a squaring is a sum of n terms 0 or 1 and is clipped
    back to 1. A boolean A is its own pattern. The positive entries are counted as integers.
    A matrix stops once its pattern is all positive or a squaring leaves it
    unchanged, as every later one would. The pattern holds I, so it only grows,
    and a squaring that keeps its count of positive entries keeps the pattern.
    A stack (..., n, n) gives a bool array of shape (...): in each block of
    matrices, the patterns still growing are squared as one batched matmul, and the
    stack of them is cut only in a squaring after which some pattern stops.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValueError("matrices must be square")
    n = A.shape[-1]
    whole = n * n
    stack = A.reshape(-1, n, n)
    full = np.empty(len(stack), dtype=bool)
    for gs in blocks(len(stack), max(1, whole)):
        reach = (stack[gs] if stack.dtype == bool else stack[gs] > 0).astype(np.float32)
        np.einsum("gii->gi", reach)[...] = 1.0  # a view of the diagonals, as reach may be strided
        count = np.count_nonzero(reach, axis=(1, 2))
        live, last = np.arange(len(reach)), count  # the live patterns and their counts
        for _ in range((n - 1).bit_length()):
            if not live.size:
                break
            reach = reach @ reach
            np.minimum(reach, 1.0, out=reach)
            now = np.count_nonzero(reach, axis=(1, 2))
            grows = now != last
            grows &= now < whole
            last = now
            if not grows.all():
                count[live] = now
                live, reach, last = live[grows], reach[grows], now[grows]
        count[live] = last
        full[gs] = count == whole
    return bool(full[0]) if A.ndim == 2 else full.reshape(A.shape[:-2])


def restriction_order(ring: FusionRing, sub: Subcategory) -> list[int]:
    """Ambient indices of the subcategory members, the unit first among them."""
    return sorted(sub.members, key=lambda m: m != ring.unit)


def restrict(ring: FusionRing, sub: Subcategory) -> FusionRing:
    """Unnamed fusion ring on the members of a closed subcategory, unit re-indexed to 0.

    Built once per ring and members while the ring lives; later calls return the same ring.
    """
    cache = _RESTRICTED.setdefault(ring, {})
    small = cache.get(sub.members)
    if small is None:
        small = cache[sub.members] = relabel(ring, restriction_order(ring, sub))
    return small
