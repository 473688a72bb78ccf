"""Fusion subcategories generated by objects, restriction, and faithfulness.

A subcategory is represented by the set of basis indices of its simples;
it must contain the unit and be closed under duals and under constituents
of pairwise products. What the powers of an object decide, and the subcategory
any set of simples generates, is read off one cached breadth-first search per
support (ObjectProfile). Faithfulness of a simple is equivalent to
indecomposability of its fusion matrix, tested independently and exactly by
the Frobenius criterion (I + A)^(n-1) > 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InternalInconsistency, NotClosed
from .ring import FusionRing, check_simples


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
    """What the powers of an object X decide, from one BFS of its fusion digraph.

    The digraph has an edge j -> k when e_k occurs in e_s * e_j for a simple s
    in the support of X. As N >= 0, the support of X^n is exactly the set of
    simples reached from the unit by walks of length n, so the support of X
    decides all. level[k] is the least n with e_k in X^n (-1 if none); members,
    the simples reached, form C(X); index, the period of the digraph, is the gcd
    of level(u) + 1 - level(v) over its edges u -> v; and order, the first
    return to the unit, is 1 + the least level of a member with an edge into
    the unit. The empty support reaches the unit alone, with index and order 0.
    """

    level: tuple[int, ...]
    members: tuple[int, ...]
    index: int
    order: int


# ring -> {support: profile}; an entry goes when its ring is collected
_PROFILES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _levels(adj: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first level of each node from start along the edges adj[u, v]; -1 if unreached."""
    level = np.full(adj.shape[0], -1)
    frontier = np.arange(adj.shape[0]) == start
    n = 0
    while frontier.any():
        level[frontier] = n
        frontier = adj[frontier].any(axis=0) & (level < 0)
        n += 1
    return level


def _build_profile(ring: FusionRing, support: frozenset[int]) -> ObjectProfile:
    adj = (ring.N[sorted(support)] > 0).any(axis=0)  # adj[j, k]: e_k occurs in X * e_j
    level = _levels(adj, ring.unit)
    members = np.flatnonzero(level >= 0)
    returns = level[members[adj[members, ring.unit]]]
    # every walk from a member stays in C(X), so C(X) is strongly connected
    # iff every member reaches the unit; then a nonempty support returns to it
    if (_levels(adj.T, ring.unit)[members] < 0).any() or (support and not returns.size):
        raise InternalInconsistency(
            f"fusion digraph of {sorted(support)} is not strongly connected on its subcategory")
    u, v = np.nonzero(adj[members])
    return ObjectProfile(level=tuple(level.tolist()), members=tuple(members.tolist()),
                         index=int(np.gcd.reduce(level[members[u]] + 1 - level[v])),
                         order=int(returns.min()) + 1 if returns.size else 0)


def object_profile(ring: FusionRing, *simples: int) -> ObjectProfile:
    """Profile of any object whose support is `simples`, computed once per ring and support."""
    profiles = _PROFILES.setdefault(ring, {})
    support = frozenset(simples)
    if support not in profiles:
        check_simples(ring.rank, support)
        profiles[support] = _build_profile(ring, support)
    return profiles[support]


def closure_defect(ring: FusionRing, members: Iterable[int]):
    """First witness that `members` is not closed, or None if it is closed.

    Checks, on one membership mask, the unit, the duals, then the constituents
    of pairwise products; each witness is the first failure in sorted order.
    """
    S = sorted({int(m) for m in members})
    check_simples(ring.rank, S)
    inside = np.isin(np.arange(ring.rank), S)
    if not inside[ring.unit]:
        return ("unit", (ring.unit,))
    out = np.flatnonzero(~inside[np.asarray(ring.dual)[S]])
    if out.size:
        return ("dual", (S[out[0]],))
    i, j, k = np.nonzero((ring.N[np.ix_(S, S)] > 0) & ~inside)
    if i.size:
        return ("product", (S[i[0]], S[j[0]], int(k[0])))
    return None


def generated_subcategory(ring: FusionRing, gens: Iterable[int]) -> Subcategory:
    """Least closed set of simples containing the generators and the unit.

    It is C(x) for any object x with support `gens`: the members of the profile
    of that support, the simples in some power of x (the unit alone if none).
    """
    return Subcategory(members=object_profile(ring, *gens).members)


def is_faithful(ring: FusionRing, i: int) -> bool:
    """True iff the subcategory generated by e_i is the whole ring."""
    return len(object_profile(ring, i).members) == ring.rank


def is_indecomposable_matrix(A: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge j -> k when A[k][j] > 0.

    Equivalent to A admitting no partition of the index set into nonempty
    M, N with A[m][n] = 0 for m in M, n in N, and to (I + P)^(n-1) > 0 for its
    0/1 pattern P: (n-1).bit_length() squarings, exact in float64 (entries <= n).
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    reach = np.eye(n) + (A > 0)
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return bool(reach.all())


def restriction_order(ring: FusionRing, sub: Subcategory) -> list[int]:
    """Ambient indices of the subcategory members, unit first."""
    return [ring.unit] + [m for m in sub.members if m != ring.unit]


def restrict(ring: FusionRing, sub: Subcategory) -> FusionRing:
    """Fusion ring on the members of a closed subcategory, unit re-indexed to 0."""
    defect = closure_defect(ring, sub.members)
    if defect is not None:
        kind, witness = defect
        raise NotClosed(f"member set not closed under {kind}, witness {witness}")
    order = restriction_order(ring, sub)
    pos = {a: p for p, a in enumerate(order)}
    idx = np.asarray(order)
    N_sub = ring.N[np.ix_(idx, idx, idx)]
    labels = tuple(ring.labels[a] for a in order)
    dual = tuple(pos[ring.dual[a]] for a in order)
    return FusionRing(labels=labels, N=N_sub, dual=dual, unit=0)
