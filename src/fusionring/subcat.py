"""Fusion subcategories generated by objects, restriction, and faithfulness.

A subcategory is represented by the set of basis indices of its simples;
it must contain the unit and be closed under duals and under constituents
of pairwise products. What the powers of one simple decide is read off one
cached breadth-first search (ObjectProfile). Faithfulness of a simple is
equivalent to indecomposability of its fusion matrix, tested independently
and exactly by strong connectivity of the fusion digraph.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InternalInconsistency, NotClosed
from .ring import FusionRing


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
    """What the powers of one simple X decide, from one BFS of its fusion digraph.

    The digraph has an edge j -> k when e_k occurs in X * e_j. As N >= 0, the
    support of X^n is exactly the set of simples reached from the unit by walks
    of length n. So level[k] is the least n with e_k in X^n (-1 if none);
    members, the simples reached, form C(X); index, the period of the digraph,
    is the gcd of level(u) + 1 - level(v) over its edges u -> v; and order,
    the least n >= 1 with the unit in X^n, is level(X*) + 1.
    """

    level: tuple[int, ...]
    members: tuple[int, ...]
    index: int
    order: int


# ring -> {simple: profile}; an entry goes when its ring is collected
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


def _build_profile(ring: FusionRing, i: int) -> ObjectProfile:
    adj = ring.N[i] > 0  # adj[j, k]: e_k occurs in X * e_j
    level = _levels(adj, ring.unit)
    members = np.flatnonzero(level >= 0)
    # every walk from a member stays in C(X), so C(X) is strongly connected
    # iff every member reaches the unit; X* is a member, as X * X* holds the unit
    if (_levels(adj.T, ring.unit)[members] < 0).any() or level[ring.dual[i]] < 0:
        raise InternalInconsistency(
            f"fusion digraph of simple {i} is not strongly connected on its own subcategory")
    u, v = np.nonzero(adj[members])
    return ObjectProfile(level=tuple(level.tolist()), members=tuple(members.tolist()),
                         index=int(np.gcd.reduce(level[members[u]] + 1 - level[v])),
                         order=int(level[ring.dual[i]]) + 1)


def object_profile(ring: FusionRing, i: int) -> ObjectProfile:
    """Profile of e_i, computed once per ring and simple."""
    profiles = _PROFILES.setdefault(ring, {})
    if i not in profiles:
        profiles[i] = _build_profile(ring, i)
    return profiles[i]


def closure_defect(ring: FusionRing, members: Iterable[int]):
    """First witness that `members` is not closed, or None if it is closed.

    Checks unit membership, duals, and constituents of pairwise products.
    """
    S = set(int(m) for m in members)
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


def generated_subcategory(ring: FusionRing, gens: Iterable[int]) -> Subcategory:
    """Least closed set of simples containing the generators and the unit.

    One generator is read off its profile; several are closed by iteration.
    """
    gens = [int(g) for g in gens]
    if len(gens) == 1:
        return Subcategory(members=object_profile(ring, gens[0]).members)
    S = set(gens) | {ring.unit}
    while True:
        new = {ring.dual[i] for i in S}
        new.update(int(k) for i in S for j in S for k in np.nonzero(ring.N[i, j])[0])
        if new <= S:
            return Subcategory(members=tuple(sorted(S)))
        S |= new


def is_faithful(ring: FusionRing, i: int) -> bool:
    """True iff the subcategory generated by e_i is the whole ring."""
    return len(object_profile(ring, i).members) == ring.rank


def is_indecomposable_matrix(A: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge j -> k when A[k][j] > 0.

    Equivalent to A admitting no partition of the index set into nonempty
    M, N with A[m][n] = 0 for m in M, n in N. Exact integer test, no
    floating point involved.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    for M in (A, A.T):  # forward edges, then backward ones
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
