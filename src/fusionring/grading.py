"""Imprimitivity index, object order, and the universal cyclic grading.

The index of a simple X is the period of the fusion digraph of X on the
subcategory it generates; it equals the number of maximal-modulus
eigenvalues of the fusion matrix and the order of the universal grading
group of that subcategory. Index, order and grades are read off the
breadth-first profile of X (see subcat.object_profile): a simple first
occurring in X^n has grade n mod ind. The grading is cross-checked against
the character whose value on X is exp(2*pi*i/ind) * FPdim(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, MethodDisagreement
from .ring import FusionRing
from .spectral import (
    DEFAULT_EPS,
    DEFAULT_SEED,
    AGGREGATE_EPS,
    CharacterTable,
    FPData,
    character_table,
    fp_character,
    is_commutative,
    within_eps,
)
from .subcat import Subcategory, object_profile, restrict, restriction_order


@dataclass
class GradingData:
    """Cyclic grading of the subcategory generated by one simple.

    grades maps each ambient simple index of that subcategory to its residue
    modulo the index; components[a] lists the simples of grade a. When the
    grading was confirmed against a character of the restricted ring,
    character_checked is True (it is False when that ring is noncommutative
    and only the exponent construction applies).
    """

    index: int
    order: int
    grades: dict[int, int]
    components: tuple[tuple[int, ...], ...]
    character_checked: bool = True


def object_index(ring: FusionRing, i: int) -> int:
    """Imprimitivity index of e_i: the period of its fusion digraph on C(e_i)."""
    return object_profile(ring, i).index


def object_order(ring: FusionRing, i: int, cap: int | None = None) -> int:
    """Least n >= 1 such that the n-th power of e_i contains the unit.

    With an explicit cap, CapExceeded is raised when that n exceeds it.
    """
    order = object_profile(ring, i).order
    if cap is not None:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        if order > cap:
            raise CapExceeded(f"unit not reached in powers of simple {i} up to {cap}")
    return order


def universal_grading(ring: FusionRing, i: int,
                      fp: FPData | None = None,
                      table: CharacterTable | None = None,
                      eps: float = DEFAULT_EPS,
                      seed: int = DEFAULT_SEED) -> GradingData:
    """Cyclic exponent grading of C(e_i): simples first occurring in e_i^n have grade n mod ind.

    It is the universal grading of C(e_i), and of the ring when e_i is faithful,
    by the paper's theorem ind X = |U(C)| for faithful X, which is assumed here.
    When the restricted ring is commutative, grades are cross-checked against
    the first character mu with mu(e_i) = xi * FPdim(e_i), xi = exp(2*pi*i/ind):
    mu(k) / FPdim(k) must be xi**grade(k) for every member k. spectral.within_eps
    decides both, for all members at once; MethodDisagreement names the first
    failing member, unit first. Given the ambient fp and table, the characters
    of C(e_i) are read as restrictions of ambient ones.
    """
    profile = object_profile(ring, i)
    sub = Subcategory(members=profile.members)
    order_list = restriction_order(ring, sub)
    ind = profile.index
    grades = {k: profile.level[k] % ind for k in order_list}

    chars = None
    if fp is not None and table is not None:
        dims, chars = fp.dims[order_list], table.characters[:, order_list]
    else:
        small = restrict(ring, sub)
        if is_commutative(small):
            dims = fp_character(small, eps=eps).dims
            chars = character_table(small, eps=eps, seed=seed).characters

    if chars is not None:
        loc = order_list.index(i)
        xi = np.exp(2j * np.pi / ind)
        target = xi * dims[loc]
        hits = within_eps(chars[:, loc], target, AGGREGATE_EPS * max(1.0, abs(target)))
        if not hits:
            raise MethodDisagreement(
                f"no character takes the value xi*FPdim on the generator (ind={ind})")
        ratio = chars[hits[0]] / dims
        phase = np.rint(np.angle(ratio) / (2 * np.pi) * ind).astype(int) % ind
        off_power = ~np.isin(np.arange(len(order_list)),
                             within_eps(ratio, xi**phase, AGGREGATE_EPS))
        wrong = np.flatnonzero(off_power | (phase != [grades[k] for k in order_list]))
        if wrong.size:
            local, ambient = wrong[0], order_list[wrong[0]]
            raise MethodDisagreement(
                f"character value on simple {ambient} is not a power of xi" if off_power[local]
                else f"simple {ambient}: exponent grade {grades[ambient]} "
                     f"vs character grade {phase[local]}")

    components = tuple(
        tuple(sorted(k for k, g in grades.items() if g == a)) for a in range(ind))
    return GradingData(index=ind, order=profile.order, grades=grades,
                       components=components, character_checked=chars is not None)
