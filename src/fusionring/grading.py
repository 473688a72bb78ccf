"""Imprimitivity index, object order, and the universal cyclic grading.

The index of a simple X is the period of the fusion digraph of X on the
subcategory it generates; it equals the number of maximal-modulus
eigenvalues of the fusion matrix and the order of the universal grading
group of that subcategory. Index, order and grades are read off the
breadth-first profile of X (see subcat.object_profile): a simple first
occurring in X^n has grade n mod ind. The grading is cross-checked against
the character whose value on X is exp(2*pi*i/ind) * FPdim(X). grade_simples
grades a batch of simples as array steps over their levels, one row per
simple (for all simples, the rows of the ring's profile table; see
subcat.profile_rows), and files each row's grades and components in one pass
over its levels; universal_grading is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
from .subcat import Subcategory, object_profile, profile_rows, restrict, restriction_order


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
    character_checked: bool


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
    When the restricted ring is commutative, grades are cross-checked against a
    character; see grade_simples, of which this is the batch of one simple.
    """
    return grade_simples(ring, [i], fp, table, eps=eps, seed=seed)[0]


def grade_simples(ring: FusionRing, simples: Sequence[int],
                  fp: FPData | None = None,
                  table: CharacterTable | None = None,
                  eps: float = DEFAULT_EPS,
                  seed: int = DEFAULT_SEED) -> list[GradingData]:
    """The grading of C(e_i) for every simple i of the batch, as array steps over all of them.

    Grades are the profile levels modulo the index, stacked one row per simple.
    When the restricted ring is commutative, each row is cross-checked against
    the first character mu with mu(e_i) = xi * FPdim(e_i), xi = exp(2*pi*i/ind):
    mu(k) / FPdim(k) must be a power of xi, namely xi**grade(k), for every member
    k. spectral.within_eps decides both; MethodDisagreement names the first
    failing simple of the batch and its first failing member, unit first. FP dims
    are the ambient ones, fp. On a commutative ring every character of C(e_i) is
    the restriction of an ambient one, so one table checks the whole batch; on a
    noncommutative ring each commutative C(e_i) is checked on its own table. fp
    and the ambient table are computed once here when not given.
    """
    simples = list(simples)
    r, unit, count = ring.rank, ring.unit, len(simples)
    level, index, order = profile_rows(ring, simples)
    ind = index[:, None]
    member = level >= 0
    grade = level % ind

    if fp is None:
        fp = fp_character(ring)
    if table is None and is_commutative(ring):
        table = character_table(ring, eps=eps, seed=seed)
    if table is not None:
        _cross_check(ring, simples, grade, ind, member, fp.dims, table.characters)
        checked = [True] * count
    else:
        checked = []
        for row, i in enumerate(simples):
            sub = Subcategory(members=tuple(np.flatnonzero(member[row]).tolist()))
            small, positions = restrict(ring, sub), restriction_order(ring, sub)
            checked.append(is_commutative(small))
            if checked[-1]:  # the characters of C(e_i), spread over the ambient basis
                chars = np.zeros((len(positions), r), dtype=complex)
                chars[:, positions] = character_table(small, eps=eps, seed=seed).characters
                at = slice(row, row + 1)
                _cross_check(ring, [i], grade[at], ind[at], member[at], fp.dims, chars)

    result = []
    for row_level, row_grade, row_index, row_order, row_checked in zip(
            level.tolist(), grade.tolist(), index.tolist(), order.tolist(), checked):
        grades = {unit: row_grade[unit]}  # unit first, then ascending
        components = [[] for _ in range(row_index)]
        for k, n in enumerate(row_level):
            if n >= 0:
                grades[k] = g = row_grade[k]
                components[g].append(k)
        result.append(GradingData(row_index, row_order, grades, tuple(map(tuple, components)),
                                  row_checked))
    return result


def _cross_check(ring: FusionRing, simples: list[int], grade: np.ndarray, ind: np.ndarray,
                 member: np.ndarray, dims: np.ndarray, chars: np.ndarray) -> None:
    """MethodDisagreement unless the character phases give the grades; see grade_simples.

    grade, ind and member have a row per simple; chars and dims span the
    ambient basis, so one ratio row per simple holds all its members at once.
    """
    count, size, unit = len(simples), len(chars), ring.unit
    xi = np.exp(1j * (2 * np.pi / ind))
    target = xi * dims[simples][:, None]
    hit = np.zeros((count, size), dtype=bool)
    hit.ravel()[within_eps(chars.T[simples], target,
                           AGGREGATE_EPS * np.maximum(1.0, np.abs(target)))] = True
    ratio = chars[hit.argmax(axis=1)] / dims  # each row's first hit, or character 0 if none
    angle = np.arctan2(ratio.imag, ratio.real)  # np.angle(ratio), bit for bit
    phase = np.rint(angle / (2 * np.pi) * ind).astype(np.int64) % ind
    near = np.zeros(ratio.shape, dtype=bool)
    near.ravel()[within_eps(ratio, xi ** phase, AGGREGATE_EPS)] = True
    wrong = member & (~near | (phase != grade))
    found = hit.any(axis=1)
    failed = ~found | wrong.any(axis=1)
    if not failed.any():
        return
    row = int(failed.argmax())  # the first failing simple of the batch
    if not found[row]:
        raise MethodDisagreement(
            f"no character takes the value xi*FPdim on the generator (ind={ind[row, 0]})")
    k = unit if wrong[row, unit] else int(wrong[row].argmax())
    raise MethodDisagreement(
        f"character value on simple {k} is not a power of xi" if not near[row, k]
        else f"simple {k}: exponent grade {grade[row, k]} vs character grade {phase[row, k]}")
