"""Imprimitivity index, object order, and the universal cyclic grading.

The index of a simple X is the period of the fusion digraph of X on the
subcategory it generates; it equals the number of maximal-modulus
eigenvalues of the fusion matrix and the order of the universal grading
group of that subcategory. Index, order and grades are read off the
breadth-first profile of X (see subcat.object_profile): a simple first
occurring in X^n has grade n mod ind. The grading is cross-checked against
the character whose value on X is exp(2*pi*i/ind) * FPdim(X). grade_rows
grades a batch of simples as array steps over their levels, one row per
simple (for all simples, the rows of the ring's profile table; see
subcat.profile_rows). GradedRows.components files each row's members by grade
in one pass over its levels, which is all analyze reads; grade_simples adds
each row's grades, and universal_grading is its batch of one.
"""

from __future__ import annotations

import itertools
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
    within_eps_mask,
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


@dataclass(frozen=True)
class GradedRows:
    """The gradings of a batch of simples as arrays, one row or entry per simple.

    level[row] holds the profile levels of e_i, -1 off C(e_i), and grade[row] the
    levels modulo index[row]. checked[row] is GradingData.character_checked.
    """

    index: np.ndarray
    order: np.ndarray
    level: np.ndarray
    grade: np.ndarray
    checked: list[bool]

    def components(self, names: Sequence) -> list[list[list]]:
        """Per row, its components D_0, ..., D_{ind-1}, each the list of names[k] of its
        members k in index order, filed in one pass over the row's levels."""
        result = []
        for row_level, row_grade, row_index in zip(self.level.tolist(), self.grade.tolist(),
                                                   self.index.tolist()):
            components = [[] for _ in range(row_index)]
            for name, n, g in zip(names, row_level, row_grade):
                if n >= 0:
                    components[g].append(name)
            result.append(components)
        return result


def grade_simples(ring: FusionRing, simples: Sequence[int],
                  fp: FPData | None = None,
                  table: CharacterTable | None = None,
                  eps: float = DEFAULT_EPS,
                  seed: int = DEFAULT_SEED) -> list[GradingData]:
    """The GradingData of every simple of the batch, from grade_rows and its components."""
    rows = grade_rows(ring, simples, fp, table, eps=eps, seed=seed)
    unit, result = ring.unit, []
    for row_level, row_grade, row_index, row_order, row_checked, components in zip(
            rows.level.tolist(), rows.grade.tolist(), rows.index.tolist(), rows.order.tolist(),
            rows.checked, rows.components(range(ring.rank))):
        grades = {unit: row_grade[unit]}  # unit first, then the members (level > -1) ascending
        grades.update(itertools.compress(enumerate(row_grade), map((-1).__lt__, row_level)))
        result.append(GradingData(row_index, row_order, grades, tuple(map(tuple, components)),
                                  row_checked))
    return result


def grade_rows(ring: FusionRing, simples: Sequence[int],
               fp: FPData | None = None,
               table: CharacterTable | None = None,
               eps: float = DEFAULT_EPS,
               seed: int = DEFAULT_SEED) -> GradedRows:
    """The grading of C(e_i) for every simple i of the batch, as array steps over all of them.

    Grades are the profile levels modulo the index, stacked one row per simple.
    When the restricted ring is commutative, each row is cross-checked against
    the first character mu with mu(e_i) = xi * FPdim(e_i), xi = exp(2*pi*i/ind):
    mu(k) / FPdim(k) must be a power of xi, namely xi**grade(k), for every member
    k. spectral.within_eps_mask decides both; MethodDisagreement names the first
    failing simple of the batch and its first failing member, unit first. FP dims
    are the ambient ones, fp. On a commutative ring every character of C(e_i) is
    the restriction of an ambient one, so one table checks the whole batch; on a
    noncommutative ring each commutative C(e_i) is checked on its own table. fp
    and the ambient table are computed once here when not given.
    """
    simples = list(simples)
    r, count = ring.rank, len(simples)
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

    return GradedRows(index, order, level, grade, checked)


def _cross_check(ring: FusionRing, simples: list[int], grade: np.ndarray, ind: np.ndarray,
                 member: np.ndarray, dims: np.ndarray, chars: np.ndarray) -> None:
    """MethodDisagreement unless the character phases give the grades; see grade_rows.

    grade, ind and member have a row per simple; chars and dims span the
    ambient basis, so one ratio row per simple holds all its members at once.
    """
    simples = np.asarray(simples)
    xi = np.exp(1j * (2 * np.pi / ind))
    target = xi * dims[simples, None]
    hit = within_eps_mask(chars.T[simples], target,
                          AGGREGATE_EPS * np.maximum(1.0, np.abs(target)))
    ratio = chars[hit.argmax(axis=1)] / dims  # each row's first hit, or character 0 if none
    angle = np.arctan2(ratio.imag, ratio.real)  # np.angle(ratio), bit for bit
    phase = np.rint(angle / (2 * np.pi) * ind).astype(np.int64) % ind
    near = within_eps_mask(ratio, xi ** phase, AGGREGATE_EPS)
    wrong = member & (~near | (phase != grade))
    found = hit.any(axis=1)
    if found.all() and not wrong.any():
        return
    row = int((~found | wrong.any(axis=1)).argmax())  # the first failing simple of the batch
    if not found[row]:
        raise MethodDisagreement(
            f"no character takes the value xi*FPdim on the generator (ind={ind[row, 0]})")
    k = ring.unit if wrong[row, ring.unit] else int(wrong[row].argmax())
    raise MethodDisagreement(
        f"character value on simple {k} is not a power of xi" if not near[row, k]
        else f"simple {k}: exponent grade {grade[row, k]} vs character grade {phase[row, k]}")
