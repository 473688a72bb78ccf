"""Kernels and centers of objects and characters in a commutative fusion ring.

The kernel of a character is the set of simples on which it equals FPdim;
it always spans a fusion subcategory. The kernel of an object class is the
set of characters taking the FPdim value on it; the object is faithful
exactly when this kernel is trivial, and in that case every simple occurs
in some tensor power of the object (the Brauer property). "Equals" is
decided by spectral.within_eps, the one tolerance rule. The exponents of
first occurrence are the breadth-first levels of the object's fusion
digraph (see subcat.object_profile). Kernels, centers and the Brauer check
run on batches: characters_at_fpdim decides the kernels, or the centers, of many
supports on one support matrix, and check_brauer tests the Brauer property of many
simples in one walk over their profiles; the one-object functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapExceeded, ClosureViolation, DimensionMismatch, InternalInconsistency, ZeroClass)
from .ring import FusionRing, check_simples, closed_rows, closure_defect
from .spectral import DEFAULT_EPS, CharacterTable, FPData, within_eps
from .subcat import Subcategory, object_profile, profiles


@dataclass
class BrauerReport:
    """Outcome of the tensor-power coverage test for one simple.

    exponents maps each simple in some power up to the cap to the least
    n >= 0 at which it occurs in the n-th power of the generator;
    faithful_expected is the prediction from the kernel, faithful_actual the
    generated-subcategory fact.
    """

    faithful_expected: bool
    exponents: dict[int, int]
    cap_used: int
    faithful_actual: bool


def _closed_kernels(ring: FusionRing, values: np.ndarray, dims: np.ndarray,
                    eps: float, message: str) -> list[Subcategory]:
    """Per row of values, the simples j with values[row][j] within eps of dims[j].

    One within_eps decides every row and one closed_rows every closure; ClosureViolation,
    with closure_defect's witness, for the first row whose simples are not closed.
    """
    member = np.zeros(values.shape, dtype=bool)
    member.flat[within_eps(values, dims, eps)] = True
    bad = np.flatnonzero(~closed_rows(ring, member))
    if bad.size:
        kind, witness = closure_defect(ring, np.flatnonzero(member[bad[0]]))
        raise ClosureViolation(message.format(kind=kind, witness=witness))
    return [Subcategory(members=tuple(row.nonzero()[0].tolist())) for row in member]


def kernel_of_character(ring: FusionRing, fp: FPData, table: CharacterTable,
                        t: int, eps: float = DEFAULT_EPS) -> Subcategory:
    """Simples on which character t equals FPdim, as a closed subcategory."""
    check_simples(table.count, (t,))
    return _closed_kernels(ring, table.characters[[t]], fp.dims, eps,
                           "character kernel not closed under {kind} at {witness}; "
                           "lower eps or re-examine the table")[0]


def _support_class(ring: FusionRing, x: np.ndarray) -> np.ndarray:
    """The boolean support vector of the object class x.

    For x >= 0, chi(x) = FPdim(x) exactly when chi(e_j) = FPdim(e_j) for every
    j in supp(x), and |chi(x)| = FPdim(x) exactly when the chi(e_j) also share
    one phase; both depend on supp(x) only. Deciding them on the support keeps
    coefficients past 2**53 out of the floating-point sums.
    """
    x = np.asarray(x)
    if x.shape != (ring.rank,):
        raise DimensionMismatch("class vectors must have length equal to the rank")
    coeffs = x.tolist()
    try:
        integral = all(c >= 0 and (isinstance(c, int) or float(c).is_integer()) for c in coeffs)
    except TypeError:  # a complex, str or None coefficient has no order
        integral = False
    if not integral:
        raise ValueError("object classes must have nonnegative integer coefficients")
    if not any(coeffs):
        raise ZeroClass("class vector is zero")
    return x.astype(bool)


def characters_at_fpdim(fp: FPData, table: CharacterTable, supports: np.ndarray,
                        eps: float = DEFAULT_EPS, modulus: bool = False) -> list[frozenset[int]]:
    """The kernel, or with modulus=True the center, of every column of a 0/1 support matrix.

    Column c stands for the objects with that support: its values are
    characters @ supports[:, c] and its target FPdim is dims @ supports[:, c].
    The kernel holds the characters whose value is within eps of the target,
    the center those whose modulus is; one within_eps call decides all columns.
    """
    supports = np.asarray(supports)
    size = table.count
    values = supports.T.dot(table.characters.T)  # a row per column of supports
    found = [[] for _ in range(supports.shape[1])]
    for flat in within_eps(values, fp.dims.dot(supports)[:, None], eps, modulus=modulus):
        found[flat // size].append(flat % size)  # flat = c * size + t
    return [frozenset(ts) for ts in found]


def kernel_of_class(ring: FusionRing, fp: FPData, table: CharacterTable,
                    x: np.ndarray, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Characters taking the value FPdim(x) on the class x, decided on supp(x)."""
    return characters_at_fpdim(fp, table, _support_class(ring, x)[:, None], eps)[0]


def center_of_class(ring: FusionRing, fp: FPData, table: CharacterTable,
                    x: np.ndarray, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Characters whose modulus on the class x attains FPdim(x), decided on supp(x)."""
    return characters_at_fpdim(fp, table, _support_class(ring, x)[:, None], eps, modulus=True)[0]


def verify_brauer(ring: FusionRing, fp: FPData, table: CharacterTable,
                  i: int, cap: int | None = None,
                  eps: float = DEFAULT_EPS) -> BrauerReport:
    """Check the tensor-power property of e_i against its kernel; see check_brauer.

    Records the first exponent n <= cap at which each simple occurs in the
    n-th power of e_i, which is its level in the profile of e_i.
    """
    kernel = characters_at_fpdim(fp, table, ring.basis_vector(i)[:, None], eps)[0]
    trivial = kernel == {table.fp_index}
    cap_used = check_brauer(ring, [i], [trivial], cap)[0]
    profile = object_profile(ring, i)
    exponents = {k: n for k, n in enumerate(profile.level) if 0 <= n <= cap_used}
    return BrauerReport(trivial, exponents, cap_used, len(profile.members) == ring.rank)


def check_brauer(ring: FusionRing, simples: Sequence[int], trivial: Sequence[bool],
                 cap: int | None = None) -> list[int]:
    """Check the tensor-power property of every simple of the batch against its kernel.

    trivial[k] says whether the kernel of simples[k] is trivial. A trivial
    kernel must, and a nontrivial one must not, produce every simple in the
    powers e_i^n with n <= cap; the generated-subcategory notion of
    faithfulness must agree with both. All three are read off the cached
    profiles: e_i covers the basis within the cap when C(e_i) is the whole
    ring and its deepest level is at most the cap. The first
    failing simple of the batch is named: CapExceeded when a predicted-faithful
    simple runs out of budget before covering the basis, InternalInconsistency
    otherwise. The cap defaults per simple to the Wielandt-style
    (|C(e_i)| - 1)^2 + 1 + ind. Returns the cap of each simple.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    simples = list(simples)
    batch = profiles(ring, ([i] for i in simples))
    if len(trivial) != len(batch):
        raise ValueError("check_brauer takes one kernel flag per simple")
    caps = []
    for i, profile, expected in zip(simples, batch, map(bool, trivial)):
        size = len(profile.members)
        caps.append((size - 1) ** 2 + 1 + profile.index if cap is None else cap)
        actual = size == ring.rank  # C(e_i) is the whole ring
        covered = actual and max(profile.level) <= caps[-1]
        if expected and not covered:
            found = sum(0 <= n <= caps[-1] for n in profile.level)
            raise CapExceeded(
                f"kernel of simple {i} is trivial but powers up to {caps[-1]} missed "
                f"{ring.rank - found} simples (closure says faithful={actual})")
        if not expected == covered == actual:
            raise InternalInconsistency(
                f"simple {i}: kernel-trivial={expected}, covered={covered}, "
                f"closure-faithful={actual}")
    return caps


def kernel_via_subring_idempotents(ring: FusionRing, fp: FPData, table: CharacterTable,
                                   i: int, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Kernel of e_i through the idempotent of its generated subring.

    Forms the regular idempotent of C(e_i) in the ambient basis from fp (FP
    dimensions restrict to subrings) and returns the characters evaluating
    to 1 on it; evaluation on a central idempotent is always 0 or 1.
    An eps below 1e-9 is raised to 1e-9, since the computed values miss 0 and
    1 by rounding: by up to 1.8e-14 on the commutative catalog rings, where an
    eps of 1e-14 would disagree with kernel_of_class on 5 of their 469 simples.
    """
    members = list(object_profile(ring, i).members)
    e = np.zeros(ring.rank, dtype=complex)
    e[members] = fp.dims[members] / np.sum(fp.dims[members] ** 2)
    return frozenset(within_eps(table.characters @ e, 1.0, max(eps, 1e-9)))
