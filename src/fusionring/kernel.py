"""Kernels and centers of objects and characters in a commutative fusion ring.

The kernel of a character is the set of simples on which it equals FPdim;
it always spans a fusion subcategory. The kernel of an object class is the
set of characters taking the FPdim value on it; the object is faithful
exactly when this kernel is trivial, and in that case every simple occurs
in some tensor power of the object (the Brauer property). "Equals" is
decided by spectral.within_eps, the one tolerance rule. The exponents of
first occurrence are the breadth-first levels of the object's fusion
digraph (see subcat.object_profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceeded, ClosureViolation, DimensionMismatch, InternalInconsistency, ZeroClass)
from .ring import FusionRing, check_simples
from .spectral import (
    DEFAULT_EPS,
    CharacterTable,
    FPData,
    fpdim_of_class,
    within_eps,
)
from .subcat import (
    Subcategory,
    closure_defect,
    is_faithful,
    object_profile,
)


@dataclass
class BrauerReport:
    """Outcome of the tensor-power coverage test for one simple.

    exponents maps each simple in some power up to the cap to the least
    n >= 0 at which it occurs in the n-th power of the generator;
    faithful_expected is the prediction from the kernel, faithful_actual the
    generated-subcategory fact.
    """

    faithful_expected: bool
    exponents: dict[int, int] = field(default_factory=dict)
    cap_used: int = 0
    faithful_actual: bool = True


def _check_class(ring: FusionRing, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (ring.rank,):
        raise DimensionMismatch("class vectors must have length equal to the rank")
    coeffs = x.tolist()
    if not all(c >= 0 and (isinstance(c, int) or float(c).is_integer()) for c in coeffs):
        raise ValueError("object classes must have nonnegative integer coefficients")
    if not any(coeffs):
        raise ZeroClass("class vector is zero")
    return x


def _closed_kernel(ring: FusionRing, values: np.ndarray, dims: np.ndarray,
                   eps: float, message: str) -> Subcategory:
    """Simples j with values[j] within eps of dims[j]; ClosureViolation unless they are closed."""
    members = within_eps(values, dims, eps)
    defect = closure_defect(ring, members)
    if defect is not None:
        kind, witness = defect
        raise ClosureViolation(message.format(kind=kind, witness=witness))
    return Subcategory(members=tuple(members))


def kernel_of_character(ring: FusionRing, fp: FPData, table: CharacterTable,
                        t: int, eps: float = DEFAULT_EPS) -> Subcategory:
    """Simples on which character t equals FPdim, as a closed subcategory."""
    check_simples(table.count, (t,))
    return _closed_kernel(ring, table.characters[t], fp.dims, eps,
                          "character kernel not closed under {kind} at {witness}; "
                          "lower eps or re-examine the table")


def _support_class(ring: FusionRing, x: np.ndarray) -> np.ndarray:
    """The 0/1 support vector of the object class x.

    For x >= 0, chi(x) = FPdim(x) exactly when chi(e_j) = FPdim(e_j) for every
    j in supp(x), and |chi(x)| = FPdim(x) exactly when the chi(e_j) also share
    one phase; both depend on supp(x) only. Deciding them on the support keeps
    coefficients past 2**53 out of the floating-point sums.
    """
    return (_check_class(ring, x) != 0).astype(np.int64)


def kernel_of_class(ring: FusionRing, fp: FPData, table: CharacterTable,
                    x: np.ndarray, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Characters taking the value FPdim(x) on the class x, decided on supp(x)."""
    s = _support_class(ring, x)
    return frozenset(within_eps(table.characters @ s.astype(complex), fpdim_of_class(fp, s), eps))


def center_of_class(ring: FusionRing, fp: FPData, table: CharacterTable,
                    x: np.ndarray, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Characters whose modulus on the class x attains FPdim(x), decided on supp(x)."""
    s = _support_class(ring, x)
    return frozenset(within_eps(table.characters @ s.astype(complex), fpdim_of_class(fp, s),
                                eps, modulus=True))


def default_brauer_cap(ring: FusionRing, i: int) -> int:
    """Wielandt-style cap: (r-1)^2 + 1 + ind on the generated subcategory."""
    profile = object_profile(ring, i)
    return (len(profile.members) - 1) ** 2 + 1 + profile.index


def verify_brauer(ring: FusionRing, fp: FPData, table: CharacterTable,
                  i: int, cap: int | None = None,
                  eps: float = DEFAULT_EPS) -> BrauerReport:
    """Check the tensor-power property of e_i against its kernel.

    Records the first exponent n <= cap at which each simple occurs in the
    n-th power of e_i, which is its level in the profile of e_i. A trivial
    kernel must, and a nontrivial one must not, produce every simple; the
    generated-subcategory notion of faithfulness must agree with both.
    CapExceeded is raised when a predicted-faithful simple runs out of
    budget before covering the basis.
    """
    if cap is None:
        cap = default_brauer_cap(ring, i)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    kernel = kernel_of_class(ring, fp, table, ring.basis_vector(i), eps=eps)
    faithful_expected = kernel == {table.fp_index}
    faithful_actual = is_faithful(ring, i)

    exponents = {k: n for k, n in enumerate(object_profile(ring, i).level) if 0 <= n <= cap}
    all_found = len(exponents) == ring.rank

    if faithful_expected and not all_found:
        raise CapExceeded(
            f"kernel of simple {i} is trivial but powers up to {cap} missed "
            f"{ring.rank - len(exponents)} simples (closure says faithful={faithful_actual})")
    if faithful_expected != all_found or faithful_expected != faithful_actual:
        raise InternalInconsistency(
            f"simple {i}: kernel-trivial={faithful_expected}, covered={all_found}, "
            f"closure-faithful={faithful_actual}")
    return BrauerReport(faithful_expected=faithful_expected, exponents=exponents,
                        cap_used=cap, faithful_actual=faithful_actual)


def kernel_via_subring_idempotents(ring: FusionRing, fp: FPData, table: CharacterTable,
                                   i: int, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Kernel of e_i through the idempotent of its generated subring.

    Forms the regular idempotent of C(e_i) in the ambient basis from fp (FP
    dimensions restrict to subrings) and returns the characters evaluating
    to 1 on it; evaluation on a central idempotent is always 0 or 1.
    """
    members = list(object_profile(ring, i).members)
    e = np.zeros(ring.rank, dtype=complex)
    e[members] = fp.dims[members] / np.sum(fp.dims[members] ** 2)
    return frozenset(within_eps(table.characters @ e, 1.0, max(eps, 1e-9)))
