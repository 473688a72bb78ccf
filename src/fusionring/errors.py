"""Exception hierarchy for fusion ring computations."""


class FusionRingError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FusionRingError):
    """A tensor, matrix or vector has a shape incompatible with the ring rank."""


class NoDual(FusionRingError):
    """No basis element pairs with the given one to contain the unit."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"basis element {index} has no dual: no j with N[i][j][unit] = 1")


class AmbiguousDual(FusionRingError):
    """More than one candidate dual, or a unit multiplicity above 1."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"basis element {index} has an ambiguous dual")


class ConvergenceFailure(FusionRingError):
    """The top eigenvector of the summed fusion matrices is not strictly positive."""


class NonCommutative(FusionRingError):
    """The operation requires a commutative Grothendieck ring."""


class DegenerateCombination(FusionRingError):
    """Every attempted random linear combination had an eigenvalue collision."""


class SingularCharacterMatrix(FusionRingError):
    """The character matrix is numerically singular (defective table)."""


class NotClosed(FusionRingError):
    """The given index set is not closed under duals and product constituents."""


class ClosureViolation(FusionRingError):
    """A computed kernel is not product-closed; indicates numerical misclassification."""


class ZeroClass(FusionRingError):
    """The class vector is zero where a nonzero object class is required."""


class CapExceeded(FusionRingError):
    """An iteration cap was reached before the search completed."""


class InternalInconsistency(FusionRingError):
    """Two computations that must agree by theorem disagreed."""


class MethodDisagreement(FusionRingError):
    """Exponent-based and character-based grade assignments disagree."""


class ZeroEntry(FusionRingError):
    """An S-matrix entry that must be nonzero vanishes within tolerance."""


class NonIntegral(FusionRingError):
    """A Verlinde structure constant is too far from an integer."""


class InvalidRing(FusionRingError):
    """Reconstructed structure constants do not form a valid fusion ring."""


class UnknownName(FusionRingError):
    """No built-in catalog entry with the requested name."""


class ParseError(FusionRingError):
    """A ring or S-matrix file could not be parsed."""


class ValidationFailed(FusionRingError):
    """A loaded ring violates the based-ring axioms."""

    def __init__(self, report, ring=None):
        self.report = report
        self.ring = ring
        axioms = ", ".join(sorted({name for name, _ in report.violations}))
        super().__init__(f"ring fails validation: {axioms}")


class DualMismatch(FusionRingError):
    """A declared duality permutation disagrees with the structure constants."""


class InvariantFailed(FusionRingError):
    """Modular data violates a structural invariant (symmetry, nondegeneracy, ...)."""


class VerlindeMismatch(FusionRingError):
    """The ring reconstructed from an S-matrix differs from the declared ring."""
