"""Exception types shared across the package."""


class AffcellsError(Exception):
    """Base class for all package-specific errors."""


class NotAUnit(AffcellsError):
    """Matrix determinant is not a monomial c*t^k, so no Laurent inverse exists."""


class BadWindow(AffcellsError, ValueError):
    """Window is empty, repeats a residue mod n, or does not sum to 1+...+n."""


class NotMonomialPermutation(AffcellsError):
    """Matrix is not a monomial matrix with ord(det) = 0."""


class PeriodMismatch(AffcellsError):
    """Affine permutations with different periods cannot be combined."""


class BadIndices(AffcellsError):
    """Reflection or divisor indices out of range."""


class SizeMismatch(AffcellsError):
    """Sizes that must agree do not: partition totals under dominance, or
    the frame, nilpotent and composition of a cotangent point."""


class NotNilpotent(AffcellsError):
    """Matrix expected to be constant nilpotent is not."""


class NotInNilradical(AffcellsError):
    """Matrix does not carry the i-th standard block into the (i-1)-th."""


class NotUnimodular(AffcellsError):
    """Determinant is not a nonzero constant of t-order zero."""


class NotContained(AffcellsError):
    """Claimed sublattice is not contained in the ambient lattice."""


class NotMaximalParabolic(AffcellsError):
    """Operation defined only for two-step (maximal parabolic) shapes."""


class IdentityFailed(AffcellsError):
    """An exact matrix identity that should hold by construction does not."""


class BadDivisorIndex(AffcellsError):
    """Divisor index outside 1..r-1."""


class FlagInvariantError(AffcellsError):
    """A lattice flag violates its defining incidence or dimension conditions."""
