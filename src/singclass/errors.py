"""Exception types shared across the package."""


class SingclassError(Exception):
    """Base class for all package errors."""


class OrderExceedsSmoothness(SingclassError):
    """A derivative order beyond the map's declared smoothness was requested."""


class NonFiniteMatrix(SingclassError):
    """A matrix to be decomposed has an infinite or NaN entry."""


class SingularBorder(SingclassError):
    """Bordered matrix is rank-deficient at the working tolerance."""


class NotIndependent(SingclassError):
    """Functional rows are not linearly independent at the working tolerance."""


class SingularAffine(SingclassError):
    """Affine change of coordinates with a (numerically) singular matrix."""


class NotSimple(SingclassError):
    """The base point is not a simple singularity (kernel dimension != 1)."""


class IllConditioned(SingclassError):
    """A linearization required by a construction is too ill-conditioned."""


class VanishingScale(SingclassError):
    """A pair rescaling function vanishes on the working neighbourhood."""


class NoConvergence(SingclassError):
    """An iterative projection failed to converge within the step budget."""


class DegenerateGradient(SingclassError):
    """Newton projection attempted where the driving gradient vanishes."""


class UnknownName(SingclassError):
    """Unknown gallery fixture name."""


class ParamOutOfRange(SingclassError):
    """Gallery/problem parameter outside the documented range."""


class AliasedCoefficients(SingclassError):
    """Coefficient function not representable below the grid bandlimit."""


class ConfigParseError(SingclassError):
    """Malformed configuration document."""
