"""Exception and warning types shared across the package."""


class XXChainError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidN(XXChainError):
    """Chain length is too small (fewer than two sites)."""


class BadBond(XXChainError):
    """Impurity bond index is out of range or duplicated."""


class NegativeAlpha(XXChainError):
    """Impurity strength must be non-negative."""


class ZeroCoupling(XXChainError):
    """Exchange coupling J must be nonzero."""


class NonFiniteParameter(XXChainError):
    """Exchange coupling, field and impurity strengths must be finite numbers."""


class ConvergenceFailure(XXChainError):
    """Eigensolver did not meet the residual or orthonormality contract."""


class NoBracket(XXChainError):
    """The alpha interval does not bracket the band-exit point."""


class TooSmallN(XXChainError):
    """Chain too short for a meaningful critical-strength estimate."""


class WrongConfiguration(XXChainError):
    """Operation requires a specific impurity layout (single bond-1 impurity)."""


class NotNormalized(XXChainError):
    """State amplitudes do not have unit norm."""


class BadSitePair(XXChainError):
    """Site pair must satisfy 1 <= i < j <= N."""


class BadSite(XXChainError):
    """Site index out of range for the requested operation."""


class NotDensityMatrix(XXChainError):
    """Matrix is not a valid two-qubit density matrix."""


class NoMinimumInWindow(XXChainError):
    """No local minimum of the series found inside the search window."""


class TooLarge(XXChainError):
    """Full-Hilbert-space oracle limited to small qubit counts."""


class ExcitationLeak(XXChainError):
    """Full-space Hamiltonian has an element between different excitation numbers."""


class CouplingSignWarning(UserWarning):
    """J > 0 accepted: the one-excitation physics maps onto J < 0 by parity."""
