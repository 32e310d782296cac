"""Exception and warning types shared across the package."""


class DegenerateToroidError(ValueError):
    """Raised when a >= b would be violated (the surface degenerates)."""


class NearSingularArgumentError(ValueError):
    """Harmonic-table argument too close to 1 (tube and center radii merge)."""


class OverflowHorizonError(OverflowError):
    """Requested degree exceeds the floating-point horizon for P or Q.

    Attributes
    ----------
    max_safe_n:
        Largest degree index that can still be represented at this argument.
    """

    def __init__(self, message, max_safe_n):
        super().__init__(message)
        self.max_safe_n = int(max_safe_n)


class ResultOverflowError(OverflowError):
    """A finite input whose result lies beyond the float64 range."""


class PointAtInfinityError(ValueError):
    """(xi, eta) = (0, 0) maps to the point at infinity."""


class CoordinateSingularityError(ValueError):
    """Input lies on the focal ring, where toroidal coordinates break down."""


class OutOfRegionError(ValueError):
    """Field point lies inside the conductor (xi > xi0)."""


class CoincidentPointsError(ValueError):
    """Field point coincides with the source charge."""


class TruncationError(ArithmeticError):
    """A series did not converge within the term cap.

    Attributes
    ----------
    partial_sum:
        Value accumulated before giving up.
    bound:
        Estimated magnitude of the neglected tail.
    n_terms:
        Number of terms summed.
    """

    def __init__(self, message, partial_sum, bound, n_terms):
        super().__init__(message)
        self.partial_sum = float(partial_sum)
        self.bound = float(bound)
        self.n_terms = int(n_terms)


class UnsupportedConfigurationError(ValueError):
    """Particle polarizability configuration outside the axial-only model."""


class NoSignChangeError(ValueError):
    """Root bracket does not straddle a sign change (all-attractive regime)."""


class RangeExceededError(ValueError):
    """Threshold search ran off the end of its range.

    Attributes
    ----------
    bound:
        The range end that was hit.
    """

    def __init__(self, message, bound):
        super().__init__(message)
        self.bound = float(bound)


class MeshError(ValueError):
    """Invalid boundary-element mesh request."""


class SingularKernelError(ValueError):
    """Ring-potential kernel evaluated on the ring itself."""


class SolverError(RuntimeError):
    """Boundary-element linear system could not be solved reliably.

    Attributes
    ----------
    condition:
        Estimated condition number of the collocation matrix.
    """

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = float(condition)


class FarSourceWarning(UserWarning):
    """Source so far away that its induced potential underflows to ~0."""
