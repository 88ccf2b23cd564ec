"""Exception types shared across spherekern modules."""


class SphereKernError(Exception):
    """Base class for all spherekern errors."""


class DomainError(SphereKernError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RankError(SphereKernError, ValueError):
    """Configuration matrix is rank deficient."""


class SingularityError(SphereKernError, ValueError):
    """Evaluation point lies on (or too close to) a singular locus."""


class InvarianceError(SphereKernError, ValueError):
    """A required group-invariance precondition failed its sampling check."""


class IllConditionedError(SphereKernError, RuntimeError):
    """A numerical fit is too ill conditioned to trust."""


class InfeasibleError(SphereKernError, RuntimeError):
    """Linear program has no feasible point."""


class UnboundedError(SphereKernError, RuntimeError):
    """Linear program objective is unbounded."""


class CertificateError(SphereKernError, RuntimeError):
    """A certificate could not be made: an unshiftable LP solution or a kernel failing its p.d. check."""
