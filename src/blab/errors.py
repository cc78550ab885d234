"""Exception types shared across the package."""


class BlabError(Exception):
    """Base class for package-specific failures."""


class InvalidZeroError(BlabError, ValueError):
    """A prescribed zero lies outside the punctured open unit disk."""


class DomainError(BlabError, ValueError):
    """An argument violates an operation's domain restrictions."""


class SamplingError(BlabError, RuntimeError):
    """Sampling could not place a point subject to the stated constraints."""


class EmptyRegionError(SamplingError):
    """The requested region contains no admissible point at all."""


class ResolutionError(BlabError, RuntimeError):
    """Node-doubling validation disagreed beyond the allowed tolerance."""


class RootFindingError(BlabError, RuntimeError):
    """The critical-point solver could not certify its result.

    `partial` carries whatever points were found, for diagnostics only.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
