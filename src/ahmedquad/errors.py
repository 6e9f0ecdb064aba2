"""Exception types shared across the package.

Every failure the library can signal deliberately derives from
:class:`AhmedQuadError` so callers (and the CLI) can distinguish
configuration mistakes from computational breakdowns.
"""

from __future__ import annotations


class AhmedQuadError(Exception):
    """Base class for all errors raised by this package. ``point`` is
    the evaluation point where it happened, a tuple of the coordinates'
    high words, when one is known, and None otherwise."""

    def __init__(self, message: str = "", point: tuple[float, ...] | None = None):
        super().__init__(message)
        self.point = point


class ConfigError(AhmedQuadError):
    """A request that can never succeed: bad engine parameters, an
    unknown integrand id, a tolerance finer than the tier can resolve."""


class TierMismatchError(AhmedQuadError):
    """Arithmetic attempted between values of different precision tiers."""


class DomainError(AhmedQuadError):
    """An argument outside the mathematical domain of an operation
    (negative radicand, excluded parameter value, point outside an
    integrand's stated domain)."""


class NonFiniteError(AhmedQuadError):
    """A computation produced or consumed an infinity or NaN."""


class ConvergenceError(AhmedQuadError):
    """An iterative procedure exhausted its iteration budget."""
