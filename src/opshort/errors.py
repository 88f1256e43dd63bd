"""Exception types shared across the package.

Every error raised on a user input or a failed verdict derives from
:class:`OpshortError`, so callers (and the CLI) can map failures to
exit codes without string matching.
"""

from __future__ import annotations

__all__ = [
    "OpshortError",
    "NotHermitian",
    "NotPSD",
    "NotPositiveDefinite",
    "ShapeMismatch",
    "NotSolvable",
    "NotAProjector",
    "WitnessInvalid",
    "NotWeaklyComplementable",
    "AlphaOutOfRange",
    "InternalInvariantViolation",
]


class OpshortError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(OpshortError):
    """Input expected to be Hermitian is not, within tolerance."""


class NotPSD(OpshortError):
    """Input expected to be positive semidefinite has a genuinely negative eigenvalue."""


class NotPositiveDefinite(OpshortError):
    """Input expected to be positive definite is singular or indefinite."""


class ShapeMismatch(OpshortError):
    """Operands have incompatible shapes."""


class NotSolvable(OpshortError):
    """A range-inclusion verdict failed, so the operator equation has no solution.

    The exception still carries the full diagnostics: the inclusion margin,
    the borderline flag, the least-squares candidate, and that candidate's
    residual, so reporting tools can show partial output.
    """

    def __init__(self, message, margin, candidate, residual, borderline):
        super().__init__(message)
        self.margin = margin
        self.candidate = candidate
        self.residual = residual
        self.borderline = borderline


class NotAProjector(OpshortError):
    """Matrix offered as an orthogonal projector fails the projector checks."""


class WitnessInvalid(OpshortError):
    """Supplied witness matrices do not satisfy their defining equations."""


class NotWeaklyComplementable(OpshortError):
    """At least one of the four weak-complementability systems is unsolvable.

    ``data`` is the ``WeakComplementData`` whose verdicts failed, and
    ``failing`` lists the 1-based indices of the failed systems in order.
    """

    def __init__(self, data):
        self.data = data
        self.failing = tuple(i + 1 for i, ok in enumerate(data.solvable) if not ok)
        super().__init__(f"weak-complementability systems {list(self.failing)} are unsolvable")


class AlphaOutOfRange(OpshortError):
    """Interpolation exponent outside the open interval (0, 1)."""


class InternalInvariantViolation(OpshortError):
    """A mathematical identity the implementation relies on failed numerically."""
