"""Exception types shared across the package."""


class FracmomError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteMoment(FracmomError):
    """A required absolute/signed moment diverges for the distribution."""


class NonFiniteInput(FracmomError):
    """Input sample contains NaN or infinite values."""


class SingularSystem(FracmomError):
    """The 2x2 weight system is singular or too ill-conditioned to solve."""


class DegenerateRatio(FracmomError):
    """Variance-reduction ratio hit the 0/0 collapse point."""


class NonPositiveDenominator(FracmomError):
    """Variance-reduction denominator is not strictly positive."""


class SmallSample(FracmomError):
    """Sample too small for the requested diagnostic."""


class DegenerateSample(FracmomError):
    """Sample has zero spread where positive spread is required."""


class AllGridDegenerate(FracmomError):
    """No grid point produced a usable criterion value."""


class BracketFailure(FracmomError):
    """Root bracketing failed to find a sign change after max expansions."""


class QuadratureError(FracmomError):
    """Adaptive quadrature did not reach the requested tolerance."""
