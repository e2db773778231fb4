"""Exception hierarchy shared by all gsphase modules."""


class GsphaseError(Exception):
    """Base class for all gsphase errors."""


class ParameterError(GsphaseError, ValueError):
    """A state or operation parameter is outside its admissible range."""


class TruncationError(GsphaseError):
    """A truncated representation is not accurate enough for the request."""


class ResolutionError(GsphaseError):
    """A requested frequency exceeds the Nyquist band of a sampled grid."""


class NonConvergenceError(GsphaseError):
    """Successive quadrature refinements disagree beyond tolerance."""


class RangeError(GsphaseError):
    """Argument outside the documented stable range of a special function."""


class NoRegularFormError(GsphaseError):
    """The state has no regular (function-valued) phase-space density."""


class DivergenceError(GsphaseError):
    """A formal series pairing or a whole-plane integral fails its convergence policy."""


class UnsupportedError(GsphaseError):
    """The operation is not defined for this kind of input."""


class ComplexResidueError(GsphaseError):
    """A field expected to be real carries a non-negligible imaginary part."""


class TruncationWarning(UserWarning):
    """Reported truncation loss exceeds the documented target."""
