"""Exception hierarchy shared by all gsphase modules, and the one rule for
numeric arguments.

Every numeric argument of the public API passes ``check_number``: the
decision of what counts as a valid number lives there alone, so each entry
point refuses a bool, a non-finite value and a Python int too large for a
float in the same typed way, as a ``ParameterError`` that names the
argument.  Complex values, phase-plane points and the fields of state JSON
are checked where they are read.
"""

import math
import numbers
import reprlib


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


def check_number(value, what: str, low: float = -math.inf, high: float = math.inf, *,
                 integer: bool = False, above: bool = False, below: bool = False):
    """``value`` itself, once it is a valid number for the argument ``what``.

    The rule: the value is an integer (``numbers.Integral``, with
    ``integer``) or a finite real (``numbers.Real``), never a bool,
    although Python counts True as 1; it converts to a float, so a Python
    int past the float range is refused; and it lies in [low, high], with
    the low end open when ``above`` and the high end open when ``below``.
    Raises ParameterError otherwise, with a message that names ``what`` and
    the bounds, as "filter width must be finite and positive (got 0)".
    """
    ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
          and not isinstance(value, bool))
    try:
        ok = (ok and math.isfinite(value) and (low < value if above else low <= value)
              and (value < high if below else value <= high))
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        bounds = ["positive" if (low, above, integer) == (0, True, False)
                  else f"{'>' if above else '>='} {low:g}"] if low > -math.inf else []
        if high < math.inf:
            bounds.append(f"{'below' if below else 'at most'} {high:g}")
        kind = (f"an integer {' and '.join(bounds)}".rstrip() if integer
                else " and ".join(["finite", *bounds]))
        raise ParameterError(f"{what} must be {kind} (got {reprlib.repr(value)})")
    return value
