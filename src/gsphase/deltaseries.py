"""Formal series in derivatives of the 2-D point mass at the origin.

A series sum_{q,r} c[q,r] d_alpha^q d_alpha*^r delta(alpha) acts on a smooth
test function F through integration by parts,

    <series, F> = sum_{q,r} c[q,r] (-1)^(q+r) [d_alpha^q d_alpha*^r F](0),

so pairing only needs the derivative data of F at the origin.  Series whose
coefficients are diagonal with c[n,n] = gamma^n/n! are tagged with their
generator gamma and never materialize coefficients: the thermal family has
gamma = nbar, the maximally singular pseudo-state gamma = -1/2, and the
point mass itself gamma = 0.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import eval_genlaguerre, eval_laguerre, gammaln

from .errors import DivergenceError, ParameterError, TruncationWarning, UnsupportedError, check_number
from .numerics import PhaseField, radial_integral
from .states import FockMatrix, resummed_coefficients

#: consecutive-term ratio that the diagonal pairing must stay below,
#: checked over the last _RATIO_WINDOW available ratios
_RATIO_LIMIT = 0.95
_RATIO_WINDOW = 10

#: a diagonal pairing cut off at the test function's max_order is refused
#: when its last term is still above this fraction of the sum; while the
#: term ratios stay below _RATIO_LIMIT the tail past it is at most 19 such
#: terms
_TAIL_TOLERANCE = 1.0e-10

#: a diagonal pairing is refused when _CANCEL_FACTOR * eps * sum |term|
#: exceeds _CANCEL_TOLERANCE * |sum|, i.e. sum |term| / |sum| > 4.5e4.  Each
#: term is exp of a log magnitude built from log-factorials in the
#: thousands, so the sums of the |k><k| symbols err by up to 22 eps
#: * sum |term|; the factor keeps a 45-fold margin over that, so an
#: accepted sum is right to about 2e-10 relative.  The acceptance
#: battery's pairings have sum |term| / |sum| of at most 3.
_CANCEL_FACTOR = 1.0e3
_CANCEL_TOLERANCE = 1.0e-8
_EPS = float(np.finfo(float).eps)

#: largest k whose <k| mu |k> ``fock_diagonal`` also takes by its transform oracle
_ORACLE_K_MAX = 3

#: ``max_order`` of the |k><k| symbols, and so the largest k_max of ``fock_diagonal``
SYMBOL_MAX_ORDER = 400


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

@dataclass
class DeltaSeries:
    """Sparse delta-derivative series, optionally in diagonal generator form."""

    coeffs: dict[tuple[int, int], complex] = field(default_factory=dict)
    order: int = 0
    generator: float | None = None

    def coefficient(self, q: int, r: int) -> complex:
        if self.generator is not None:
            if q != r or q > self.order:
                return 0.0
            return self.generator**q / math.factorial(q)
        return self.coeffs.get((q, r), 0.0)

    @property
    def is_generator(self) -> bool:
        return self.generator is not None

    def to_json(self) -> str:
        obj = {
            "generator": None if self.generator is None else {"gamma": self.generator},
            "coeffs": [[q, r, v.real, v.imag] for (q, r), v in sorted(self.coeffs.items())],
            "order": self.order,
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeltaSeries":
        obj = json.loads(text)
        gen = obj.get("generator")
        coeffs = {(int(q), int(r)): complex(re, im) for q, r, re, im in obj.get("coeffs", [])}
        return cls(coeffs=coeffs, order=int(obj["order"]),
                   generator=None if gen is None else float(gen["gamma"]))


def exp_laplace_series(gamma: float, order: int) -> DeltaSeries:
    """Diagonal series with c[n,n] = gamma^n/n! for n <= order.

    Raises ParameterError unless gamma is a finite real and the order an
    integer >= 0, a bool being neither.
    """
    check_number(gamma, "generator gamma")
    check_number(order, "order", 0, integer=True)
    return DeltaSeries(order=order, generator=float(gamma))


def series_from_fock(fock: FockMatrix, order_cutoff: int) -> DeltaSeries:
    """Delta-derivative series of a truncated Fock matrix.

    c[q,r] = sum_k rho[q+k, r+k] sqrt((q+k)!(r+k)!) (-1)^(q+r) / (k! q! r!),
    truncated at the matrix cutoff.  Warns when the last retained k-term
    still contributes more than 1e-8 of a coefficient.  Raises
    ParameterError unless ``order_cutoff`` is an integer from 0 to the
    matrix cutoff and the matrix is Hermitian.
    """
    check_number(order_cutoff, "order_cutoff", 0, fock.cutoff, integer=True)
    if not fock.is_hermitian(1.0e-9):
        raise ParameterError("series_from_fock needs a Hermitian matrix")
    d, last = resummed_coefficients(fock.matrix)
    n = order_cutoff + 1
    idx = np.arange(n)
    c = d[:n, :n] * (-1.0) ** np.add.outer(idx, idx)
    # the tail test covers every non-zero coefficient summed over more than one k
    tested = (np.maximum.outer(idx, idx) < fock.cutoff) & (c != 0)
    ratios = np.abs(last[:n, :n][tested]) / np.maximum(np.abs(c[tested]), 1.0e-30)
    worst_tail = float(ratios.max(initial=0.0))
    coeffs = {(int(q), int(r)): complex(c[q, r]) for q, r in zip(*np.nonzero(c))}
    if worst_tail > 1.0e-8:
        warnings.warn(
            f"k-tail of the Fock sum still contributes {worst_tail:.2e} of a coefficient",
            TruncationWarning, stacklevel=2,
        )
    return DeltaSeries(coeffs=coeffs, order=order_cutoff)


# ---------------------------------------------------------------------------
# test functions as origin derivative data
# ---------------------------------------------------------------------------

#: n -> (sign, log|a_n|) for an integer array n, arrays of n's shape; a zero
#: entry has sign 0 (its log is then -inf)
DiagLog = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
#: (m, n) -> a[m, n] for integer arrays m and n, at their broadcast shape
CoeffFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class TaylorField:
    """Derivative data a[m,n] = [d_alpha^m d_alpha*^n F](0) of a test function.

    Both fields work on arrays.  The diagonal is given once, by
    ``diag_log``, as (sign, log magnitude) arrays over an integer array of
    orders, so high-order pairings can be accumulated without overflow; the
    diagonal coefficient a[n,n] is read from it.  ``coeff_fn``, when set,
    gives every entry at broadcast index arrays.  ``coefficient(m, n)``
    reads one entry and ``coefficients(order)`` the (order+1)^2 table
    a[m, n] for m, n <= order.  Raises ParameterError unless ``max_order``
    is an integer >= 0.
    """

    max_order: int
    diag_log: DiagLog
    label: str = ""
    coeff_fn: CoeffFn | None = None

    def __post_init__(self):
        check_number(self.max_order, "max_order", 0, integer=True)

    def coefficient(self, m: int, n: int) -> complex:
        """a[m, n]; ParameterError unless m and n are integers from 0 to
        ``max_order``."""
        for index in (m, n):
            check_number(index, "derivative index", 0, self.max_order, integer=True)
        return self._entries(np.asarray(m), np.asarray(n)).item()

    def coefficients(self, order: int) -> np.ndarray:
        """The table a[m, n] for m, n <= order; ParameterError, before the
        table is built, unless the order is an integer from 0 to
        ``max_order``."""
        check_number(order, "order", 0, self.max_order, integer=True)
        idx = np.arange(order + 1)
        return self._entries(idx[:, None], idx[None, :])

    def _entries(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """a[m, n] at broadcast index arrays from 0 to ``max_order``."""
        if self.coeff_fn is not None:
            return self.coeff_fn(m, n)
        m, n = np.broadcast_arrays(m, n)
        out = np.zeros(m.shape)
        on = m == n
        s, lg = self.diag_log(m[on])
        with np.errstate(over="ignore"):
            out[on] = s * np.exp(lg)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_exp_quadratic(cls, c: float, max_order: int = 200) -> "TaylorField":
        """F(alpha) = exp(c |alpha|^2), with a[n,n] = c^n n!.

        Raises ParameterError unless c is a finite real and ``max_order`` an
        integer >= 0.
        """
        check_number(c, "exp-quadratic c")
        log_c = math.log(abs(c)) if c else 0.0

        def diag_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            if c == 0:
                return (n == 0).astype(float), np.where(n == 0, 0.0, -math.inf)
            sign = np.where((c > 0) | (n % 2 == 0), 1.0, -1.0)
            return sign, n * log_c + gammaln(n + 1)

        return cls(max_order=max_order, diag_log=diag_log, label=f"exp({c:g}|a|^2)")

    @classmethod
    def constant(cls, value: float = 1.0, max_order: int = 200) -> "TaylorField":
        """F = value; ParameterError unless the value is a finite real and
        ``max_order`` an integer >= 0."""
        check_number(value, "constant value")
        sign = math.copysign(1.0, value) if value else 0.0
        log_v = math.log(abs(value)) if value else -math.inf

        def diag_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return np.where(n == 0, sign, 0.0), np.where(n == 0, log_v, -math.inf)

        return cls(max_order=max_order, diag_log=diag_log, label=f"constant {value:g}")

    @classmethod
    def vacuum_projector_symbol(cls, k: int, max_order: int = SYMBOL_MAX_ORDER) -> "TaylorField":
        """F_k(alpha) = exp(-|alpha|^2)|alpha|^(2k)/k!, the |k><k| symbol.

        Raises ParameterError unless ``max_order`` is an integer >= 0 and k
        an integer from 0 to ``max_order``: past it the symbol's diagonal,
        which starts at n = k, is not there to pair with.
        """
        check_number(max_order, "max_order", 0, integer=True)
        check_number(k, "symbol index k", 0, max_order, integer=True)
        lgk = gammaln(k + 1)

        def diag_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            live = n >= k
            sign = np.where(live, np.where((n - k) % 2 == 0, 1.0, -1.0), 0.0)
            lg = 2.0 * gammaln(n + 1) - gammaln(np.maximum(n - k, 0) + 1) - lgk
            return sign, np.where(live, lg, -math.inf)

        return cls(max_order=max_order, diag_log=diag_log, label=f"|{k}><{k}| symbol")

    @classmethod
    def alternating(cls, c: float, theta: float, max_order: int = 400) -> "TaylorField":
        """a[n,n] = (-1)^n (2 c^2 theta)^n n!: saturates the pairing bound as theta->1.

        The test function exp(-2 c^2 theta |alpha|^2), under its own label.
        Raises as ``from_exp_quadratic`` does, and ParameterError unless c
        and theta are finite reals.
        """
        check_number(c, "alternating C")
        check_number(theta, "alternating theta")
        return replace(cls.from_exp_quadratic(-2.0 * c * c * theta, max_order),
                       label=f"alternating C={c:g} theta={theta:g}")

    @classmethod
    def displaced_gaussian(cls, center: float, width_sq: float,
                           amplitude: float = 1.0, max_order: int = 400) -> "TaylorField":
        """F(alpha) = A exp(-|alpha - a|^2 / s) for real center a and width s.

        a[m,n] = A exp(-x) (-1/s)^k k! (a/s)^d L_k^(d)(x) with x = a^2/s,
        k = min(m, n), d = |m - n| and L_k^(d) the generalized Laguerre
        polynomials: the finite double sum over j of F's generating function
        exp(-u v/s + (a/s)(u + v)) collected into one polynomial.  The
        diagonal is d = 0.  Entries meet in log magnitude, so none
        overflows before the value does.  Raises ParameterError unless the
        center and amplitude are finite reals, the width s a finite positive
        real and ``max_order`` an integer >= 0.
        """
        check_number(center, "bump center")
        check_number(width_sq, "bump width_sq", 0, above=True)
        check_number(amplitude, "bump amplitude")
        a, s = float(center), float(width_sq)
        x = a * a / s
        log_amp = math.log(abs(amplitude)) if amplitude else -math.inf
        log_b = math.log(abs(a / s)) if a else -math.inf

        def signed_log(m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            k, d = np.minimum(m, n), np.abs(m - n)
            lag = eval_genlaguerre(k, d, x)
            sign = (math.copysign(1.0, amplitude) * np.where(k % 2 == 0, 1.0, -1.0)
                    * np.where((d % 2 == 0) | (a >= 0), 1.0, -1.0) * np.sign(lag))
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0; 0 * log 0 at d = 0
                lg = (log_amp - x + k * math.log(1.0 / s) + np.where(d > 0, d * log_b, 0.0)
                      + gammaln(k + 1) + np.log(np.abs(lag)))
            live = lg > -math.inf  # a zero entry's log is -inf
            return np.where(live, sign, 0.0), np.where(live, lg, -math.inf)

        def diag_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return signed_log(n, n)

        def coeff(m: np.ndarray, n: np.ndarray) -> np.ndarray:
            sign, lg = signed_log(m, n)
            with np.errstate(over="ignore"):
                return sign * np.exp(lg)

        return cls(max_order=max_order, diag_log=diag_log, coeff_fn=coeff,
                   label=f"gaussian bump at {a:g}")

    def perturbed(self, other: "TaylorField") -> "TaylorField":
        """Pointwise sum F + G at the level of derivative data."""
        def coeff(m: np.ndarray, n: np.ndarray) -> np.ndarray:
            return self._entries(m, n) + other._entries(m, n)

        def diag_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            s1, l1 = self.diag_log(n)
            s2, l2 = other.diag_log(n)
            l1 = np.where(s1 != 0, l1, -math.inf)
            l2 = np.where(s2 != 0, l2, -math.inf)
            hi = np.maximum(l1, l2)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = (np.where(s1 != 0, s1 * np.exp(l1 - hi), 0.0)
                       + np.where(s2 != 0, s2 * np.exp(l2 - hi), 0.0))
                lg = hi + np.log(np.abs(val))
            live = val != 0.0
            return np.where(live, np.sign(val), 0.0), np.where(live, lg, -math.inf)

        return TaylorField(max_order=min(self.max_order, other.max_order),
                           coeff_fn=coeff, diag_log=diag_log,
                           label=f"{self.label} + {other.label}")


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingResult:
    value: complex
    #: |last term| / |partial sum|; 0.0 for finite series and for a generator
    #: sum that ends at its series' order
    convergence_ratio: float

    def __complex__(self):
        return complex(self.value)


def pair(series: DeltaSeries, test_fn: TaylorField) -> PairingResult:
    """Apply a delta-derivative series to a test function.

    Finite series reduce to a finite sum over the stored coefficients,
    read from one ``coefficients`` table.
    Generator series are summed along the diagonal to the smaller of the
    series' ``order`` and the test function's ``max_order``, with terms
    assembled in log magnitude to avoid overflow.  The sum stops at the
    first order n > 2 whose non-zero term is below 1e-18 of the partial sum.
    A sum that stops at ``max_order`` (series order >= max_order) stands for
    the series to all orders, so it is held to a geometric-ratio convergence
    policy: the magnitude ratio of consecutive non-zero terms must drop below
    0.95 within the last ten ratios, and its last term must be at most
    ``_TAIL_TOLERANCE`` of the sum, else DivergenceError.  Any sum raises
    DivergenceError when a term summed reaches 1e100, and when its terms
    cancel so far that the rounding bound ``_CANCEL_FACTOR`` * eps *
    sum |term| exceeds ``_CANCEL_TOLERANCE`` of the sum.

    The diagonal is read in one array pass, and the partial sums are one
    sequential ``np.cumsum``, so the value is the one a loop over n adding
    term by term gives, bit for bit.
    """
    if series.generator is None:
        total = 0.0 + 0.0j
        if series.coeffs:
            table = test_fn.coefficients(max(max(qr) for qr in series.coeffs))
            for (q, r), c in series.coeffs.items():
                total += c * (-1.0) ** (q + r) * table[q, r].item()
        return PairingResult(total, 0.0)

    gamma = series.generator
    if gamma == 0.0:
        return PairingResult(complex(test_fn.coefficient(0, 0)), 0.0)
    last = min(series.order, test_fn.max_order)
    orders = np.arange(last + 1)
    s_a, log_a = test_fn.diag_log(orders)
    live = s_a != 0.0  # a zero entry enters no sum, ratio or test
    n = orders[live]
    logmag = n * math.log(abs(gamma)) - gammaln(n + 1) + log_a[live]
    over = np.flatnonzero(logmag > 230.0)  # magnitude beyond 1e100
    stop = int(over[0]) if over.size else n.size
    # math.exp, not np.exp: numpy's SIMD exp differs from libm's by an ulp on
    # about 5% of arguments, and the reports print pairings to full precision
    mags = np.fromiter(map(math.exp, logmag[:stop].tolist()), float, stop)
    terms = s_a[live][:stop] * math.copysign(1.0, gamma) ** n[:stop] * mags
    partial = np.cumsum(terms)
    small = (mags < 1.0e-18 * np.maximum(np.abs(partial), 1.0e-300)) & (n[:stop] > 2)
    hit = np.flatnonzero(small)
    if not hit.size and over.size:
        raise DivergenceError("diagonal pairing terms grow without bound")
    end = int(hit[0]) + 1 if hit.size else stop
    mags = mags[:end]
    total = partial[end - 1] if end else 0.0
    abs_sum = np.cumsum(mags)[-1] if end else 0.0
    last_mag = mags[-1] if end else 0.0  # the last non-zero term
    # the term at the last index summed, zero or not
    tail = last_mag if hit.size or live[last] else 0.0
    prev, cur = mags[:-1], mags[1:]
    ratios = (cur[prev > 0.0] / prev[prev > 0.0])[-_RATIO_WINDOW:]
    cut_off = last == test_fn.max_order
    if cut_off and ratios.size == _RATIO_WINDOW and ratios.min() >= _RATIO_LIMIT:
        raise DivergenceError(
            f"diagonal pairing fails the ratio policy (last ratios >= {_RATIO_LIMIT})"
        )
    if cut_off and tail > _TAIL_TOLERANCE * abs(total):
        raise DivergenceError(
            f"diagonal pairing is cut off at order {test_fn.max_order} while its last "
            f"term is {tail:.3e} against a sum of {abs(total):.3e}"
        )
    if _CANCEL_FACTOR * _EPS * abs_sum > _CANCEL_TOLERANCE * abs(total):
        raise DivergenceError(
            f"diagonal pairing terms cancel: sum |term| = {abs_sum:.3e} against a sum "
            f"of {abs(total):.3e}, below its rounding"
        )
    ratio = last_mag / abs(total) if cut_off and total != 0 else 0.0
    return PairingResult(complex(total), float(ratio))


# ---------------------------------------------------------------------------
# Fock diagonal of a generator series, with an independent transform oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockDiagonalReport:
    """Diagonal matrix elements of the operator represented by the series.

    ``pairing`` comes from the absolutely convergent diagonal pairing with
    the |k><k| symbols; ``transform_oracle`` (k <= 3) integrates the series'
    characteristic function against the symbols' transforms by the
    independent radial quadrature ``numerics.radial_integral``.
    ``reference_closed_form`` is a closed form quoted in earlier literature
    for the gamma = -1/2 case; it disagrees with both routes (a sign is
    dropped in its derivation), so it is reported for comparison only and
    never asserted.
    """

    pairing: list[float]
    transform_oracle: list[float]
    routes_agree: bool
    max_route_difference: float
    reference_closed_form: list[float] | None
    reference_matches: bool | None


def fock_diagonal(series: DeltaSeries, k_max: int) -> FockDiagonalReport:
    """<k| mu |k> for k <= k_max of a diagonal generator series.

    Requires |gamma| < 1 for the pairing route to converge, and k_max an
    integer from 0 to ``SYMBOL_MAX_ORDER`` (400), the symbols' ``max_order``;
    ParameterError otherwise, a bool included, before any pairing runs.
    """
    check_number(k_max, "k_max", 0, SYMBOL_MAX_ORDER, integer=True)
    if not series.is_generator:
        raise UnsupportedError("fock_diagonal needs a generator-form series")
    gamma = series.generator
    if abs(gamma) >= 1.0:
        raise DivergenceError("pairing with the Fock symbols diverges for |gamma| >= 1")

    pairing_vals = []
    for k in range(k_max + 1):
        fk = TaylorField.vacuum_projector_symbol(k)
        pairing_vals.append(float(np.real(pair(series, fk).value)))

    oracle_vals = []
    if gamma > -1.0:
        for k in range(min(k_max, _ORACLE_K_MAX) + 1):
            # (1/pi^2) Phi_series(beta) times the |k><k| symbol transform, at |beta| = r
            oracle_vals.append(radial_integral(
                lambda r: (1.0 / math.pi) * eval_laguerre(k, r * r) * np.exp(-(1.0 + gamma) * r * r)))
    diffs = [abs(a - b) for a, b in zip(pairing_vals, oracle_vals)]
    max_diff = max(diffs) if diffs else 0.0

    reference = None
    ref_matches = None
    if gamma == -0.5:
        # sign-dropped resolvent evaluation quoted in earlier work
        reference = [2.0 * (-1.0) ** k / 3.0 ** (k + 1) for k in range(k_max + 1)]
        ref_matches = all(abs(r - p) < 1.0e-6 for r, p in zip(reference, pairing_vals))
    return FockDiagonalReport(
        pairing=pairing_vals,
        transform_oracle=oracle_vals,
        routes_agree=max_diff < 1.0e-6,
        max_route_difference=max_diff,
        reference_closed_form=reference,
        reference_matches=ref_matches,
    )


# ---------------------------------------------------------------------------
# ordering transforms and the generator-sign classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class STransformResult:
    series: DeltaSeries
    #: regular Gaussian density representing the same distribution, present
    #: whenever the shifted generator is positive (the smoothing direction)
    regular_dual: PhaseField | None


def s_transform(series: DeltaSeries, s: float) -> STransformResult:
    """Ordering transform of a generator series: gamma -> gamma + (1-s)/2.

    The s-side characteristic function gains exp(-(1-s)|beta|^2/2), which
    shifts the generator.  Whenever the shifted generator gamma' is
    positive the same distribution is also the regular Gaussian
    exp(-|alpha|^2/gamma') / (pi gamma'), returned alongside.  Raises
    ParameterError unless s is a finite real.
    """
    check_number(s, "the ordering parameter s")
    if not series.is_generator:
        raise UnsupportedError("s_transform is defined for generator-form series")
    gamma_new = series.generator + 0.5 * (1.0 - s)
    out = exp_laplace_series(gamma_new, series.order)
    dual = None
    if gamma_new > 0:
        def gauss(alpha, g=gamma_new):
            return np.exp(-np.abs(np.asarray(alpha, dtype=complex)) ** 2 / g) / (math.pi * g)
        dual = PhaseField(side="alpha", fn=gauss)
    return STransformResult(out, dual)


@dataclass(frozen=True)
class GeneratorClass:
    label: str  # identity | contractive | expansive
    has_regular_dual: bool
    multiplier_bounded: bool
    sample_multipliers: tuple[float, ...]


def classify_generator(gamma: float) -> GeneratorClass:
    """Classify exp(gamma d_alpha d_alpha*) by the sign of its generator.

    The operator multiplies characteristic functions by exp(-gamma|beta|^2).
    gamma > 0 is the smoothing (contractive) direction: the multiplier is
    bounded and the series has a regular Gaussian dual representation.
    gamma < 0 is expansive: the multiplier is unbounded and the series is
    genuinely singular.  gamma = 0 is the identity.  Raises ParameterError
    unless gamma is a finite real.
    """
    check_number(gamma, "generator gamma")
    samples = tuple(float(np.exp(-gamma * b * b)) for b in (1.0, 2.0, 4.0))
    bounded = all(v <= 1.0 + 1.0e-12 for v in samples)
    if gamma == 0:
        return GeneratorClass("identity", True, True, samples)
    if gamma > 0:
        return GeneratorClass("contractive", True, bounded, samples)
    return GeneratorClass("expansive", False, bounded, samples)
