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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import eval_laguerre, gammaln

from .errors import DivergenceError, ParameterError, TruncationWarning, UnsupportedError
from .numerics import PhaseField, Radial, quad2d
from .states import FockMatrix, resummed_coefficients

#: consecutive-term ratio that the diagonal pairing must stay below,
#: checked over the last _RATIO_WINDOW available ratios
_RATIO_LIMIT = 0.95
_RATIO_WINDOW = 10


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
    """Diagonal series with c[n,n] = gamma^n/n! for n <= order."""
    if order < 0:
        raise ParameterError("order must be >= 0")
    return DeltaSeries(order=order, generator=float(gamma))


def series_from_fock(fock: FockMatrix, order_cutoff: int) -> DeltaSeries:
    """Delta-derivative series of a truncated Fock matrix.

    c[q,r] = sum_k rho[q+k, r+k] sqrt((q+k)!(r+k)!) (-1)^(q+r) / (k! q! r!),
    truncated at the matrix cutoff.  Warns when the last retained k-term
    still contributes more than 1e-8 of a coefficient.
    """
    if not fock.is_hermitian(1.0e-9):
        raise ParameterError("series_from_fock needs a Hermitian matrix")
    if order_cutoff > fock.cutoff:
        raise ParameterError("order_cutoff cannot exceed the Fock cutoff")
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

DiagLog = Callable[[int], tuple[float, float]]  # n -> (sign, log|a_n|)


@dataclass
class TaylorField:
    """Derivative data a[m,n] = [d_alpha^m d_alpha*^n F](0) of a test function.

    Diagonal families additionally expose (sign, log magnitude) pairs so
    high-order pairings can be accumulated without overflow.
    """

    max_order: int
    diag_fn: Callable[[int], complex] | None = None
    diag_log: DiagLog | None = None
    coeffs: dict[tuple[int, int], complex] | None = None
    evaluator: Callable | None = None
    label: str = ""
    coeff_fn: Callable[[int, int], complex] | None = None

    def coefficient(self, m: int, n: int) -> complex:
        if m > self.max_order or n > self.max_order:
            raise ParameterError(
                f"derivative data only available to order {self.max_order}"
            )
        if self.coeff_fn is not None:
            return self.coeff_fn(m, n)
        if self.diag_fn is not None:
            return self.diag_fn(m) if m == n else 0.0
        return self.coeffs.get((m, n), 0.0) if self.coeffs else 0.0

    def diagonal_sign_log(self, n: int) -> tuple[float, float]:
        if self.diag_log is not None:
            return self.diag_log(n)
        a = self.coefficient(n, n)
        if a == 0:
            return 0.0, -math.inf
        if a.imag != 0:
            raise ParameterError("diagonal derivative data must be real for log pairing")
        return math.copysign(1.0, a.real), math.log(abs(a.real))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_exp_quadratic(cls, c: float, max_order: int = 200) -> "TaylorField":
        """F(alpha) = exp(c |alpha|^2), with a[n,n] = c^n n!."""
        def diag(n: int) -> complex:
            return c**n * math.factorial(n)

        def diag_log(n: int) -> tuple[float, float]:
            if c == 0:
                return (1.0, 0.0) if n == 0 else (0.0, -math.inf)
            sign = 1.0 if c > 0 or n % 2 == 0 else -1.0
            return sign, n * math.log(abs(c)) + gammaln(n + 1)

        def ev(alpha):
            return np.exp(c * np.abs(np.asarray(alpha, dtype=complex)) ** 2)

        return cls(max_order=max_order, diag_fn=diag, diag_log=diag_log,
                   evaluator=ev, label=f"exp({c:g}|a|^2)")

    @classmethod
    def constant(cls, value: float = 1.0, max_order: int = 200) -> "TaylorField":
        def diag(n: int) -> complex:
            return value if n == 0 else 0.0

        def diag_log(n: int) -> tuple[float, float]:
            if n == 0 and value != 0:
                return math.copysign(1.0, value), math.log(abs(value))
            return 0.0, -math.inf

        return cls(max_order=max_order, diag_fn=diag, diag_log=diag_log,
                   evaluator=lambda a: np.full(np.shape(a), value, dtype=float),
                   label=f"constant {value:g}")

    @classmethod
    def vacuum_projector_symbol(cls, k: int, max_order: int = 400) -> "TaylorField":
        """F_k(alpha) = exp(-|alpha|^2)|alpha|^(2k)/k!, the |k><k| symbol."""
        lgk = gammaln(k + 1)

        def diag_log(n: int) -> tuple[float, float]:
            if n < k:
                return 0.0, -math.inf
            sign = 1.0 if (n - k) % 2 == 0 else -1.0
            return sign, 2.0 * gammaln(n + 1) - gammaln(n - k + 1) - lgk

        def diag(n: int) -> complex:
            s, lg = diag_log(n)
            return s * math.exp(lg) if s else 0.0

        def ev(alpha):
            u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
            return np.exp(-u + k * np.log(np.maximum(u, 1.0e-300)) - lgk)

        return cls(max_order=max_order, diag_fn=diag, diag_log=diag_log,
                   evaluator=ev, label=f"|{k}><{k}| symbol")

    @classmethod
    def alternating(cls, c: float, theta: float, max_order: int = 400) -> "TaylorField":
        """a[n,n] = (-1)^n (2 c^2 theta)^n n!: saturates the pairing bound as theta->1."""
        base = 2.0 * c * c * theta

        def diag(n: int) -> complex:
            return (-base) ** n * math.factorial(n)

        def diag_log(n: int) -> tuple[float, float]:
            if base == 0:
                return (1.0, 0.0) if n == 0 else (0.0, -math.inf)
            sign = 1.0 if n % 2 == 0 else -1.0
            return sign, n * math.log(base) + gammaln(n + 1)

        return cls(max_order=max_order, diag_fn=diag, diag_log=diag_log,
                   label=f"alternating C={c:g} theta={theta:g}")

    @classmethod
    def displaced_gaussian(cls, center: float, width_sq: float,
                           amplitude: float = 1.0, max_order: int = 400) -> "TaylorField":
        """F(alpha) = A exp(-|alpha - a|^2 / s) for real center a and width s.

        Diagonal data a[n,n] = A exp(-a^2/s) (-1/s)^n n! L_n(a^2/s) with L_n
        the Laguerre polynomials; general entries by a finite double sum.
        """
        a, s = float(center), float(width_sq)
        x = a * a / s

        def diag_log(n: int) -> tuple[float, float]:
            ln = float(eval_laguerre(n, x))
            if ln == 0.0 or amplitude == 0.0:
                return 0.0, -math.inf
            sign = math.copysign(1.0, ln) * (1.0 if n % 2 == 0 else -1.0)
            sign *= math.copysign(1.0, amplitude)
            return sign, (math.log(abs(amplitude)) - x + n * math.log(1.0 / s)
                          + gammaln(n + 1) + math.log(abs(ln)))

        def diag(n: int) -> complex:
            sg, lg = diag_log(n)
            return sg * math.exp(lg) if sg else 0.0

        def coeff(m: int, n: int) -> complex:
            total = 0.0
            for j in range(min(m, n) + 1):
                lg = (gammaln(m + 1) + gammaln(n + 1) - gammaln(j + 1)
                      - gammaln(m - j + 1) - gammaln(n - j + 1))
                total += (-1.0 / s) ** j * (a / s) ** (m + n - 2 * j) * math.exp(lg)
            return amplitude * math.exp(-x) * total

        def ev(alpha):
            z = np.asarray(alpha, dtype=complex)
            return amplitude * np.exp(-np.abs(z - a) ** 2 / s)

        return cls(max_order=max_order, diag_fn=diag, diag_log=diag_log,
                   coeff_fn=coeff, evaluator=ev, label=f"gaussian bump at {a:g}")

    def perturbed(self, other: "TaylorField") -> "TaylorField":
        """Pointwise sum F + G at the level of derivative data."""
        def coeff(m: int, n: int) -> complex:
            return self.coefficient(m, n) + other.coefficient(m, n)

        def diag_log(n: int) -> tuple[float, float]:
            s1, l1 = self.diagonal_sign_log(n)
            s2, l2 = other.diagonal_sign_log(n)
            if s1 == 0 and s2 == 0:
                return 0.0, -math.inf
            hi = max(l1 if s1 else -math.inf, l2 if s2 else -math.inf)
            val = (s1 * math.exp(l1 - hi) if s1 else 0.0) + (s2 * math.exp(l2 - hi) if s2 else 0.0)
            if val == 0.0:
                return 0.0, -math.inf
            return math.copysign(1.0, val), hi + math.log(abs(val))

        ev = None
        if self.evaluator is not None and other.evaluator is not None:
            ev = lambda alpha: self.evaluator(alpha) + other.evaluator(alpha)
        return TaylorField(max_order=min(self.max_order, other.max_order),
                           coeff_fn=coeff, diag_log=diag_log, evaluator=ev,
                           label=f"{self.label} + {other.label}")


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingResult:
    value: complex
    #: |last term| / |partial sum|; 0.0 for finite series
    convergence_ratio: float

    def __complex__(self):
        return complex(self.value)


def pair(series: DeltaSeries, test_fn: TaylorField) -> PairingResult:
    """Apply a delta-derivative series to a test function.

    Finite series reduce to a finite sum over the stored coefficients.
    Generator series are summed along the diagonal, with terms assembled in
    log magnitude to avoid overflow, under a geometric-ratio convergence
    policy: the magnitude ratio of consecutive non-zero terms must drop
    below 0.95 within the last ten ratios, else DivergenceError.
    """
    if series.generator is None:
        total = 0.0 + 0.0j
        for (q, r), c in series.coeffs.items():
            total += c * (-1.0) ** (q + r) * test_fn.coefficient(q, r)
        return PairingResult(total, 0.0)

    gamma = series.generator
    if gamma == 0.0:
        return PairingResult(complex(test_fn.coefficient(0, 0)), 0.0)
    log_ag = math.log(abs(gamma))
    sign_g = math.copysign(1.0, gamma)
    total = 0.0
    ratios: list[float] = []
    last_mag = 0.0
    final_mag = 0.0
    for n in range(test_fn.max_order + 1):
        s_a, log_a = test_fn.diagonal_sign_log(n)
        if s_a == 0.0:
            continue
        logmag = n * log_ag - gammaln(n + 1) + log_a
        if logmag > 230.0:  # magnitude beyond 1e100: hopeless divergence
            raise DivergenceError("diagonal pairing terms grow without bound")
        mag = math.exp(logmag)
        total += s_a * (sign_g**n) * mag
        if last_mag > 0.0:
            ratios.append(mag / last_mag)
            ratios = ratios[-_RATIO_WINDOW:]
        last_mag = mag
        final_mag = mag
        if mag < 1.0e-18 * max(abs(total), 1.0e-300) and n > 2:
            break
    if len(ratios) == _RATIO_WINDOW and min(ratios) >= _RATIO_LIMIT:
        raise DivergenceError(
            f"diagonal pairing fails the ratio policy (last ratios >= {_RATIO_LIMIT})"
        )
    ratio = final_mag / abs(total) if total != 0 else 0.0
    return PairingResult(complex(total), float(ratio))


# ---------------------------------------------------------------------------
# Fock diagonal of a generator series, with an independent transform oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockDiagonalReport:
    """Diagonal matrix elements of the operator represented by the series.

    ``pairing`` comes from the absolutely convergent diagonal pairing with
    the |k><k| symbols; ``transform_oracle`` (k <= 3) integrates the series'
    characteristic function against the symbols' transforms by independent
    2-D quadrature.  ``reference_closed_form`` is a closed form quoted in
    earlier literature for the gamma = -1/2 case; it disagrees with both
    routes (a sign is dropped in its derivation), so it is reported for
    comparison only and never asserted.
    """

    pairing: list[float]
    transform_oracle: list[float]
    routes_agree: bool
    max_route_difference: float
    reference_closed_form: list[float] | None
    reference_matches: bool | None


def fock_diagonal(series: DeltaSeries, k_max: int,
                  *, oracle_k_max: int = 3) -> FockDiagonalReport:
    """<k| mu |k> for k <= k_max of a diagonal generator series.

    Requires |gamma| < 1 for the pairing route to converge.
    """
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
        for k in range(min(k_max, oracle_k_max) + 1):
            def integrand(beta, k=k, g=gamma):
                u = np.abs(np.asarray(beta, dtype=complex)) ** 2
                # (1/pi^2) Phi_series(beta) times the |k><k| symbol transform
                return (1.0 / math.pi) * eval_laguerre(k, u) * np.exp(-(1.0 + g) * u)
            oracle_vals.append(quad2d(integrand, Radial(), tol=1.0e-9).real)
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
    exp(-|alpha|^2/gamma') / (pi gamma'), returned alongside.
    """
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
    genuinely singular.  gamma = 0 is the identity.
    """
    samples = tuple(float(np.exp(-gamma * b * b)) for b in (1.0, 2.0, 4.0))
    bounded = all(v <= 1.0 + 1.0e-12 for v in samples)
    if gamma == 0:
        return GeneratorClass("identity", True, True, samples)
    if gamma > 0:
        return GeneratorClass("contractive", True, bounded, samples)
    return GeneratorClass("expansive", False, bounded, samples)
