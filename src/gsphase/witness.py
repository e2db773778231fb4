"""Nonclassicality criteria battery and the dual-space machinery.

Verdict semantics: a criterion either certifies nonclassicality with a
strictly positive margin, stays consistent with a classical model, or is
inapplicable (for instance when the moments it needs diverge).  A finite
battery can never certify classicality, so the aggregate verdict is either
"nonclassical-certified" or "consistent-with-classical".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import charfn
from .deltaseries import DeltaSeries, TaylorField, exp_laplace_series, pair
from .errors import ComplexResidueError, ParameterError
from .filters import FilterKernel, GaussianCharFn, filtered_p_gaussian_grid, filtered_p_numeric
from .numerics import PhaseField, PhaseGrid, gauss_nodes_1d
from .states import State, fock_matrix

#: default certification margin; an order below quadrature tolerances
CERTIFICATION_MARGIN = 1.0e-9


class Diverged:
    """Sentinel value for moments whose defining integral diverges."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Diverged"


DIVERGED = Diverged()


# ---------------------------------------------------------------------------
# vacuum probability
# ---------------------------------------------------------------------------

def vacuum_probability(state: State) -> float:
    """<vac| rho |vac>, by the cheapest exact route available.

    Every classical state has strictly positive vacuum overlap, but a
    classical overlap can be arbitrarily small (exp(-|a0|^2) for a coherent
    state), so ``classify`` certifies only a structural zero: a physical
    state whose ``exact_vacuum_probability`` is exactly 0.0.
    """
    if state.exact_vacuum_probability is not None:
        return float(state.exact_vacuum_probability)
    if state.generator_gamma is not None:
        series = exp_laplace_series(state.generator_gamma, 400)
        return float(np.real(pair(series, TaylorField.vacuum_projector_symbol(0)).value))
    fm = fock_matrix(state)
    return float(np.real(fm.matrix[0, 0]))


# ---------------------------------------------------------------------------
# normally ordered moments with divergence detection
# ---------------------------------------------------------------------------

_PANEL_RATIO_DIVERGENT = 0.98


def _radial_moment(density, n: int, *, n_panels: int = 22, nodes: int = 48):
    """Int d^2alpha P |alpha|^(2n) over dyadic radial panels.

    The panel sums of a power-law tail decay geometrically with the dyadic
    ratio; a ratio locked at or above one signals the divergent regime, and
    the convergent regime is closed with the geometric tail extrapolation.
    """
    def shell(r0, r1):
        r, w = gauss_nodes_1d(r0, r1, nodes)
        return float(np.sum(w * 2.0 * math.pi * r ** (2 * n + 1) * density(r)))

    total = shell(0.0, 1.0)
    contributions = []
    r0 = 1.0
    quiet = 0
    for _ in range(n_panels):
        value = shell(r0, 2.0 * r0)
        contributions.append(value)
        total += value
        r0 *= 2.0
        if abs(value) < 1.0e-14 * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
        if len(contributions) >= 4:
            last = contributions[-3:]
            ratios = [b / a for a, b in zip(last[:-1], last[1:]) if a > 0]
            if len(ratios) == 2 and min(ratios) >= _PANEL_RATIO_DIVERGENT:
                return DIVERGED
    rho = contributions[-1] / contributions[-2] if contributions[-2] > 0 else 0.0
    if rho >= 1.0:
        return DIVERGED
    return total + contributions[-1] * rho / (1.0 - rho)


def normal_moment(state: State, n: int):
    """<: (a^dag a)^n :> = Int d^2alpha P(alpha) |alpha|^(2n), or Diverged.

    A regular density is radially symmetric about a0 = spec.displacement, so
    the phase average of |a0 + z|^(2n) gives
    sum_j C(n,j)^2 |a0|^(2(n-j)) m_j with m_j the radial moments about a0,
    each integrated with a growing outer radius; m_0 = 1 counts the point
    mass of cauchy_lorentz_ncl.  The heavy-tailed family diverges exactly when
    the tail exponent stops decaying (t <= n).  Diverged is a value, not an
    exception.
    """
    if n < 0:
        raise ParameterError("moment order must be >= 0")
    if n == 0:
        return 1.0
    if state.regular_p_closed is not None:
        a0 = state.spec.displacement

        def density(r):
            return np.real(state.regular_p_closed(r + a0))

        total = 0.0
        for j in range(n + 1) if a0 != 0 else (n,):  # centered: only j = n is non-zero
            m = 1.0 if j == 0 else _radial_moment(density, j)
            if m is DIVERGED:
                return DIVERGED
            total += math.comb(n, j) ** 2 * abs(a0) ** (2 * (n - j)) * m
        return total
    if state.generator_gamma is not None:
        series = exp_laplace_series(state.generator_gamma, 400)
        return float(np.real(pair(series, TaylorField.from_monomial(n)).value))
    fm = fock_matrix(state, 128)
    k = np.arange(fm.cutoff + 1)
    log_fall = gammaln(k + 1) - gammaln(np.maximum(k - n, 0) + 1)
    fall = np.where(k >= n, np.exp(log_fall), 0.0)
    return float(np.real(np.sum(np.diag(fm.matrix) * fall)))


# ---------------------------------------------------------------------------
# criteria entries and the report
# ---------------------------------------------------------------------------

VERDICT_CERTIFIED = "nonclassical-certified"
VERDICT_CONSISTENT = "consistent-with-classical"
VERDICT_INAPPLICABLE = "inapplicable/diverged"


@dataclass
class CriterionEntry:
    criterion: str
    verdict: str
    witness_value: float | None
    location: complex | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        loc = None
        if self.location is not None:
            loc = {"x": self.location.real, "p": self.location.imag}
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witness_value": self.witness_value,
            "location": loc,
            "detail": self.detail,
        }


@dataclass
class NonclassicalityReport:
    state: str
    entries: list[CriterionEntry] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return any(e.verdict == VERDICT_CERTIFIED for e in self.entries)

    @property
    def overall(self) -> str:
        return VERDICT_CERTIFIED if self.certified else VERDICT_CONSISTENT

    def entry(self, criterion: str) -> CriterionEntry:
        for e in self.entries:
            if e.criterion == criterion:
                return e
        raise KeyError(criterion)

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "overall": self.overall,
            "entries": [e.to_dict() for e in self.entries],
        }


def moment_matrix_test(state: State, order: int,
                       *, margin: float = CERTIFICATION_MARGIN) -> CriterionEntry:
    """Minimal eigenvalue of the Hankel matrix M[j,k] = <:n^(j+k):>.

    A negative minimal eigenvalue exhibits an operator polynomial in the
    photon number with negative normally ordered square expectation.  When
    any required moment diverges the verdict is inapplicable.
    """
    moments = []
    for i in range(2 * order + 1):
        m = normal_moment(state, i)
        if m is DIVERGED:
            return CriterionEntry(
                "moment_matrix", VERDICT_INAPPLICABLE, None,
                detail=f"moment of order {i} diverges",
            )
        moments.append(m)
    h = np.array([[moments[j + k] for k in range(order + 1)] for j in range(order + 1)])
    min_eig = float(np.linalg.eigvalsh(h).min())
    verdict = VERDICT_CERTIFIED if min_eig < -margin else VERDICT_CONSISTENT
    return CriterionEntry("moment_matrix", verdict, min_eig,
                          detail=f"order {order} Hankel matrix of diagonal moments")


def negativity_scan(fld: PhaseField, *, residue_tol: float = 1.0e-9):
    """Minimum of a sampled real field with its grid location.

    Ties are broken toward the lexicographically smallest (x, p).
    """
    if fld.values is None or fld.grid is None:
        raise ParameterError("negativity_scan needs a sampled field")
    if fld.imag_residue > residue_tol:
        raise ComplexResidueError(
            f"field has imaginary residue {fld.imag_residue:.3e} > {residue_tol:g}"
        )
    vals = np.real(fld.values)
    idx = int(np.argmin(vals))
    loc = complex(fld.grid.mesh().ravel()[idx])
    return float(vals.ravel()[idx]), loc


# ---------------------------------------------------------------------------
# admissible test functions and the worst-case pairing bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    first_violation: tuple[int, int] | None
    checked_order: int


def admissible_check(f: TaylorField, c: float, order: int) -> AdmissibilityResult:
    """Check |a[n,m]| <= (sqrt(2) C)^(n+m) sqrt(n! m!) for all n, m <= order.

    Returns the first violating index pair in total-order-then-lexicographic
    scan order, if any.
    """
    if not 0.0 <= c < 1.0:
        raise ParameterError("admissibility constant must satisfy 0 <= C < 1")
    log_sqrt2c = math.log(math.sqrt(2.0) * c) if c > 0 else -math.inf
    for total in range(0, 2 * order + 1):
        for m in range(max(0, total - order), min(order, total) + 1):
            n = total - m
            a = f.coefficient(m, n)
            if a == 0:
                continue
            log_bound = total * log_sqrt2c + 0.5 * (gammaln(m + 1) + gammaln(n + 1))
            if math.log(abs(a)) > log_bound + 1.0e-12:
                return AdmissibilityResult(False, (m, n), order)
    return AdmissibilityResult(True, None, order)


def pmax_pairing_bound(c: float) -> float:
    """Worst-case pairing bound 1/(1 - C^2) over the admissibility class."""
    if not 0.0 <= c < 1.0:
        raise ParameterError("admissibility constant must satisfy 0 <= C < 1")
    return 1.0 / (1.0 - c * c)


def radius_estimate(c: float, orders) -> list[float]:
    """Cauchy root-test data for the Taylor majorant of the admissibility class.

    Returns c_k^(1/k) with c_k = sum_{n<=k} (sqrt(2) C)^k / sqrt((k-n)! n!),
    for each k in ``orders``; the sequence is eventually decreasing toward
    zero and is dominated by 2 C ((l-1)!)^(-1/(2l)), so the Taylor series of
    every admissible test function converges on the whole plane.
    """
    if not 0.0 <= c < 1.0:
        raise ParameterError("admissibility constant must satisfy 0 <= C < 1")
    out = []
    for k in orders:
        if c == 0.0:
            out.append(0.0)
            continue
        ns = np.arange(k + 1)
        logs = -0.5 * (gammaln(k - ns + 1) + gammaln(ns + 1))
        hi = logs.max()
        log_ck = k * math.log(math.sqrt(2.0) * c) + hi + math.log(np.sum(np.exp(logs - hi)))
        out.append(math.exp(log_ck / k))
    return out


def radius_estimate_bound(c: float, order: int) -> float:
    """Majorant 2 C ((l-1)!)^(-1/(2l)) of the root-test sequence."""
    return 2.0 * c * math.exp(-gammaln(order) / (2.0 * order))


@dataclass(frozen=True)
class DivergenceDemo:
    """Partial sums of M sum n! (C^2/2)^n, the merely-analytic majorant.

    The term ratio n C^2 / 2 grows without bound, so analyticity alone is
    not enough for a finite worst-case pairing; partial sums are reported
    in log10 to stay overflow-safe.
    """

    log10_partial_sums: list[float]
    term_ratios: list[float]
    first_index_above_1e6: int | None


def analytic_divergence_demo(c: float, n_terms: int, m_const: float = 1.0) -> DivergenceDemo:
    if c < 0:
        raise ParameterError("C must be non-negative")
    log_c2h = math.log(c * c / 2.0) if c > 0 else -math.inf
    log_sum = math.log(m_const)
    sums = [log_sum / math.log(10.0)]
    ratios = []
    first = None
    for n in range(1, n_terms + 1):
        if c == 0:
            sums.append(log_sum / math.log(10.0))
            ratios.append(0.0)
            continue
        log_term = math.log(m_const) + gammaln(n + 1) + n * log_c2h
        hi = max(log_sum, log_term)
        log_sum = hi + math.log(math.exp(log_sum - hi) + math.exp(log_term - hi))
        sums.append(log_sum / math.log(10.0))
        ratios.append(n * c * c / 2.0)
        if first is None and log_sum > math.log(1.0e6):
            first = n
    return DivergenceDemo(sums, ratios, first)


# ---------------------------------------------------------------------------
# the aggregated battery
# ---------------------------------------------------------------------------

def classify(state: State, *, w: float = 2.0,
             grid: PhaseGrid | None = None,
             beta_grid: PhaseGrid | None = None,
             moment_order: int = 2,
             margin: float = CERTIFICATION_MARGIN) -> NonclassicalityReport:
    """Run the criteria battery and aggregate the verdicts.

    Any single certification makes the state nonclassical-certified; the
    battery never claims classicality.  Criteria run in a fixed order:
    characteristic-function excess, vacuum probability, diagonal moment
    matrix, and the negativity of the filter-regularized distribution.  The
    filtered minimum certifies only below -(margin + quad_error), with
    quad_error the field's quadrature error estimate (0 on the analytic
    Gaussian route).  Raises ParameterError for a filter width w that is not
    finite and positive, before any criterion runs, and NonConvergenceError
    when the numeric filter cannot resolve the grid at width w.
    """
    kernel = FilterKernel(w)
    grid = grid or PhaseGrid(extent=4.0, resolution=321)
    beta_grid = beta_grid or PhaseGrid(extent=4.0, resolution=161)
    report = NonclassicalityReport(state=state.describe())

    scan = charfn.classicality_violation(state, beta_grid)
    report.entries.append(CriterionEntry(
        "characteristic_function",
        VERDICT_CERTIFIED if scan.value > margin else VERDICT_CONSISTENT,
        scan.value, scan.location,
        detail="max |Phi(beta)| - 1 over the scan grid",
    ))

    vp = vacuum_probability(state)
    vp_certified = state.physical and state.exact_vacuum_probability == 0.0
    report.entries.append(CriterionEntry(
        "vacuum_probability",
        VERDICT_CERTIFIED if vp_certified else VERDICT_CONSISTENT,
        vp, detail="<vac|rho|vac>; zero overlap certifies nonclassicality",
    ))

    report.entries.append(moment_matrix_test(state, moment_order, margin=margin))

    if state.gaussian_xp is not None:
        fld = filtered_p_gaussian_grid(GaussianCharFn.from_state(state), w, grid)
    else:
        fld = filtered_p_numeric(state, kernel, grid)
    min_val, loc = negativity_scan(fld)
    report.entries.append(CriterionEntry(
        "filtered_negativity",
        VERDICT_CERTIFIED if min_val < -(margin + fld.quad_error) else VERDICT_CONSISTENT,
        min_val, loc,
        detail=f"min of the filtered distribution at w={w:g}",
    ))
    return report
