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
from scipy.special import comb, factorial, gammaln

from . import charfn
from .deltaseries import TaylorField
from .errors import ComplexResidueError, ParameterError
from .filters import FilterKernel, GaussianCharFn, filtered_p_gaussian_grid, filtered_p_numeric
from .numerics import PhaseField, PhaseGrid, gauss_nodes_1d
from .states import State, displaced_vacuum_probability, fock_matrix, resummed_coefficients

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
    """<vac| rho |vac>: the exact value, or <-a0|rho_c|-a0> for rho = D(a0) rho_c D(a0)^dag.

    Every classical state has strictly positive vacuum overlap, but a
    classical overlap can be arbitrarily small (exp(-|a0|^2) for a coherent
    state), so ``classify`` certifies only a structural zero: a physical
    state whose ``exact_vacuum_probability`` is exactly 0.0.
    """
    p0 = state.exact_vacuum_probability
    return displaced_vacuum_probability(state) if p0 is None else float(p0)


# ---------------------------------------------------------------------------
# normally ordered moments with divergence detection
# ---------------------------------------------------------------------------

_PANEL_RATIO_DIVERGENT = 0.98


def _radial_moment(density, n: int, *, n_panels: int = 22, nodes: int = 48):
    """Int d^2alpha P |alpha|^(2n) over dyadic radial panels.

    The panel sums of a power-law tail decay geometrically with the dyadic
    ratio; a ratio locked at or above one signals the divergent regime, and
    the convergent regime is closed with the geometric tail extrapolation.
    Inside r = 1 the panels are dyadic down to 4-8 widths 1/sqrt(pi |P(0)|)
    of a core narrower than 1/8 (cauchy_lorentz at t = 1e6).
    """
    def shell(r0, r1):
        r, w = gauss_nodes_1d(r0, r1, nodes)
        return float(np.sum(w * 2.0 * math.pi * r ** (2 * n + 1) * density(r)))

    core = abs(float(density(np.zeros(1))[0]))
    depth = int(np.clip(np.ceil(0.5 * np.log2(math.pi * core)) - 3, 0, 1000)) if core > 0 else 0
    total = sum(shell(2.0 ** -(j + 1) if j < depth else 0.0, 2.0 ** -j) for j in range(depth, -1, -1))
    contributions = []
    quiet = 0
    for j in range(n_panels):
        value = shell(2.0 ** j, 2.0 ** (j + 1))
        contributions.append(value)
        total += value
        quiet = quiet + 1 if abs(value) < 1.0e-14 * max(abs(total), 1.0) else 0
        if quiet >= 2:
            return total
        ratios = [b / a for a, b in zip(contributions[-3:-1], contributions[-2:]) if a > 0]
        if len(contributions) >= 4 and len(ratios) == 2 and min(ratios) >= _PANEL_RATIO_DIVERGENT:
            return DIVERGED
    rho = contributions[-1] / contributions[-2] if contributions[-2] > 0 else 0.0
    if rho >= 1.0:
        return DIVERGED
    return total + contributions[-1] * rho / (1.0 - rho)


def _centred_moments(state: State, order: int) -> np.ndarray:
    """T[q, r] = <a^dag^r a^q> of the centred (rotated) state, q, r <= order.

    A generator state gives T[q, q] = q! gamma^q; a radial regular density
    its radial moments, cut before the first divergent one, with T[0, 0] = 1
    counting the point mass of cauchy_lorentz_ncl; any other state
    q! r! d[q, r] from ``resummed_coefficients`` at cutoff 128, with the
    trace T[0, 0] = 1 for a physical state whatever its truncation loss.
    """
    c = state.centred or state
    q = np.arange(order + 1)
    if c.generator_gamma is not None:
        return np.diag(factorial(q) * c.generator_gamma ** q).astype(complex)
    if c.regular_p_closed is not None:
        diag = [1.0]
        for j in q[1:]:
            m = _radial_moment(lambda r: np.real(c.regular_p_closed(r)), int(j))
            if m is DIVERGED:
                break
            diag.append(m)
        return np.diag(diag).astype(complex)
    d, _ = resummed_coefficients(fock_matrix(c, 128).matrix, order)
    table = d * np.outer(factorial(q), factorial(q))
    if c.physical:
        table[0, 0] = 1.0
    return table


def _displaced_moment(table: np.ndarray, a0: complex, n: int):
    """<(a^dag + conj a0)^n (a + a0)^n> from the centred table, or Diverged."""
    if n >= table.shape[0]:
        return DIVERGED
    j = np.arange(n + 1)
    binom = comb(n, j)
    return float(np.real((binom * a0 ** (n - j)) @ table[: n + 1, : n + 1]
                         @ (binom * np.conj(a0) ** (n - j))))


def normal_moment(state: State, n: int):
    """<: (a^dag a)^n :> = Int d^2alpha P(alpha) |alpha|^(2n), or Diverged.

    Centred and displaced states share one route: the binomial expansion
    of <(a^dag + conj a0)^n (a + a0)^n> over the centred moment table.
    The order-0 moment is the trace (0 for |m><n| with m != n).  Diverged is
    a value, not an exception.
    """
    if n < 0:
        raise ParameterError("moment order must be >= 0")
    return _displaced_moment(_centred_moments(state, n), complex(state.spec.displacement), n)


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
    photon number with negative normally ordered square expectation
    (Shchukin, Richter & Vogel, PRA 71, 011802(R) (2005)).  The witness
    value is the unscaled minimal eigenvalue.  It certifies only when the
    matrix rescaled by alpha -> alpha / sqrt|<:n:>|, a congruence that keeps
    the sign, is also below -margin: at large moments the unscaled
    eigenvalue carries roundoff (-3e-6 for a coherent state at |a0| = 19.5),
    and at small moments the rescaled one magnifies quadrature error.  When
    any moment diverges or is not finite, the verdict is inapplicable.
    """
    table = _centred_moments(state, 2 * order)
    a0 = complex(state.spec.displacement)
    moments = []
    for i in range(2 * order + 1):
        m = _displaced_moment(table, a0, i)
        if m is DIVERGED or not math.isfinite(m):
            reason = "diverges" if m is DIVERGED else "is not finite"
            return CriterionEntry(
                "moment_matrix", VERDICT_INAPPLICABLE, None,
                detail=f"moment of order {i} {reason}",
            )
        moments.append(m)
    jk = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    h = np.array(moments)[jk]
    min_eig = float(np.linalg.eigvalsh(h).min())
    scale = np.clip(abs(moments[1]) if order else 1.0, 1.0e-30, 1.0e30)
    certified = min_eig < -margin and np.linalg.eigvalsh(h / scale ** jk).min() < -margin
    verdict = VERDICT_CERTIFIED if certified else VERDICT_CONSISTENT
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
    i, j = divmod(idx, vals.shape[1])
    ax = fld.grid.axis()
    return float(vals.ravel()[idx]), complex(ax[i], ax[j])


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
    Gaussian route).  A vacuum probability or moment that is not finite
    makes its criterion inapplicable.  Raises ParameterError for a filter width w that is not
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
    if math.isfinite(vp):
        vp_certified = state.physical and state.exact_vacuum_probability == 0.0
        report.entries.append(CriterionEntry(
            "vacuum_probability",
            VERDICT_CERTIFIED if vp_certified else VERDICT_CONSISTENT,
            vp, detail="<vac|rho|vac>; zero overlap certifies nonclassicality",
        ))
    else:
        report.entries.append(CriterionEntry(
            "vacuum_probability", VERDICT_INAPPLICABLE, None,
            detail="<vac|rho|vac> is not finite",
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
