"""Nonclassicality criteria battery and the dual-space machinery.

Verdict semantics: a criterion either certifies nonclassicality with a
strictly positive margin, stays consistent with a classical model, or is
inapplicable (for instance when the moments it needs diverge).  A finite
battery can never certify classicality, so the aggregate verdict is either
"nonclassical-certified" or "consistent-with-classical".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb, gammaln

from . import charfn
from .deltaseries import TaylorField, _check_order
from .errors import ComplexResidueError, ParameterError
from .filters import _check_width, filtered_p_gaussian_grid, filtered_p_numeric
from .numerics import PhaseField, PhaseGrid
from .states import State, overlap_cutoff

#: default certification margin; an order below quadrature tolerances
CERTIFICATION_MARGIN = 1.0e-9

#: largest imaginary residue a field expected to be real may carry
RESIDUE_TOLERANCE = 1.0e-9


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
    """<vac|rho|vac> of rho = D(a0) rho_c D(a0)^dag.

    ``State.centred_vacuum`` at a0 = 0; otherwise <-a0|rho_c|-a0>, the Fock
    matrix of rho_c summed to overlap_cutoff(a0), past the Poisson weights
    of <n|-a0> = exp(-|a0|^2/2) (-a0)^n / sqrt(n!).  Every classical state
    has strictly positive vacuum overlap, but a classical overlap can be
    arbitrarily small (exp(-|a0|^2) for a coherent state), so ``classify``
    certifies only a structural zero: an undisplaced physical state whose
    ``centred_vacuum`` is exactly 0.0.
    """
    a0 = complex(state.spec.displacement)
    if a0 == 0:
        return float(state.centred_vacuum)
    n = np.arange(overlap_cutoff(a0) + 1)
    amp = np.exp(-0.5 * abs(a0) ** 2 + n * np.log(-a0) - 0.5 * gammaln(n + 1))
    return float(np.real(np.conj(amp) @ state._base_fock_builder(n[-1]) @ amp))


# ---------------------------------------------------------------------------
# normally ordered moments with divergence detection
# ---------------------------------------------------------------------------

def _displaced_moment(table: np.ndarray, a0: complex, n: int):
    """<(a^dag + conj a0)^n (a + a0)^n> from the table of rho_c, or Diverged."""
    if n >= table.shape[0]:
        return DIVERGED
    j = np.arange(n + 1)
    binom = comb(n, j)
    with np.errstate(over="ignore", invalid="ignore"):  # a table past the float range: inf or nan
        return float(np.real((binom * a0 ** (n - j)) @ table[: n + 1, : n + 1]
                             @ (binom * np.conj(a0) ** (n - j))))


def normal_moment(state: State, n: int):
    """<: (a^dag a)^n :> = Int d^2alpha P(alpha) |alpha|^(2n), or Diverged.

    Centred and displaced states share one route: the binomial expansion
    of <(a^dag + conj a0)^n (a + a0)^n> over the moment table of the
    undisplaced state, ``State.moments``, closed form or finite-rank
    resummation.  The order-0 moment is the trace (0 for |m><n| with
    m != n).  Diverged is a value, not an exception; a moment past the
    float range is inf or nan.  Raises ParameterError unless n is an
    integer >= 0.
    """
    _check_order(n, "moment order")
    return _displaced_moment(state.moments(n), complex(state.spec.displacement), n)


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


def _check_margin_order(margin: float, order: int) -> None:
    """Raise ParameterError unless the certification margin is finite and >= 0
    and the moment order an integer >= 0: a negative margin certifies a
    classical state at its roundoff, and a nan margin never certifies."""
    if not (isinstance(margin, numbers.Real) and math.isfinite(margin) and margin >= 0):
        raise ParameterError(f"certification margin must be finite and >= 0 (got {margin!r})")
    _check_order(order, "moment order")


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
    and at small moments the rescaled one magnifies the error of a moment
    table.  The moments are recentred from the table of the undisplaced
    state (``State.moments``).  When any moment diverges or is not finite (a
    table past the float range, such as squeezed xi = 354), the verdict is
    inapplicable.
    Raises ParameterError unless the margin is finite and >= 0 and the
    order an integer >= 0.
    """
    _check_margin_order(margin, order)
    table = state.moments(2 * order)
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


def real_values(fld: PhaseField) -> np.ndarray:
    """The real part of a sampled field expected to be real.

    Raises ComplexResidueError when the field's ``imag_residue`` exceeds
    ``RESIDUE_TOLERANCE``: such a field (of a non-Hermitian input such as |0><2|)
    is not a distribution whose sign means anything.
    """
    if fld.values is None or fld.grid is None:
        raise ParameterError("a sampled field is required")
    if fld.imag_residue > RESIDUE_TOLERANCE:
        raise ComplexResidueError(
            f"field has imaginary residue {fld.imag_residue:.3e} > {RESIDUE_TOLERANCE:g}"
        )
    return np.real(fld.values)


def negativity_scan(fld: PhaseField):
    """Minimum of a sampled real field with its grid location.

    Ties are broken toward the lexicographically smallest (x, p).  The field
    passes ``real_values`` first.
    """
    vals = real_values(fld)
    i, j = divmod(int(np.argmin(vals)), vals.shape[1])
    ax = fld.grid.axis()
    return float(vals[i, j]), complex(ax[i], ax[j])


# ---------------------------------------------------------------------------
# admissible test functions and the worst-case pairing bound
# ---------------------------------------------------------------------------

def _check_admissibility_constant(c) -> None:
    """Raise ParameterError unless c is a real with 0 <= C < 1 (nan fails too)."""
    if not (isinstance(c, numbers.Real) and 0.0 <= c < 1.0):
        raise ParameterError(f"admissibility constant must satisfy 0 <= C < 1 (got {c!r})")


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    first_violation: tuple[int, int] | None
    checked_order: int


def admissible_check(f: TaylorField, c: float, order: int) -> AdmissibilityResult:
    """Check |a[n,m]| <= (sqrt(2) C)^(n+m) sqrt(n! m!) for all n, m <= order.

    Returns the first violating index pair in total-order-then-lexicographic
    scan order, if any.  Raises ParameterError unless 0 <= C < 1 and the
    order is an integer >= 0.
    """
    _check_admissibility_constant(c)
    _check_order(order)
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
    _check_admissibility_constant(c)
    return 1.0 / (1.0 - c * c)


def radius_estimate(c: float, orders) -> list[float]:
    """Cauchy root-test data for the Taylor majorant of the admissibility class.

    Returns c_k^(1/k) with c_k = sum_{n<=k} (sqrt(2) C)^k / sqrt((k-n)! n!),
    for each k in ``orders``; the sequence is eventually decreasing toward
    zero and is dominated by 2 C ((l-1)!)^(-1/(2l)), so the Taylor series of
    every admissible test function converges on the whole plane.  Raises
    ParameterError unless 0 <= C < 1 and every order is an integer >= 1.
    """
    _check_admissibility_constant(c)
    out = []
    for k in orders:
        _check_order(k, least=1)
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
    _check_admissibility_constant(c)
    _check_order(order, least=1)
    return 2.0 * c * math.exp(-gammaln(order) / (2.0 * order))


@dataclass(frozen=True)
class DivergenceDemo:
    """Partial sums of sum n! (C^2/2)^n, the merely-analytic majorant.

    The term ratio n C^2 / 2 grows without bound, so analyticity alone is
    not enough for a finite worst-case pairing; partial sums are reported
    in log10 to stay overflow-safe.
    """

    log10_partial_sums: list[float]
    term_ratios: list[float]
    first_index_above_1e6: int | None


def analytic_divergence_demo(c: float, n_terms: int) -> DivergenceDemo:
    if not (isinstance(c, numbers.Real) and c >= 0):
        raise ParameterError(f"C must be a non-negative real (got {c!r})")
    _check_order(n_terms, "n_terms")
    log_c2h = math.log(c * c / 2.0) if c > 0 else -math.inf
    log_sum = 0.0
    sums = [log_sum / math.log(10.0)]
    ratios = []
    first = None
    for n in range(1, n_terms + 1):
        if c == 0:
            sums.append(log_sum / math.log(10.0))
            ratios.append(0.0)
            continue
        log_term = gammaln(n + 1) + n * log_c2h
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
    excess certifies only above margin + the state's Phi roundoff bound at
    the scan's argmax (nonzero for an explicit Fock matrix only).  The
    filtered minimum certifies only below -(margin + quad_error), with
    quad_error the field's quadrature error estimate (0 on the analytic
    Gaussian route, which every state with a ``gaussian_xp`` takes, centred
    at its displacement).  A vacuum probability or moment that is not finite
    makes its criterion inapplicable.  Raises ParameterError, before any
    criterion runs, for a filter width w that is not a finite positive real, a
    margin that is not finite and >= 0, or a moment order that is not an
    integer >= 0; and NonConvergenceError when the numeric filter cannot
    resolve the grid at width w.
    """
    _check_width(w)
    _check_margin_order(margin, moment_order)
    grid = grid or PhaseGrid(extent=4.0, resolution=321)
    beta_grid = beta_grid or PhaseGrid(extent=4.0, resolution=161)
    report = NonclassicalityReport(state=state.describe())

    scan = charfn.classicality_violation(state, beta_grid)
    # |beta|^2 capped where math.exp would overflow; the bound is huge there anyway
    roundoff = state.phi_roundoff * math.exp(0.5 * min(abs(scan.location) ** 2, 1400.0))
    report.entries.append(CriterionEntry(
        "characteristic_function",
        VERDICT_CERTIFIED if scan.value > margin + roundoff else VERDICT_CONSISTENT,
        scan.value, scan.location,
        detail="max |Phi(beta)| - 1 over the scan grid",
    ))

    vp = vacuum_probability(state)
    if math.isfinite(vp):
        vp_certified = (state.physical and state.spec.displacement == 0
                        and state.centred_vacuum == 0.0)
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
        fld = filtered_p_gaussian_grid(state.gaussian_xp, w, grid,
                                       centre=complex(state.spec.displacement))
    else:
        fld = filtered_p_numeric(state, w, grid)
    min_val, loc = negativity_scan(fld)
    report.entries.append(CriterionEntry(
        "filtered_negativity",
        VERDICT_CERTIFIED if min_val < -(margin + fld.quad_error) else VERDICT_CONSISTENT,
        min_val, loc,
        detail=f"min of the filtered distribution at w={w:g}",
    ))
    return report
