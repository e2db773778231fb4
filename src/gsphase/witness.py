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
from scipy.special import comb, gammaln

from . import charfn
from .deltaseries import _EPS, TaylorField
from .errors import ComplexResidueError, NonConvergenceError, ParameterError, RangeError, check_number
from .filters import check_width, filtered_p
from .numerics import PhaseField, PhaseGrid, check_grid
from .states import MAX_MOMENT_ORDER, State, overlap_cutoff

#: default certification margin; an order below quadrature tolerances
CERTIFICATION_MARGIN = 1.0e-9

#: a Hankel matrix M certifies only past its own eigenvalue roundoff, this
#: factor times dim * eps * max |eigenvalue of M| (``eigvalsh`` is backward
#: stable, and by Weyl's inequality a perturbation E moves no eigenvalue by
#: more than ||E||_2; Golub & Van Loan, Matrix Computations, section 8.1)
EIGENVALUE_ERROR_FACTOR = 10.0

#: largest imaginary residue a field expected to be real may carry
RESIDUE_TOLERANCE = 1.0e-9

#: largest order k of ``radius_estimate``, which sums k + 1 terms
MAX_RADIUS_ORDER = 10_000

#: largest ``n_terms`` of ``analytic_divergence_demo``, which keeps every partial sum
MAX_DEMO_TERMS = 10_000


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

    The Fock matrix of rho_c (``State.fock``) read at a cutoff: at a0 = 0
    its entry rho_c[0, 0] at cutoff 0, and otherwise <-a0|rho_c|-a0>,
    the matrix summed to overlap_cutoff(a0), past the Poisson weights of
    <n|-a0> = exp(-|a0|^2/2) (-a0)^n / sqrt(n!).  Every classical state has
    strictly positive vacuum overlap, but a classical overlap can be
    arbitrarily small (exp(-|a0|^2) for a coherent state), so ``classify``
    certifies only a structural zero: an undisplaced physical state whose
    value is exactly 0.0.
    """
    a0 = complex(state.spec.displacement)
    if a0 == 0:
        return float(state.fock(0)[0, 0].real)
    n = np.arange(overlap_cutoff(a0) + 1)
    amp = np.exp(-0.5 * abs(a0) ** 2 + n * np.log(-a0) - 0.5 * gammaln(n + 1))
    return float(np.real(np.conj(amp) @ state.fock(n[-1]) @ amp))


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
    rotated, undisplaced rho_c, ``State.moments`` (rho_u's closed form or
    finite-rank resummation, times the rotation phase).  The order-0
    moment is the trace (0 for |m><n| with m != n).  Diverged is a value,
    not an exception; a moment past the float range is inf or nan.  Raises
    ParameterError, before any table is built, unless n is an integer from
    0 to ``MAX_MOMENT_ORDER``.
    """
    check_number(n, "moment order", 0, MAX_MOMENT_ORDER, integer=True)
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


def _below_roundoff(eigs: np.ndarray, margin: float) -> bool:
    """Whether the least of a symmetric matrix's eigenvalues is below
    -(margin + its roundoff), ``EIGENVALUE_ERROR_FACTOR`` dim eps max |eig|."""
    err = EIGENVALUE_ERROR_FACTOR * eigs.size * _EPS * float(np.abs(eigs).max())
    return float(eigs.min()) < -(margin + err)


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
    table.  In both matrices the margin is widened by the eigenvalues' own
    roundoff (``_below_roundoff``): the Hankel matrix of a finite mixture of
    coherent states is singular, and roundoff alone gave it -1.7e-8 at
    0.999 |0><0| + 0.001 |30><30|.  The moments are recentred from the
    table of the undisplaced state (``State.moments``).  When any moment
    diverges or is not finite (a table past the float range, such as
    squeezed xi = 354), the verdict is inapplicable.
    Raises ParameterError, before any moment is read, unless the margin is
    finite and >= 0 (a negative margin certifies a classical state at its
    roundoff, and a nan margin never certifies) and the order an integer
    from 0 to ``MAX_MOMENT_ORDER // 2``.
    """
    check_number(margin, "certification margin", 0)
    check_number(order, "moment order", 0, MAX_MOMENT_ORDER // 2, integer=True)
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
    eigs = np.linalg.eigvalsh(h)
    min_eig = float(eigs.min())
    scale = np.clip(abs(moments[1]) if order else 1.0, 1.0e-30, 1.0e30)
    certified = (_below_roundoff(eigs, margin)
                 and _below_roundoff(np.linalg.eigvalsh(h / scale ** jk), margin))
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

    Ties are broken toward the lexicographically smallest (x, p).  Two
    filtered fields are exact mirror images in x and in p: a centred radial
    state's on the numeric route (``filters.filtered_p_numeric``) and every
    centred one on the Gaussian route (``filters.filtered_p_gaussian_grid``,
    exact under x <-> p too for a circular Gaussian).  Their minimum ties
    exactly with its mirror nodes and is reported at x <= 0, p <= 0, as a
    radial state's Phi scans are (``charfn.classicality_violation``), whose
    x <-> p swaps tie exactly too.  The x <-> p swap of a numeric radial
    field is still decided by roundoff, since its axes take separate matrix
    products.  The field passes ``real_values`` first.
    """
    vals = real_values(fld)
    i, j = divmod(int(np.argmin(vals)), vals.shape[1])
    ax = fld.grid.axis()
    return float(vals[i, j]), complex(ax[i], ax[j])


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

    The whole table ``f.coefficients(order)`` is compared with the log
    bound at once; the bound on a[0, 0] is 1 at every C, C = 0 included
    (0^0 = 1).  Returns the first violating index pair in
    total-order-then-lexicographic scan order, if any.  Raises
    ParameterError, before any table is built, unless C is a real with
    0 <= C < 1 and the order an integer from 0 to ``f.max_order``.
    """
    check_number(c, "admissibility constant C", 0, 1, below=True)
    check_number(order, "order", 0, f.max_order, integer=True)
    log_sqrt2c = math.log(math.sqrt(2.0) * c) if c > 0 else -math.inf
    idx = np.arange(order + 1)
    lg = gammaln(idx + 1)
    totals = np.add.outer(idx, idx)
    with np.errstate(invalid="ignore"):  # 0 * -inf at total 0 when C = 0
        log_bound = (np.where(totals > 0, totals * log_sqrt2c, 0.0)
                     + 0.5 * np.add.outer(lg, lg))
    mag = np.abs(f.coefficients(order))
    live = mag != 0
    log_a = np.log(mag, out=np.full(mag.shape, -math.inf), where=live)
    ms, ns = np.nonzero(live & (log_a > log_bound + 1.0e-12))
    if not ms.size:
        return AdmissibilityResult(True, None, order)
    first = np.lexsort((ms, ms + ns))[0]
    return AdmissibilityResult(False, (int(ms[first]), int(ns[first])), order)


def pmax_pairing_bound(c: float) -> float:
    """Worst-case pairing bound 1/(1 - C^2) over the admissibility class.

    Raises ParameterError unless C is a real with 0 <= C < 1.
    """
    check_number(c, "admissibility constant C", 0, 1, below=True)
    return 1.0 / (1.0 - c * c)


def radius_estimate(c: float, orders) -> list[float]:
    """Cauchy root-test data for the Taylor majorant of the admissibility class.

    Returns c_k^(1/k) with c_k = sum_{n<=k} (sqrt(2) C)^k / sqrt((k-n)! n!),
    for each k in ``orders``; the sequence is eventually decreasing toward
    zero and is dominated by 2 C ((l-1)!)^(-1/(2l)), so the Taylor series of
    every admissible test function converges on the whole plane.  Raises
    ParameterError, before any order is summed, unless C is a real with
    0 <= C < 1 and every order an integer from 1 to ``MAX_RADIUS_ORDER``.
    """
    check_number(c, "admissibility constant C", 0, 1, below=True)
    orders = [check_number(k, "order", 1, MAX_RADIUS_ORDER, integer=True) for k in orders]
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
    """Majorant 2 C ((l-1)!)^(-1/(2l)) of the root-test sequence.

    Raises ParameterError unless C is a real with 0 <= C < 1 and the order
    an integer >= 1.
    """
    check_number(c, "admissibility constant C", 0, 1, below=True)
    check_number(order, "order", 1, integer=True)
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
    """The ``DivergenceDemo`` of C over n_terms terms.

    Raises ParameterError unless C is a finite real >= 0 and n_terms an
    integer from 0 to ``MAX_DEMO_TERMS``.
    """
    check_number(c, "C", 0)
    check_number(n_terms, "n_terms", 0, MAX_DEMO_TERMS, integer=True)
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

def _phi_excess_entry(state: State, beta_grid: PhaseGrid, margin: float) -> CriterionEntry:
    scan = charfn.classicality_violation(state, beta_grid)
    # |beta|^2 capped where math.exp would overflow; the bound is huge there anyway
    roundoff = state.phi_roundoff * math.exp(0.5 * min(abs(scan.location) ** 2, 1400.0))
    return CriterionEntry(
        "characteristic_function",
        VERDICT_CERTIFIED if scan.value > margin + roundoff else VERDICT_CONSISTENT,
        scan.value, scan.location,
        detail="max |Phi(beta)| - 1 over the scan grid",
    )


def _vacuum_entry(state: State) -> CriterionEntry:
    vp = vacuum_probability(state)
    if not math.isfinite(vp):
        return CriterionEntry("vacuum_probability", VERDICT_INAPPLICABLE, None,
                              detail="<vac|rho|vac> is not finite")
    certified = state.physical and state.spec.displacement == 0 and vp == 0.0
    return CriterionEntry(
        "vacuum_probability", VERDICT_CERTIFIED if certified else VERDICT_CONSISTENT,
        vp, detail="<vac|rho|vac>; zero overlap certifies nonclassicality",
    )


def _filtered_entry(state: State, w: float, grid: PhaseGrid, margin: float) -> CriterionEntry:
    fld = filtered_p(state, w, grid)
    min_val, loc = negativity_scan(fld)
    return CriterionEntry(
        "filtered_negativity",
        VERDICT_CERTIFIED if min_val < -(margin + fld.quad_error) else VERDICT_CONSISTENT,
        min_val, loc,
        detail=f"min of the filtered distribution at w={w:g}",
    )


def classify(state: State, *, w: float = 2.0,
             grid: PhaseGrid | None = None,
             beta_grid: PhaseGrid | None = None,
             moment_order: int = 2,
             margin: float = CERTIFICATION_MARGIN) -> NonclassicalityReport:
    """Run the criteria battery and aggregate the verdicts.

    Any single certification makes the state nonclassical-certified; the
    battery never claims classicality.  Criteria run in a fixed order, each
    on its own: characteristic-function excess, vacuum probability,
    diagonal moment matrix, and the negativity of the filter-regularized
    distribution.  The excess certifies only above margin + the state's Phi
    roundoff bound at the scan's argmax (nonzero for an explicit Fock matrix
    only).  The vacuum probability certifies only as a structural zero: a
    physical, undisplaced state whose reported value, rho_c[0, 0] read from
    ``State.fock``, is exactly 0.0.  The filtered minimum certifies only
    below -(margin + quad_error), with quad_error the field's quadrature
    error estimate (0 on the analytic Gaussian route of
    ``filters.filtered_p``, which every state with a ``gaussian_xp`` takes,
    centred at its displacement).  A vacuum
    probability or moment that is not finite makes its criterion
    inapplicable, and so do numerics that fail: a criterion whose Phi or
    filtered field is not finite (RangeError) or whose filter rule does not
    converge (NonConvergenceError) is an inapplicable entry whose detail
    names the error, and the other criteria still give their verdicts.
    Raises ParameterError, before any criterion runs, for a state that is
    not a ``State``, a filter width w that is not a finite positive real
    (or, for a state with a ``gaussian_xp``, whose w^2 lam or w^2 kap
    overflows), a margin that is not finite and >= 0, a moment order that
    is not an integer from 0 to ``MAX_MOMENT_ORDER // 2``, or a grid or
    beta_grid that is neither None nor a ``PhaseGrid``; a bool is never a
    number here.  Raises ComplexResidueError for a non-Hermitian input,
    whose filtered field is not real.
    """
    if not isinstance(state, State):
        raise ParameterError(f"classify needs a State (got {state!r})")
    check_width(w, state.gaussian_xp)
    check_number(margin, "certification margin", 0)
    check_number(moment_order, "moment order", 0, MAX_MOMENT_ORDER // 2, integer=True)
    grid = PhaseGrid(extent=4.0, resolution=321) if grid is None else check_grid(grid)
    beta_grid = (PhaseGrid(extent=4.0, resolution=161) if beta_grid is None
                 else check_grid(beta_grid))
    report = NonclassicalityReport(state=state.describe())
    criteria = [
        ("characteristic_function", lambda: _phi_excess_entry(state, beta_grid, margin)),
        ("vacuum_probability", lambda: _vacuum_entry(state)),
        ("moment_matrix", lambda: moment_matrix_test(state, moment_order, margin=margin)),
        ("filtered_negativity", lambda: _filtered_entry(state, w, grid, margin)),
    ]
    for name, entry in criteria:
        try:
            report.entries.append(entry())
        except (NonConvergenceError, RangeError) as exc:
            report.entries.append(CriterionEntry(name, VERDICT_INAPPLICABLE, None,
                                                 detail=f"{type(exc).__name__}: {exc}"))
    return report
