"""Verification suite behind ``gsphase verify``.

Each criterion is a pure function returning a :class:`CriterionResult`; the
pytest acceptance module asserts them one by one and the CLI runs the whole
battery, so both paths exercise the same code.  Every tolerance is pinned
here.  Criterion 1's truncated-operator oracle is built here from matrix
powers of the ladder operator (``states.creation_exponential``), not from
the closed-form Fock elements it checks.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .charfn import char_fn, char_fn_fock_element, quantum_bound_check
from .deltaseries import TaylorField, exp_laplace_series, fock_diagonal, pair
from .errors import ParameterError
from .filters import (
    FilterKernel,
    GaussianCharFn,
    filtered_p_gaussian_grid,
    filtered_p_numeric,
    sinc2_kernel,
    tri_gaussian_ft,
    tri_gaussian_ft_line_integral,
)
from .numerics import Cartesian, PhaseGrid, gauss_nodes_1d, quad2d
from .states import StateSpec, creation_exponential, make_state
from .witness import (
    DIVERGED,
    VERDICT_CERTIFIED,
    VERDICT_INAPPLICABLE,
    admissible_check,
    classify,
    normal_moment,
    pmax_pairing_bound,
    radius_estimate,
    radius_estimate_bound,
)

FIG_GRID = PhaseGrid(extent=4.0, resolution=321)

#: physical catalog states scanned by the quantum-bound criterion
BOUND_CATALOG = [
    StateSpec("fock_element", {"m": 0, "n": 0}),
    StateSpec("fock_element", {"m": 1, "n": 1}),
    StateSpec("fock_element", {"m": 2, "n": 2}),
    StateSpec("fock_mixture", {"w0": 0.5, "w2": 0.5}),
    StateSpec("thermal", {"nbar": 0.5}),
    StateSpec("thermal", {"nbar": 2.0}),
    StateSpec("squeezed", {"xi": 0.5}),
    StateSpec("squeezed", {"xi": 1.4}),
    StateSpec("squeezed", {"xi": 5.0}),
    StateSpec("spats", {"nbar": 0.5}),
    StateSpec("spats", {"nbar": 1.0}),
    StateSpec("spats", {"nbar": 2.0}),
    StateSpec("photon_vacuum_mix", {"eta": 0.3}),
    StateSpec("photon_vacuum_mix", {"eta": 1.0}),
    StateSpec("cauchy_lorentz", {"t": 1.0}),
    StateSpec("cauchy_lorentz", {"t": 3.0}),
    StateSpec("cauchy_lorentz_ncl", {"t": 1.0}),
    StateSpec("cauchy_lorentz_ncl", {"t": 3.0}),
]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"number": int(self.number), "name": self.name,
                "passed": bool(self.passed), "details": [str(d) for d in self.details]}


def _fmt(x: float) -> str:
    return f"{float(x):.6e}"


# ---------------------------------------------------------------------------
# oracles local to the verification suite
# ---------------------------------------------------------------------------

def _t_quadrature(y: np.ndarray, g: float, nodes: int = 500) -> np.ndarray:
    z, w = gauss_nodes_1d(0.0, 1.0, nodes)
    vals = np.exp(-g * z * z + 2j * np.multiply.outer(y, z)) * (w * (1.0 - z))
    return (2.0 / math.pi) * vals.sum(axis=-1).real


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Fock-element characteristic functions against the operator oracle."""
    rng = np.random.default_rng(101)
    betas = np.empty(0, dtype=complex)
    while betas.size < 50:  # uniform on the |beta| <= 3 disk by rejection
        cand = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        betas = np.concatenate([betas, cand[np.abs(cand) <= 3.0]])
    betas = betas[:50]
    # <n| e^(beta a^dag) e^(-conj(beta) a) |m> from matrix powers of the
    # truncated ladder operator, at every beta at once
    oracle = (creation_exponential(betas, 60)
              @ np.swapaxes(creation_exponential(-np.conj(betas), 60), -1, -2))
    worst = 0.0
    for m in range(11):
        for n in range(11):
            diff = np.abs(char_fn_fock_element(m, n, betas) - oracle[:, n, m])
            worst = max(worst, float(diff.max()))
    passed = worst < 1e-8
    return CriterionResult(1, "fock-element characteristic functions vs operator oracle",
                           passed, [f"max |difference| = {_fmt(worst)} over m,n <= 10 at 50 points"])


def criterion_2() -> CriterionResult:
    """Singular-series pairings reproduce the regular thermal integrals."""
    cases = [(0.25, 1.0), (0.5, 1.0), (0.5, 2.0), (1.0, 4.0)]
    details, ok = [], True
    for nbar, sigma_sq in cases:
        series = exp_laplace_series(nbar, 400)
        val = float(np.real(pair(series, TaylorField.from_exp_quadratic(-1.0 / sigma_sq)).value))
        closed = sigma_sq / (sigma_sq + nbar)
        reg = quad2d(
            lambda al: np.exp(-np.abs(al) ** 2 / nbar) / (math.pi * nbar)
            * np.exp(-np.abs(al) ** 2 / sigma_sq),
            Cartesian.square(9.0), tol=1e-12,
        ).real
        err = max(abs(val - closed), abs(val - reg))
        ok = ok and err < 1e-8
        details.append(f"nbar={nbar:g} sigma^2={sigma_sq:g}: pairing={val!r} "
                       f"closed={closed!r} quadrature={reg!r} err={_fmt(err)}")
    return CriterionResult(2, "thermal singular/regular duality at the pairing level", ok, details)


def criterion_3() -> CriterionResult:
    """Cross-oracle agreement for the worst-case Fock diagonal, plus the
    documented KNOWN-DISCREPANCY against a previously published closed form."""
    rep = fock_diagonal(exp_laplace_series(-0.5, 400), 5)
    diff0 = abs(rep.pairing[0] - rep.transform_oracle[0])
    ok = (abs(rep.pairing[0] - 2.0) < 1e-6
          and abs(rep.transform_oracle[0] - 2.0) < 1e-6
          and diff0 < 1e-6
          and rep.reference_closed_form is not None
          and rep.reference_matches is False)
    details = [
        f"pairing route k=0..5: {[round(v, 9) for v in rep.pairing]}",
        f"transform oracle k=0..3: {[round(v, 9) for v in rep.transform_oracle]}",
        f"route difference at k=0: {_fmt(diff0)}",
        f"published closed form: {[round(v, 9) for v in rep.reference_closed_form]}",
        "KNOWN-DISCREPANCY: the published closed form disagrees with both "
        "independent routes (a sign is dropped in its derivation); reported, not asserted",
    ]
    return CriterionResult(3, "worst-case Fock diagonal cross-oracle", ok, details)


def criterion_4() -> CriterionResult:
    """Quantum growth bound |Phi| exp(-|beta|^2/2) <= 1 on the catalog."""
    grid = PhaseGrid(extent=4.0, resolution=161)
    details, ok = [], True
    worst_name, worst = "", -1.0
    for spec in BOUND_CATALOG:
        st = make_state(spec)
        rep = quantum_bound_check(st, grid)
        if rep.value > worst:
            worst, worst_name = rep.value, st.describe()
        if rep.value > 1.0 + 1e-9:
            ok = False
            details.append(f"VIOLATION {st.describe()}: max ratio {rep.value!r}")
    details.insert(0, f"catalog max ratio = {worst!r} ({worst_name}); bound 1 + 1e-9")
    sq5 = make_state(StateSpec("squeezed", {"xi": 5.0}))
    ratio = float(abs(char_fn(sq5, 4j))) * math.exp(-8.0)
    ok = ok and ratio > 0.9996
    details.append(f"squeezed xi=5 ratio at beta=4i: {ratio!r} > 0.9996 "
                   "(approach to the maximal growth)")
    return CriterionResult(4, "quantum growth bound over the physical catalog", ok, details)


def criterion_5() -> CriterionResult:
    """Closed form of the tri-Gaussian transform against its defining integral."""
    ys = np.linspace(-10.0, 10.0, 201)
    worst = 0.0
    for g in (-2.0, -0.5, 0.0, 0.5, 2.0):
        worst = max(worst, float(np.max(np.abs(tri_gaussian_ft(ys, g) - _t_quadrature(ys, g)))))
    branch_exact = all(
        tri_gaussian_ft(y, 0.0) == math.sin(y) ** 2 / (math.pi * y * y)
        for y in (0.5, 1.0, 2.5)
    )
    ok = worst < 1e-10 and branch_exact
    return CriterionResult(5, "tri-Gaussian transform closed form vs quadrature", ok, [
        f"max |closed - quadrature| = {_fmt(worst)} on y in [-10,10], g in {{-2,-0.5,0,0.5,2}}",
        f"g=0 branch holds exactly: {branch_exact}",
    ])


def criterion_6() -> CriterionResult:
    """Regularized-distribution properties of the four reference states at w=2."""
    w = 2.0
    details, ok = [], True
    mid = FIG_GRID.resolution // 2

    vac = make_state(StateSpec("fock_element", {"m": 0, "n": 0}))
    fld = filtered_p_numeric(vac, FilterKernel(w), FIG_GRID)
    kernel = sinc2_kernel(FIG_GRID.mesh(), w)
    err_a = float(np.max(np.abs(np.real(fld.values) - kernel)))
    min_a = float(np.real(fld.values).min())
    ok_a = err_a < 1e-8 and min_a >= -1e-9
    details.append(f"(a) vacuum: max |numeric - kernel| = {_fmt(err_a)}, min = {_fmt(min_a)}")

    pm = make_state(StateSpec("p_max"))
    fpm = filtered_p_gaussian_grid(GaussianCharFn.from_state(pm), w, FIG_GRID)
    min_b = float(np.real(fpm.values).min())
    ok_b = min_b < -1e-3
    details.append(f"(b) maximally singular: min = {min_b!r} < -1e-3")

    th = make_state(StateSpec("thermal", {"nbar": 0.5}))
    fth = filtered_p_gaussian_grid(GaussianCharFn.from_state(th), w, FIG_GRID)
    min_c = float(np.real(fth.values).min())
    ok_c = min_c >= -1e-9
    details.append(f"(c) thermal 1/2: min = {_fmt(min_c)} >= -1e-9")

    sq = make_state(StateSpec("squeezed", {"xi": 1.4}))
    fsq = filtered_p_gaussian_grid(GaussianCharFn.from_state(sq), w, FIG_GRID)
    cut_sq = np.real(fsq.values)[:, mid]
    cut_pm = np.real(fpm.values)[:, mid]

    def unit(v):
        return v / math.sqrt(float(np.sum(v * v)))

    dev = math.sqrt(float(np.sum((unit(cut_sq) - unit(cut_pm)) ** 2)))
    min_d = float(cut_sq.min())
    ok_d = min_d < 0 and dev < 0.15
    details.append(f"(d) squeezed xi=1.4 cut: min = {min_d!r} < 0, "
                   f"normalized L2 deviation from the singular profile = {dev!r} < 0.15")

    ok = ok_a and ok_b and ok_c and ok_d
    return CriterionResult(6, "regularized reference profiles at w=2 (L=4, N=321)", ok, details)


def criterion_7() -> CriterionResult:
    """Unit normalization of the regularized distributions."""
    specs = [StateSpec("fock_element", {"m": 0, "n": 0}), StateSpec("p_max"),
             StateSpec("thermal", {"nbar": 0.5}), StateSpec("squeezed", {"xi": 1.4})]
    details, ok = [], True
    for spec in specs:
        st = make_state(spec)
        lam, kap = st.gaussian_xp
        for w in (1.0, 2.0, 4.0):
            total = (tri_gaussian_ft_line_integral(w * w * lam)
                     * tri_gaussian_ft_line_integral(w * w * kap))
            err = abs(total - 1.0)
            ok = ok and err < 1e-6
            details.append(f"{spec.kind} w={w:g}: integral = {total!r} (err {_fmt(err)})")
    return CriterionResult(7, "unit normalization of regularized distributions", ok, details)


def criterion_8() -> CriterionResult:
    """Soundness and effectiveness of the criteria battery."""
    details, ok = [], True
    for spec in [StateSpec("fock_element", {"m": 0, "n": 0}),
                 StateSpec("thermal", {"nbar": 0.5}),
                 StateSpec("cauchy_lorentz", {"t": 3.0})]:
        rep = classify(make_state(spec))
        if rep.certified:
            ok = False
        details.append(f"classical {spec.kind}: certified={rep.certified} (want False)")
    for spec in [StateSpec("squeezed", {"xi": 1.4}), StateSpec("spats", {"nbar": 1.0}),
                 StateSpec("photon_vacuum_mix", {"eta": 1.0}), StateSpec("p_max"),
                 StateSpec("cauchy_lorentz_ncl", {"t": 1.0})]:
        rep = classify(make_state(spec))
        if not rep.certified:
            ok = False
        certs = [e.criterion for e in rep.entries if e.verdict == VERDICT_CERTIFIED]
        details.append(f"nonclassical {spec.kind}: certified={rep.certified} via {certs}")
        if spec.kind == "cauchy_lorentz_ncl":
            vac_ok = rep.entry("vacuum_probability").verdict == VERDICT_CERTIFIED
            mom_ok = rep.entry("moment_matrix").verdict == VERDICT_INAPPLICABLE
            ok = ok and vac_ok and mom_ok
            details.append(f"  heavy-tail: vacuum-route certified={vac_ok}, "
                           f"moment route inapplicable={mom_ok}")
    return CriterionResult(8, "criteria battery soundness and effectiveness", ok, details)


def criterion_9() -> CriterionResult:
    """Heavy-tail moments: Beta-integral value and the divergence frontier."""
    from scipy.special import betaln
    st3 = make_state(StateSpec("cauchy_lorentz", {"t": 3.0}))
    m1 = normal_moment(st3, 1)
    oracle = 3.0 * math.exp(betaln(2, 2))
    ok = m1 is not DIVERGED and abs(m1 - 0.5) < 1e-6 and abs(m1 - oracle) < 1e-6
    details = [f"t=3, n=1 moment = {m1!r}; Beta oracle = {oracle!r}"]
    for t in (0.5, 1.0, 1.5, 2.0, 3.0):
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        for n in (0, 1, 2):
            m = normal_moment(st, n)
            want_diverged = t <= n
            got_diverged = m is DIVERGED
            if want_diverged != got_diverged:
                ok = False
                details.append(f"FRONTIER MISMATCH t={t:g} n={n}: diverged={got_diverged}")
    details.append("divergence exactly on the t <= n cells of the 5x3 grid")
    return CriterionResult(9, "heavy-tail moments and divergence frontier", ok, details)


def criterion_10() -> CriterionResult:
    """Dual-space suite: admissibility, pairing bound, convergence radius."""
    details, ok = [], True
    f_gauss = TaylorField.from_exp_quadratic(-1.0)
    res_pass = admissible_check(f_gauss, 0.75, 60)
    res_fail = admissible_check(f_gauss, 0.70, 60)
    ok = ok and res_pass.admissible and not res_fail.admissible
    ok = ok and res_fail.first_violation == (1, 1)
    details.append(f"gaussian admissible at C=0.75: {res_pass.admissible}; "
                   f"fails at C=0.70 with first order {res_fail.first_violation} (predicted (1, 1))")

    series = exp_laplace_series(-0.5, 400)
    catalog = [
        (0.0, TaylorField.constant(1.0)),
        (1.0 / math.sqrt(2.0), TaylorField.from_exp_quadratic(-1.0)),
        (0.5, TaylorField.from_exp_quadratic(-0.5)),
        (1.0 / math.sqrt(8.0), TaylorField.from_exp_quadratic(-0.25)),
        (0.6, TaylorField.alternating(0.6, 0.9)),
    ]
    for cval, f in catalog:
        val = abs(pair(series, f).value)
        bound = pmax_pairing_bound(cval)
        if val > bound + 1e-9:
            ok = False
        details.append(f"|pairing| = {val!r} <= 1/(1-C^2) = {bound!r} for {f.label}")

    ests = radius_estimate(0.9, [50, 100, 200])
    bounds = [radius_estimate_bound(0.9, l) for l in (50, 100, 200)]
    decreasing = ests[0] > ests[1] > ests[2]
    dominated = all(e <= b + 1e-12 for e, b in zip(ests, bounds))
    ok = ok and decreasing and dominated
    details.append(f"root-test estimates at C=0.9: {[round(e, 6) for e in ests]} "
                   f"decreasing={decreasing}, below bounds {[round(b, 6) for b in bounds]}")
    return CriterionResult(10, "dual-space suite (admissibility, bound, radius)", ok, details)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def default_workers() -> int:
    env = os.environ.get("PHASESPACE_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ParameterError(f"PHASESPACE_THREADS must be a positive integer (got {env!r})")
        return workers
    return min(4, os.cpu_count() or 1)


def run_all(max_workers: int | None = None) -> list[CriterionResult]:
    """Run criteria 1-10, in parallel when allowed, in deterministic order."""
    workers = max_workers or default_workers()
    if workers <= 1:
        return [fn() for fn in CRITERIA]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn) for fn in CRITERIA]
        return [f.result() for f in futures]


def report_payload(results: list[CriterionResult]) -> dict:
    return {
        "criteria": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }


def canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_with_determinism_check(max_workers: int | None = None):
    """Run the battery twice and append the byte-identity criterion."""
    first = run_all(max_workers)
    second = run_all(max_workers)
    identical = canonical_bytes(report_payload(first)) == canonical_bytes(report_payload(second))
    det = CriterionResult(11, "byte-identical reports across repeated runs", identical,
                          ["two full runs serialized identically" if identical
                           else "reports differ between runs"])
    return first + [det]
