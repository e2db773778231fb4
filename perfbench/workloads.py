"""The four benchmark workloads: their seeded inputs, operations and checks.

An operation drives gsphase only through its public functions or its click
commands (invoked in-process), and looks every function up on its module at
call time, so the traced run sees the spans that ``spans.install`` adds.
The importer puts the checkout's ``src/`` on ``sys.path`` first.
Each operation has a ``check`` that compares the output with ``oracles``
(numpy/scipy only) or with a property the physics guarantees; it returns
the list of problems found, empty when the output is right.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import gsphase.cli
import numpy as np
from click.testing import CliRunner
from gsphase import charfn, numerics, states, witness

import oracles

MARGIN = 1.0e-9          # classify's default certification margin
VERDICT_CERTIFIED = "nonclassical-certified"
VERDICT_INAPPLICABLE = "inapplicable/diverged"
CLASSICAL_KINDS = {"thermal", "cauchy_lorentz"}


@dataclass
class Op:
    label: str                            # what the op is, for the side file
    group: str                            # state kind or command, for time shares
    items: int                            # work items (see README) for work_per_s
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Spec:
    """A state as the benchmark describes it (kind, params and modifiers)."""

    kind: str
    params: dict = field(default_factory=dict)
    rotation: float = 0.0
    displacement: complex = 0j

    @property
    def classical(self) -> bool:
        vacuum_like = self.kind == "fock_element" and int(self.params.get("m", -1)) == 0
        return vacuum_like or self.kind in CLASSICAL_KINDS

    @property
    def explicit(self) -> bool:
        return self.kind == "explicit_fock"

    def library_spec(self):
        return states.StateSpec(self.kind, dict(self.params), complex(self.displacement),
                         float(self.rotation))

    def to_json(self) -> str:
        obj = {"kind": self.kind, "params": self.params}
        if self.displacement:
            obj["displacement"] = {"re": self.displacement.real, "im": self.displacement.imag}
        if self.rotation:
            obj["rotation"] = self.rotation
        return json.dumps(obj, sort_keys=True)

    def label(self) -> str:
        kind = self.kind
        if kind == "fock_element" and int(self.params["m"]) == 0:
            kind = "coherent" if self.displacement else "vacuum"
        elif self.displacement:
            kind += "+disp"
        return kind + ("+rot" if self.rotation else "")

    def phi(self):
        return oracles.phi(self.kind, self.params, self.rotation, self.displacement)


def _polar(rng, r_lo: float, r_hi: float) -> complex:
    r, th = rng.uniform(r_lo, r_hi), rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


def _weights(rng, ks) -> dict:
    w = rng.dirichlet(np.ones(len(ks)))
    w = w / w.sum()
    return {f"w{k}": float(v) for k, v in zip(ks, w)}


def _cli_invoke(args: list[str]):
    """Run a gsphase click command in-process; raise if it did not exit cleanly."""
    res = CliRunner().invoke(gsphase.cli.main, args, catch_exceptions=True)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return res.exit_code, res.output


def warm_common() -> None:
    """First-call costs every workload pays: BLAS/LAPACK start-up and the
    Gauss-Legendre node cache for the panel sizes the library uses."""
    a = np.arange(16.0).reshape(4, 4)
    np.linalg.eigvalsh(a @ a.T)
    for n in (12, 24, 32, 48, 96, 192, 200, 384, 500, 768):
        numerics.gauss_nodes_1d(0.0, 1.0, n)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_check(out, report_path: str) -> list[str]:
    exit_code, text = out
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited with {exit_code}")
    rows = [ln.split(None, 2) for ln in text.splitlines() if ln[:4] in ("PASS", "FAIL")]
    if [int(r[1]) for r in rows] != list(range(1, 12)):
        problems.append(f"criteria listed: {[r[1] for r in rows]}")
    problems += [f"criterion {r[1]} printed {r[0]}" for r in rows if r[0] != "PASS"]
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("all_passed") is not True:
        problems.append("report: all_passed is not true")
    crit = {c["number"]: c for c in payload.get("criteria", [])}
    if sorted(crit) != list(range(1, 12)) or not all(c["passed"] for c in crit.values()):
        problems.append("report: not all of criteria 1-11 passed")
    if crit.get(11, {}).get("details") != ["two full runs serialized identically"]:
        problems.append("report: criterion 11 did not find byte-identical reports")
    return problems


def build_verify(seed: int, outdir: str):
    """One op: the whole acceptance battery, as ``gsphase verify --threads 1``.

    The battery is fixed, so the seed changes nothing here.
    """
    path = os.path.join(outdir, "verify-report.json")
    op = Op("verify --threads 1", "verify", 1,
            run=lambda: _cli_invoke(["verify", "--threads", "1", "--out", path]),
            check=lambda out: verify_check(out, path))

    def warmup():
        warm_common()
        _cli_invoke(["--version"])

    return [op], warmup


# ---------------------------------------------------------------------------
# classify-catalog
# ---------------------------------------------------------------------------

def catalog_specs(rng) -> list[Spec]:
    """One round of the classify mix: every kind, fixed counts, seeded parameters.

    The cheap closed-form kinds (numeric filter, 20-70 ms each) come twice
    with independent parameters and displaced spats six times, so that the
    median op of a round (rank 16 of 31) falls inside the block of displaced
    spats states wherever the two seed-dependent centered Gaussians land.
    So this workload's ``op_p50_ms`` is the displaced-spats latency by
    construction.  With one state of each kind the median falls between the
    centered thermal and fock_mixture costs and spread by 0.145 over five
    seeds (README.md, classify-catalog).
    Displaced thermal and cauchy_lorentz states are left out: the moment
    criterion certifies them (see CHANGES.md, FOUND).
    """
    u = rng.uniform
    two_pi = 2.0 * math.pi
    mix = _weights(rng, range(5))

    def cheap():
        return [
            Spec("thermal", {"nbar": u(0.3, 2.0)}, rotation=u(0, two_pi)),
            Spec("squeezed", {"xi": u(0.2, 1.2)}, rotation=u(0, two_pi)),
            Spec("spats", {"nbar": u(0.3, 2.0)}),
            Spec("spats", {"nbar": u(0.3, 2.0)}, displacement=_polar(rng, 0.2, 0.8)),
            Spec("spats", {"nbar": u(0.3, 2.0)}, displacement=_polar(rng, 0.2, 0.8)),
            Spec("spats", {"nbar": u(0.3, 2.0)}, displacement=_polar(rng, 0.2, 0.8)),
            Spec("photon_vacuum_mix", {"eta": u(0.1, 1.0)}),
            Spec("fock_element", {"m": (m := int(rng.integers(1, 4))), "n": m},
                 rotation=u(0, two_pi)),
        ]

    return [
        # the explicit finite-rank twin of the first fock_mixture; it runs
        # first so that every op of every round follows its large arrays
        Spec("explicit_fock", mix),
        # classical (thermal + rotation is among the cheap kinds)
        Spec("fock_element", {"m": 0, "n": 0}),
        Spec("fock_element", {"m": 0, "n": 0}, displacement=_polar(rng, 0.3, 1.0)),
        Spec("fock_element", {"m": 0, "n": 0}, displacement=_polar(rng, 0.3, 1.0)),
        Spec("thermal", {"nbar": u(0.3, 2.0)}),
        Spec("cauchy_lorentz", {"t": u(1.5, 3.5)}),
        Spec("cauchy_lorentz", {"t": u(1.5, 3.5)}, rotation=u(0, two_pi)),
        # nonclassical
        Spec("squeezed", {"xi": u(0.2, 1.2)}),
        Spec("squeezed", {"xi": u(0.2, 1.2)}, displacement=_polar(rng, 0.2, 0.8)),
        Spec("p_max"),
        Spec("cauchy_lorentz_ncl", {"t": u(1.5, 3.5)}),
        Spec("fock_element", {"m": (m := int(rng.integers(1, 3))), "n": m},
             displacement=_polar(rng, 0.2, 0.8)),
        Spec("fock_mixture", mix),
        Spec("fock_mixture", _weights(rng, range(1, 5))),
        Spec("fock_mixture", _weights(rng, range(4)), displacement=_polar(rng, 0.2, 0.6)),
    ] + cheap() + cheap()


@dataclass
class Expectation:
    """Oracle witness values for one state; None where no oracle exists."""

    cf_excess: float | None
    vacuum: float | None
    moment_min_eig: float | None
    moment_diverged: bool
    filtered_min: float | None


def classify_expectation(spec: Spec, w: float = 2.0) -> Expectation:
    phi_fn = spec.phi()
    excess = oracles.cf_excess(phi_fn)
    vac = oracles.vacuum_probability(spec.kind, spec.params, spec.displacement)
    moments = oracles.normal_moments(spec.kind, spec.params, 4, spec.displacement)
    diverged = moments == oracles.DIVERGED
    min_eig = oracles.hankel_min_eig(moments, 2) if isinstance(moments, list) else None
    ax = oracles.grid_axis(4.0, 321)
    lam_kap = oracles.gaussian_xp(spec.kind, spec.params)
    if lam_kap is not None and (spec.rotation == 0 or lam_kap[0] == lam_kap[1]):
        grid = oracles.filtered_gaussian_grid(*lam_kap, w, ax, spec.displacement)
    else:
        grid = oracles.filtered_grid(phi_fn, w, ax)
    return Expectation(excess, vac, min_eig, diverged, float(grid.min()))


#: absolute tolerances per witness (relative to max(1, |value|) for the
#: characteristic function and the moment matrix)
TOL = {"characteristic_function": 1e-8, "vacuum_probability": 1e-9,
       "moment_matrix": 1e-7, "filtered_negativity": 1e-9}


def _fires(criterion: str, value: float) -> bool:
    if criterion == "characteristic_function":
        return value > MARGIN
    if criterion == "vacuum_probability":
        return value <= MARGIN
    return value < -MARGIN


def classify_check(spec: Spec, report: dict, exp: Expectation) -> list[str]:
    problems = []
    entries = {e["criterion"]: e for e in report["entries"]}
    certified = [c for c, e in entries.items() if e["verdict"] == VERDICT_CERTIFIED]
    if report["overall"] != (VERDICT_CERTIFIED if certified else "consistent-with-classical"):
        problems.append(f"overall {report['overall']!r} disagrees with entries {certified}")
    if spec.classical and certified:
        problems.append(f"classical state certified by {certified}")

    expected = {"characteristic_function": exp.cf_excess, "vacuum_probability": exp.vacuum,
                "moment_matrix": exp.moment_min_eig, "filtered_negativity": exp.filtered_min}
    fires = False
    for crit, want in expected.items():
        e = entries.get(crit)
        if e is None:
            problems.append(f"missing criterion {crit}")
            continue
        if want is None:
            continue
        got = e["witness_value"]
        scale = max(1.0, abs(want)) if crit in ("characteristic_function", "moment_matrix") else 1.0
        tol = TOL[crit] * scale
        if got is None or abs(got - want) > tol:
            problems.append(f"{crit} witness {got!r}, oracle {want!r} (tol {tol:.1e})")
            continue
        threshold = -MARGIN if crit in ("moment_matrix", "filtered_negativity") else MARGIN
        if abs(want - threshold) > tol:   # the oracle decides the verdict
            want_cert = _fires(crit, want)
            fires = fires or want_cert
            if (e["verdict"] == VERDICT_CERTIFIED) != want_cert:
                problems.append(f"{crit} verdict {e['verdict']!r} at oracle value {want!r}")
    if exp.moment_diverged and entries["moment_matrix"]["verdict"] != VERDICT_INAPPLICABLE:
        problems.append("moment matrix should be inapplicable (a moment diverges)")
    if fires and not certified:
        problems.append("a criterion provably fires but the state is not certified")
    return problems


def _classify_op(spec: Spec) -> Op:
    cache: dict = {}  # oracle values, computed at the first check

    def run():
        if spec.explicit:
            diag = [spec.params.get(f"w{k}", 0.0) for k in range(5)]
            st = states.from_fock_matrix(np.diag(diag))
        else:
            st = states.make_state(spec.library_spec())
        return witness.classify(st).to_dict()

    def check(report):
        if "exp" not in cache:
            cache["exp"] = classify_expectation(spec)
        return classify_check(spec, report, cache["exp"])

    return Op(spec.to_json(), spec.label(), 1, run, check)


def build_classify(seed: int, outdir: str):
    rng = np.random.default_rng([seed, 2])
    ops = [_classify_op(s) for s in catalog_specs(rng)]

    def warmup():
        warm_common()
        small = numerics.PhaseGrid(2.0, 21)
        for spec in (Spec("thermal", {"nbar": 0.5}), Spec("spats", {"nbar": 0.5})):
            witness.classify(states.make_state(spec.library_spec()), grid=small, beta_grid=small)

    return ops, warmup


# ---------------------------------------------------------------------------
# filtered-grid
# ---------------------------------------------------------------------------

def read_csv_grid(path: str, n: int):
    """The x, p, re, im columns of a field CSV, read with numpy alone."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if not lines or lines[0].strip() != "x,p,re,im":
        raise ValueError("CSV header is not x,p,re,im")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape != (n * n, 4):
        raise ValueError(f"CSV has shape {data.shape}, expected {(n * n, 4)}")
    return data


def filtered_expectation(spec: Spec, w: float, ax: np.ndarray) -> np.ndarray:
    if spec.kind == "fock_element" and spec.params["m"] == 0 and not spec.displacement:
        return oracles.sinc2_grid(w, ax)
    lam_kap = oracles.gaussian_xp(spec.kind, spec.params)
    if lam_kap is not None and spec.rotation == 0:
        return oracles.filtered_gaussian_grid(*lam_kap, w, ax, spec.displacement)
    return oracles.filtered_grid(spec.phi(), w, ax)


def filtered_check(spec: Spec, extent: float, n: int, path: str, expected) -> list[str]:
    data = read_csv_grid(path, n)
    ax = oracles.grid_axis(extent, n)
    problems = []
    if not (np.array_equal(data[:, 0], np.repeat(ax, n)) and np.array_equal(data[:, 1], np.tile(ax, n))):
        problems.append("CSV x,p columns are not the row-major grid")
    if np.any(data[:, 3] != 0.0):
        problems.append("CSV imaginary column is not zero")
    vals = data[:, 2].reshape(n, n)
    err = float(np.max(np.abs(vals - expected)))
    if err > 1e-9:
        problems.append(f"max |CSV - oracle| = {err:.3e} > 1e-9")
    if spec.classical and vals.min() < -1e-9:
        problems.append(f"classical state has minimum {vals.min():.3e} < -1e-9")
    return problems


def _filtered_op(spec: Spec, grid_text: str, outdir: str, tag: int) -> Op:
    extent, n = float(grid_text.split(",")[0]), int(grid_text.split(",")[1])
    path = os.path.join(outdir, f"filtered-{tag}.csv")
    args = ["filtered", "--state", spec.to_json(), "--grid", grid_text, "--out", path]
    cache: dict = {}  # oracle grid, computed at the first check

    def run():
        code, text = _cli_invoke(args)
        if code != 0:
            raise RuntimeError(f"gsphase filtered exited with {code}: {text.strip()}")
        return path

    def check(out_path):
        if "exp" not in cache:
            cache["exp"] = filtered_expectation(spec, 2.0, oracles.grid_axis(extent, n))
        return filtered_check(spec, extent, n, out_path, cache["exp"])

    return Op(f"{spec.to_json()} --grid {grid_text}", f"{spec.label()}@{grid_text}",
              n * n, run, check)


def filtered_specs(rng) -> list[tuple[Spec, str]]:
    u = rng.uniform
    h = 8.0 / 320  # node spacing of the 4,321 grid: displacements stay on nodes
    node = complex(h * int(rng.integers(-40, 41)), h * int(rng.integers(-40, 41)))
    fock = int(rng.integers(1, 3))
    return [
        (Spec("fock_element", {"m": 0, "n": 0}), "4,321"),
        (Spec("thermal", {"nbar": u(0.3, 2.0)}), "4,321"),
        (Spec("squeezed", {"xi": u(0.2, 1.2)}), "4,321"),
        (Spec("thermal", {"nbar": u(0.3, 2.0)}, displacement=node), "4,321"),
        (Spec("spats", {"nbar": u(0.3, 2.0)}), "4,321"),
        (Spec("fock_element", {"m": fock, "n": fock}, displacement=_polar(rng, 0.2, 0.8)), "4,321"),
        (Spec("thermal", {"nbar": u(0.3, 2.0)}), "4,481"),
        (Spec("spats", {"nbar": u(0.3, 2.0)}), "4,481"),
    ]


def build_filtered(seed: int, outdir: str):
    rng = np.random.default_rng([seed, 3])
    ops = [_filtered_op(s, g, outdir, i) for i, (s, g) in enumerate(filtered_specs(rng))]

    def warmup():
        warm_common()
        _cli_invoke(["filtered", "--state", '{"kind": "thermal", "params": {"nbar": 0.5}}',
                     "--grid", "4,21", "--out", os.path.join(outdir, "filtered-warmup.csv")])

    return ops, warmup


# ---------------------------------------------------------------------------
# fourier-transform
# ---------------------------------------------------------------------------

FOURIER_GRID = (6.0, 257)     # sampled plane of both transforms
FOURIER_OUT = (6.0, 161)      # out_grid of the forward transform
FOURIER_MESH = (3.0, 31)      # full beta mesh passed to the evaluator as targets
N_SCATTERED = 800             # seeded beta targets of the forward evaluator
N_ALPHAS = 400                # seeded alpha targets of each inverse evaluator
FOURIER_ATOL = 1e-8           # the tolerance of tests/test_numerics.py


def fourier_specs(rng) -> list[Spec]:
    """Densities that decay below boundary_tol = 1e-10 on both sides at |6|."""
    u = rng.uniform
    return [
        Spec("thermal", {"nbar": u(0.7, 1.4)}),
        Spec("thermal", {"nbar": u(0.7, 1.1)}, displacement=_polar(rng, 0.1, 0.5)),
        Spec("spats", {"nbar": u(0.8, 1.2)}),
        Spec("spats", {"nbar": u(0.8, 1.0)}, displacement=_polar(rng, 0.1, 0.4)),
    ]


def fourier_check(spec: Spec, out: dict) -> list[str]:
    phi_fn = spec.phi()
    dens = oracles.regular_density(spec.kind, spec.params, spec.displacement)
    want = {
        "scattered": phi_fn(out["betas"]),
        "mesh": phi_fn(oracles.grid_mesh(*FOURIER_MESH)),
        "out_grid": phi_fn(oracles.grid_mesh(*FOURIER_OUT)),
        "inverse": dens(out["alphas"]),
        "round_trip": dens(out["alphas"]),
    }
    problems = []
    for key, ref in want.items():
        err = float(np.max(np.abs(np.asarray(out[key]) - ref)))
        if not err <= FOURIER_ATOL:
            problems.append(f"{key}: max error {err:.3e} > {FOURIER_ATOL:g}")
    return problems


def _fourier_op(spec: Spec, rng) -> Op:
    betas = rng.uniform(-3.0, 3.0, N_SCATTERED) + 1j * rng.uniform(-3.0, 3.0, N_SCATTERED)
    alphas = rng.uniform(-2.5, 2.5, N_ALPHAS) + 1j * rng.uniform(-2.5, 2.5, N_ALPHAS)
    items = N_SCATTERED + FOURIER_MESH[1] ** 2 + FOURIER_OUT[1] ** 2 + 2 * N_ALPHAS

    def run():
        st = states.make_state(spec.library_spec())
        grid = numerics.PhaseGrid(*FOURIER_GRID)
        out_grid = numerics.PhaseGrid(*FOURIER_OUT)
        dens = numerics.PhaseField("alpha", fn=lambda a: states.regular_p(st, a).astype(complex))
        fwd = numerics.fourier_forward(dens, grid=grid, out_grid=out_grid)
        phi = numerics.PhaseField("beta", fn=lambda b: charfn.char_fn(st, b))
        inv = numerics.fourier_inverse(phi, grid=grid)
        back = numerics.fourier_inverse(
            numerics.PhaseField("beta", grid=out_grid, values=fwd.values))
        return {
            "betas": betas, "alphas": alphas,
            "scattered": fwd(betas),
            "mesh": fwd(numerics.PhaseGrid(*FOURIER_MESH).mesh()),
            "out_grid": fwd.values,
            "inverse": inv(alphas),
            "round_trip": back(alphas),
        }

    return Op(spec.to_json(), spec.label(), items, run, lambda out: fourier_check(spec, out))


def build_fourier(seed: int, outdir: str):
    rng = np.random.default_rng([seed, 4])
    ops = [_fourier_op(s, rng) for s in fourier_specs(rng)]

    def warmup():
        warm_common()
        f = numerics.PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2))
        small = numerics.PhaseGrid(6.0, 33)
        fwd = numerics.fourier_forward(f, grid=small, out_grid=numerics.PhaseGrid(2.0, 9))
        fwd(np.array([0.5 + 0.5j]))

    return ops, warmup


FACTORIES = {
    "verify": build_verify,
    "classify-catalog": build_classify,
    "filtered-grid": build_filtered,
    "fourier-transform": build_fourier,
}
