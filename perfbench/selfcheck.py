"""Checks of the benchmark itself: its oracles and its checkers.

    python3 perfbench/selfcheck.py

1. The oracles in ``oracles.py`` (the T quadrature, Laguerre sums, Hankel
   eigenvalues, the closed-form characteristic functions and the Lorentz
   normalizer) agree with mpmath at a few points.
2. Negative control: for each workload, one real operation's output passes
   its checker, and the same output corrupted (a flipped verdict, a witness
   moved past its tolerance, one CSV value changed, one transform value
   moved) is rejected; and the worker's loop reports a run with an op that
   raises, or with an output its check rejects, as not correct.

Exits 0 when every check holds.  The functions are also collected by pytest
when this file is named on its command line.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import warnings

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import Spec  # noqa: E402

mpmath.mp.dps = 30
OUTDIR = os.path.join(HERE, "out")


# ---------------------------------------------------------------------------
# oracles against mpmath
# ---------------------------------------------------------------------------

def test_t_transform_vs_mpmath():
    for y, g in [(0.0, 0.0), (0.7, 0.5), (-3.2, 2.0), (8.0, -2.0), (5.5, 20.0), (1e-3, 1e-4)]:
        f = lambda z: mpmath.exp(2j * y * z - g * z * z) * (1 - abs(z)) / mpmath.pi
        ref = complex(mpmath.quad(f, [-1, 0, 1]))
        got = float(oracles.t_transform(y, g))
        assert abs(got - ref.real) < 1e-13 and abs(ref.imag) < 1e-20, (y, g, got, ref)


def test_laguerre_sum_vs_mpmath():
    weights = {0: 0.1, 1: 0.2, 2: 0.3, 4: 0.4}
    for u in (0.0, 0.3, 5.0, 32.0):
        ref = sum(w * mpmath.laguerre(k, 0, u) for k, w in weights.items())
        got = float(oracles.laguerre_sum(weights, u))
        assert abs(got - float(ref)) <= 1e-13 * max(1.0, abs(float(ref))), (u, got, ref)


def test_hankel_min_eig_vs_mpmath():
    for kind, params in [("thermal", {"nbar": 0.7}), ("fock_mixture", {"w0": 0.3, "w2": 0.7}),
                         ("p_max", {})]:
        m = oracles.normal_moments(kind, params, 4)
        ref = min(mpmath.eigsy(mpmath.matrix([[m[j + k] for k in range(3)] for j in range(3)]))[0])
        got = oracles.hankel_min_eig(m, 2)
        assert abs(got - float(ref)) <= 1e-12 * max(1.0, max(abs(v) for v in m)), (kind, got, ref)


def _hankel_phi(density, beta: float) -> float:
    """Phi of a radial density: 2 pi Int_0^inf P(r) J0(2 |beta| r) r dr."""
    return float(mpmath.quad(lambda r: 2 * mpmath.pi * density(r) * mpmath.besselj(0, 2 * beta * r) * r,
                             [0, 1, 4, 16, mpmath.inf]))


def test_radial_phi_vs_mpmath():
    t, nb = 2.5, 0.8
    cases = [
        ("cauchy_lorentz", {"t": t}, lambda r: t / mpmath.pi * (1 + r * r) ** (-1 - t)),
        ("thermal", {"nbar": nb}, lambda r: mpmath.exp(-r * r / nb) / (mpmath.pi * nb)),
        ("spats", {"nbar": nb},
         lambda r: ((nb + 1) * r * r - nb) * mpmath.exp(-r * r / nb) / (mpmath.pi * nb**3)),
    ]
    for kind, params, dens in cases:
        for b in (0.3, 1.1):
            got = oracles.phi(kind, params)(np.array([b + 0j]))[0]
            ref = _hankel_phi(dens, b)
            assert abs(got - ref) < 1e-10, (kind, b, got, ref)


def test_displaced_phi_phase_vs_mpmath():
    # Phi of a displaced thermal state by 2-D quadrature of its density
    nb, a0, beta = 0.8, 0.4 - 0.3j, 0.6 + 0.2j

    def integrand(x, p):
        a = mpmath.mpc(x, p)
        dens = mpmath.exp(-abs(a - a0) ** 2 / nb) / (mpmath.pi * nb)
        return dens * mpmath.exp(beta * mpmath.conj(a) - mpmath.conj(beta) * a)

    mpmath.mp.dps = 15
    try:
        ref = complex(mpmath.quad(integrand, [-7, 0, 7], [-7, 0, 7]))
    finally:
        mpmath.mp.dps = 30
    got = oracles.phi("thermal", {"nbar": nb}, displacement=a0)(np.array([beta]))[0]
    assert abs(got - ref) < 1e-9, (got, ref)


def test_squeezed_phi_vs_fock_sum():
    # <psi| :D(beta): |psi> with the squeezed vacuum's Fock amplitudes
    xi, beta = 0.6, mpmath.mpc(0.35, -0.2)
    th = mpmath.tanh(xi)
    amp = {2 * j: (-th / 2) ** j * mpmath.sqrt(mpmath.factorial(2 * j)) / mpmath.factorial(j)
           / mpmath.sqrt(mpmath.cosh(xi)) for j in range(40)}

    def elem(m, n):  # <n| :D(beta): |m>
        return sum(mpmath.sqrt(mpmath.factorial(m) * mpmath.factorial(n))
                   / (mpmath.factorial(k) * mpmath.factorial(m - k) * mpmath.factorial(n - k))
                   * beta ** (n - k) * (-mpmath.conj(beta)) ** (m - k) for k in range(min(m, n) + 1))

    ref = complex(sum(amp[m] * amp[n] * elem(m, n) for m in amp for n in amp))
    got = oracles.phi("squeezed", {"xi": xi})(np.array([complex(beta)]))[0]
    assert abs(got - ref) < 1e-12, (got, ref)


def test_lorentz_normalizer_vs_mpmath():
    for t in (1.0, 2.5, 3.5):
        ref = t * mpmath.quad(lambda u: (1 + u) ** (-1 - t) * mpmath.exp(-u), [0, mpmath.inf])
        assert abs(oracles.lorentz_normalizer(t) - float(ref)) < 1e-12, t


def test_filtered_grid_oracles_agree():
    # the 2-D quadrature and the separable T form are independent routes
    ax = oracles.grid_axis(4.0, 41)
    for lam, kap, kind, params in [(0.7, 0.7, "thermal", {"nbar": 0.7}),
                                   (-0.5, -0.5, "p_max", {})]:
        sep = oracles.filtered_gaussian_grid(lam, kap, 2.0, ax, 0.3 - 0.2j)
        quad = oracles.filtered_grid(oracles.phi(kind, params, displacement=0.3 - 0.2j), 2.0, ax)
        assert np.max(np.abs(sep - quad)) < 1e-12, kind
    assert np.max(np.abs(oracles.filtered_gaussian_grid(0.0, 0.0, 2.0, ax)
                         - oracles.sinc2_grid(2.0, ax))) < 1e-13


# ---------------------------------------------------------------------------
# negative controls: each checker rejects a corrupted output
# ---------------------------------------------------------------------------

def _rejects(check, out) -> bool:
    try:
        return bool(check(out))
    except (ValueError, KeyError, TypeError):
        return True


def test_verify_checker_rejects_corruption():
    ops, warmup = workloads.build_verify(1, OUTDIR)
    op = ops[0]
    code, text = op.run()
    assert op.check((code, text)) == []
    assert _rejects(op.check, (code, text.replace("PASS", "FAIL", 1)))
    assert _rejects(op.check, (1, text))
    report = os.path.join(OUTDIR, "verify-report.json")
    with open(report, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["criteria"][10]["details"] = ["reports differ between runs"]
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=OUTDIR, delete=False) as fh:
        json.dump(payload, fh)
    try:
        assert workloads.verify_check((code, text), fh.name)
    finally:
        os.unlink(fh.name)


def test_classify_checker_rejects_corruption():
    for spec in (Spec("thermal", {"nbar": 0.6}), Spec("squeezed", {"xi": 0.5})):
        op = workloads._classify_op(spec)
        report = op.run()
        assert op.check(report) == [], op.check(report)

        def corrupt(criterion, **changes):
            bad = json.loads(json.dumps(report))
            entry = next(e for e in bad["entries"] if e["criterion"] == criterion)
            entry.update(changes)
            return bad

        flip = ("consistent-with-classical" if spec.kind == "squeezed"
                else "nonclassical-certified")
        assert _rejects(op.check, corrupt("filtered_negativity", verdict=flip))
        vac = next(e for e in report["entries"] if e["criterion"] == "vacuum_probability")
        assert _rejects(op.check, corrupt("vacuum_probability",
                                          witness_value=vac["witness_value"] + 1e-7))
        cf = next(e for e in report["entries"] if e["criterion"] == "characteristic_function")
        assert _rejects(op.check, corrupt("characteristic_function",
                                          witness_value=cf["witness_value"] * (1 + 1e-6) + 1e-6))


def test_filtered_checker_rejects_corruption():
    op = workloads._filtered_op(Spec("thermal", {"nbar": 0.5}), "4,321", OUTDIR, 99)
    path = op.run()
    assert op.check(path) == []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("0.0,0.0,"))
    x, p, re, im = lines[k].split(",")
    lines[k] = ",".join([x, p, repr(float(re) + 1e-6), im])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _rejects(op.check, path)
    os.unlink(path)


def test_fourier_checker_rejects_corruption():
    rng = np.random.default_rng(7)
    op = workloads._fourier_op(Spec("thermal", {"nbar": 1.0}), rng)
    out = op.run()
    assert op.check(out) == []
    for key in ("scattered", "mesh", "out_grid", "inverse", "round_trip"):
        bad = dict(out)
        bad[key] = np.array(out[key], copy=True)
        bad[key].flat[3] += 1e-6
        assert _rejects(op.check, bad), key


def test_worker_rejects_raising_and_failed_ops():
    from hostspeed import HostSpeed
    from worker import measure

    def boom():
        raise RuntimeError("op raised")

    host = HostSpeed()
    good = workloads.Op("good", "g", 1, run=lambda: 1, check=lambda out: [])
    raising = workloads.Op("raises", "r", 1, run=boom, check=lambda out: [])
    wrong = workloads.Op("wrong", "w", 1, run=lambda: 1, check=lambda out: ["wrong output"])
    ok = measure([good], 0.0, host)
    assert ok["correct"] and (ok["attempted"], ok["failed"]) == (1, 0), ok
    for bad in (raising, wrong):
        run = measure([good, bad], 0.0, host)
        assert not run["correct"] and (run["attempted"], run["failed"]) == (2, 1), run


def main() -> int:
    os.makedirs(OUTDIR, exist_ok=True)
    warnings.simplefilter("ignore")
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:  # report every check, not only the first failure
            failed += 1
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
