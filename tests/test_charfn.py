"""Tests for characteristic functions, their bounds, and grid scans."""

import math

import mpmath
import numpy as np
import pytest

from gsphase import states
from gsphase.charfn import (
    ScanReport,
    char_fn,
    char_fn_fock_element,
    char_fn_s,
    classicality_violation,
    quantum_bound_check,
)
from gsphase.errors import ParameterError, RangeError, TruncationError
from gsphase.numerics import Cartesian, PhaseGrid, quad2d
from gsphase.states import StateSpec, from_fock_matrix, fock_matrix, make_state

RNG = np.random.default_rng(42)


def truncated_operator_oracle(m, n, beta, cutoff=60):
    """<n| e^(beta a^dag) e^(-conj(beta) a) |m> on the truncated Fock space.

    The creation/annihilation matrices are nilpotent after truncation, so
    the exponential Taylor series terminates and the result is exact.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)  # annihilation

    def expm(mat):
        out = np.eye(cutoff + 1, dtype=complex)
        term = np.eye(cutoff + 1, dtype=complex)
        for k in range(1, cutoff + 2):
            term = term @ mat / k
            if not term.any():
                break
            out += term
        return out

    mtx = expm(beta * a.T) @ expm(-np.conj(beta) * a)
    return mtx[n, m]


class TestFockElement:
    def test_vacuum_element_is_one(self):
        for b in RNG.uniform(-3, 3, 10) + 1j * RNG.uniform(-3, 3, 10):
            assert char_fn_fock_element(0, 0, b) == 1.0 + 0j

    def test_one_one_closed_form(self):
        for b in RNG.uniform(-2, 2, 10) + 1j * RNG.uniform(-2, 2, 10):
            val = char_fn_fock_element(1, 1, b)
            assert val == pytest.approx(1.0 - abs(b) ** 2, abs=1e-13)
            oracle = truncated_operator_oracle(1, 1, b)
            assert abs(val - oracle) < 1e-12

    def test_zero_two_closed_form(self):
        for b in RNG.uniform(-2, 2, 10) + 1j * RNG.uniform(-2, 2, 10):
            val = char_fn_fock_element(0, 2, b)
            assert val == pytest.approx(b**2 / math.sqrt(2.0), abs=1e-13)
            assert abs(val - truncated_operator_oracle(0, 2, b)) < 1e-12

    def test_against_operator_oracle_grid(self):
        betas = RNG.uniform(-1.5, 1.5, 6) + 1j * RNG.uniform(-1.5, 1.5, 6)
        for b in betas:
            for m in range(5):
                for n in range(5):
                    assert abs(char_fn_fock_element(m, n, b)
                               - truncated_operator_oracle(m, n, b)) < 1e-10

    @pytest.mark.parametrize("x", [2.0, 8.0, 18.0, 32.0])
    def test_against_mpmath_up_to_400(self, x):
        # |m><n| on the Laguerre form at 40 digits; relative 1e-12 down to the
        # smallest normal double (|<0|:D:|400>| = 6e-375 at x = 2 underflows)
        idx = [0, 1, 10, 30, 50, 100, 200, 400]
        b = math.sqrt(x) * complex(math.cos(0.7), math.sin(0.7))
        tiny = np.finfo(float).tiny
        with mpmath.workdps(40):
            bm = mpmath.mpc(b.real, b.imag)
            for m in idx:
                for n in idx:
                    lo, d = min(m, n), abs(m - n)
                    z = -mpmath.conj(bm) if m > n else bm
                    oracle = complex(mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(lo + d))
                                     * z ** d * mpmath.laguerre(lo, d, x))
                    err = abs(char_fn_fock_element(m, n, b) - oracle)
                    assert err <= 1e-12 * abs(oracle) + tiny, (m, n)

    def test_no_warning_at_the_origin(self):
        # the log-space prefactor |beta|^d is exactly zero at beta = 0
        assert char_fn_fock_element(0, 3, 0j) == 0
        assert char_fn_fock_element(400, 0, np.zeros(2)).tolist() == [0, 0]
        assert char_fn_fock_element(7, 7, 0j) == 1

    def test_index_guards(self):
        with pytest.raises(ParameterError):
            char_fn_fock_element(500, 2, 1.0)

    def test_index_arrays_equal_the_scalar_form_bitwise(self):
        # criterion 1 reads every element at once from integer index arrays
        betas = np.concatenate([[0j, 1e-300 + 0j], RNG.uniform(-3, 3, 30)
                                + 1j * RNG.uniform(-3, 3, 30)])
        idx = np.arange(11)
        table = states._fock_elements(idx[:, None, None], idx[:, None], betas)
        for m in range(11):
            for n in range(11):
                assert table[m, n].tobytes() == char_fn_fock_element(m, n, betas).tobytes(), (m, n)


class TestCharFn:
    def test_thermal_value(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        assert char_fn(st, 1.0 + 0j) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_squeezed_rising_direction(self):
        st = make_state(StateSpec("squeezed", {"xi": 1.4}))
        expected = math.exp((1.0 - math.exp(-2.8)) / 2.0)
        assert char_fn(st, 1j) == pytest.approx(expected, abs=1e-13)

    def test_pmax_growth(self):
        st = make_state(StateSpec("p_max"))
        for b in [0.5, 1.0 + 1.0j, 2.0]:
            assert char_fn(st, b) == pytest.approx(math.exp(abs(b) ** 2 / 2.0), rel=1e-14)

    def test_spats_closed_form_vs_quadrature(self):
        nbar = 1.0
        st = make_state(StateSpec("spats", {"nbar": nbar}))
        for b in [0.4 + 0.1j, 1.2j, -0.8 + 0.5j]:
            oracle = quad2d(
                lambda a: st.regular_p_closed(a) * np.exp(b * np.conj(a) - np.conj(b) * a),
                Cartesian.square(9.0), tol=1e-12,
            ).value
            assert abs(char_fn(st, b) - oracle) < 1e-10

    def test_lorentz_closed_form_vs_hankel_quadrature(self):
        # Bessel-K closed form against the direct radial transform
        from scipy.special import j0
        from gsphase.numerics import gauss_nodes_1d
        t = 3.0
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        # 40 Gauss nodes on each of 100 equal panels of [0, 400]
        edges = np.linspace(0.0, 400.0, 101)
        r, w = (a.ravel() for a in gauss_nodes_1d(edges[:-1, None], edges[1:, None], 40))
        for s in [0.3, 1.0, 2.5]:
            oracle = float(np.sum(
                w * 2.0 * math.pi * r * (t / math.pi) * (1 + r**2) ** (-(1 + t)) * j0(2 * s * r)
            ))
            assert abs(char_fn(st, s + 0j).real - oracle) < 1e-8
        assert char_fn(st, 0j) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("spec", [
        StateSpec("cauchy_lorentz", {"t": 3.0}),
        StateSpec("cauchy_lorentz", {"t": 3.0}, rotation=0.7),
        StateSpec("cauchy_lorentz", {"t": 1.5}, displacement=0.4 - 0.3j),
        StateSpec("cauchy_lorentz_ncl", {"t": 1.0}),
        StateSpec("cauchy_lorentz_ncl", {"t": 3.0}, displacement=-0.2j, rotation=-1.1),
        StateSpec("spats", {"nbar": 1.0}, displacement=0.4 - 0.3j),
        StateSpec("thermal", {"nbar": 0.5}, displacement=-0.6 + 0.2j),
        StateSpec("fock_mixture", {"w0": 0.2, "w1": 0.5, "w3": 0.3}, displacement=0.3j),
    ], ids=["centered", "rotated", "displaced", "ncl_centered", "ncl_rotated_displaced",
            "spats_displaced", "thermal_displaced", "fock_mixture_displaced"])
    def test_bessel_k_array_equals_scalar_bitwise(self, spec):
        # Phi is evaluated once per distinct radius and gathered back, and a
        # displacement phase once per row and column of a mesh; every node
        # must carry exactly the value of its own scalar evaluation
        st = make_state(spec)
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()  # beta = 0 at [15, 15]
        line = np.concatenate([mesh[15], mesh[:, 15], [0j, 1.25, -1.25j]])
        for beta in (mesh, line):
            got = char_fn(st, beta)
            assert got.shape == beta.shape
            scalar = np.array([char_fn(st, complex(b)) for b in beta.ravel()]).reshape(beta.shape)
            assert np.array_equal(got, scalar)

    @pytest.mark.parametrize("t", [2.2, 3.0, states._K_RECURRENCE_MAX + 1.0],
                             ids=["kv-2.2", "recurrence-3", "kv-above-bound"])
    def test_bessel_k_equals_per_point_formula_bitwise(self, t):
        # deduplicating radii leaves every value unchanged: each node carries
        # the per-point kv formula, or at integer t up to the bound the
        # per-point upward recurrence
        from scipy.special import k0, k1, kv
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()
        r = np.abs(mesh)
        expected = np.ones(mesh.shape, dtype=complex)
        for idx in zip(*np.nonzero(r)):
            x = 2.0 * r[idx]
            if t == 3.0:
                phi1 = x * k1(x)
                phi2 = phi1 + r[idx] * (r[idx] * (2.0 * k0(x)))
                expected[idx] = phi2 + r[idx] * (r[idx] * phi1) / 2
            else:
                expected[idx] = 2.0 * np.exp(t * np.log(r[idx]) - math.lgamma(t)) * kv(t, x)
        assert np.array_equal(char_fn(st, mesh), expected)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 10, states._K_RECURRENCE_MAX, 0.5, 1.5, 2.2])
    def test_lorentz_phi_against_mpmath(self, t):
        r = np.geomspace(1e-6, 5.66, 97)
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        got = char_fn(st, r.astype(complex))
        with mpmath.workdps(40):
            exact = np.array([float(2 * mpmath.mpf(x) ** t / mpmath.gamma(t)
                                    * mpmath.besselk(t, 2 * mpmath.mpf(x))) for x in r])
        assert np.all(got.imag == 0.0)
        big = np.abs(exact) > 1e-290
        assert big.sum() >= 90
        assert np.max(np.abs(got.real[big] - exact[big]) / np.abs(exact[big])) < 3e-14

    @pytest.mark.parametrize("t", [0.5, 50, 1e5, 1e12])
    def test_lorentz_phi_off_the_recurrence_is_kv(self, t):
        # half-integer t and integer t far above the bound keep the kv
        # formula bit for bit, nan included; t = 1e12 must not run a loop
        # over the order
        from scipy.special import kv
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        r = np.array([1e-3, 0.05, 0.7, 2.0, 5.66])
        with np.errstate(invalid="ignore"):
            expected = 2.0 * np.exp(t * np.log(r) - math.lgamma(t)) * kv(t, 2.0 * r)
        np.testing.assert_array_equal(char_fn(st, r.astype(complex)).real, expected)

    def test_lorentz_recurrence_takes_int_and_float_t_alike(self):
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()
        for t in (1, 3, states._K_RECURRENCE_MAX):
            a = char_fn(make_state(StateSpec("cauchy_lorentz", {"t": t})), mesh)
            b = char_fn(make_state(StateSpec("cauchy_lorentz", {"t": float(t)})), mesh)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("t", [1, 3, states._K_RECURRENCE_MAX])
    def test_lorentz_recurrence_is_finite_at_tiny_and_huge_radii(self, t):
        # Phi -> 1 as |beta| -> 0 and -> 0 far out; r^t / Gamma(t) is never
        # formed, so neither end meets 0 * inf
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        got = char_fn(st, np.array([1e-300, 1e-150, 1e-20, 400.0, 1e5, 1e150], dtype=complex))
        np.testing.assert_allclose(got[:3].real, 1.0, rtol=1e-15, atol=0)
        assert np.array_equal(got[3:], np.zeros(3))

    def test_hermiticity_all_catalog(self):
        specs = [
            StateSpec("thermal", {"nbar": 0.5}),
            StateSpec("squeezed", {"xi": 1.0}),
            StateSpec("spats", {"nbar": 1.0}),
            StateSpec("photon_vacuum_mix", {"eta": 0.7}),
            StateSpec("fock_element", {"m": 2, "n": 2}),
            StateSpec("fock_mixture", {"w0": 0.3, "w2": 0.7}),
            StateSpec("cauchy_lorentz", {"t": 3.0}),
            StateSpec("cauchy_lorentz_ncl", {"t": 1.0}),
        ]
        betas = RNG.uniform(-2, 2, 100) + 1j * RNG.uniform(-2, 2, 100)
        for spec in specs:
            st = make_state(spec)
            phi_p = np.asarray(char_fn(st, betas))
            phi_m = np.asarray(char_fn(st, -betas))
            np.testing.assert_allclose(phi_m, np.conj(phi_p), atol=1e-12,
                                       err_msg=spec.kind)

    @pytest.mark.parametrize("spec", [
        StateSpec("thermal", {"nbar": 0.5}),
        StateSpec("squeezed", {"xi": 1.0}),
    ], ids=lambda s: s.kind)
    def test_fock_route_agrees_with_closed_form(self, spec):
        closed = make_state(spec)
        st = from_fock_matrix(fock_matrix(closed, 64).matrix)
        betas = RNG.uniform(-1.4, 1.4, 40) + 1j * RNG.uniform(-1.4, 1.4, 40)
        ours = np.asarray(char_fn(st, betas))
        ref = np.asarray(char_fn(closed, betas))
        np.testing.assert_allclose(ours, ref, atol=1e-6)

    @pytest.mark.parametrize("which", ["thermal", "finite_rank"])
    def test_fock_route_over_chunks_equals_direct_sum(self, which, monkeypatch):
        # blocks of 64 offsets times points: one offset spans 5 blocks, two span 10
        monkeypatch.setattr(states, "_LAGUERRE_BLOCK", 64)
        n_pts = 300
        betas = RNG.uniform(-2.0, 2.0, n_pts) + 1j * RNG.uniform(-2.0, 2.0, n_pts)
        if which == "thermal":
            rho = fock_matrix(make_state(StateSpec("thermal", {"nbar": 0.5})), 64).matrix
        else:
            # offsets 0 and 4 only; rows past the last nonzero one are trimmed
            rho = np.zeros((9, 9), dtype=complex)
            rho[0, 0], rho[1, 1], rho[4, 4] = 0.5, 0.2, 0.3
            rho[0, 4], rho[4, 0] = 0.2 + 0.1j, 0.2 - 0.1j
        st = from_fock_matrix(rho)
        ours = np.asarray(char_fn(st, betas.reshape(2, -1)))
        assert ours.shape == (2, n_pts // 2)
        direct = sum(rho[m, n] * char_fn_fock_element(m, n, betas)
                     for m, n in zip(*np.nonzero(rho)))
        np.testing.assert_allclose(ours.ravel(), direct, rtol=0, atol=1e-11)

    def test_thermal_truncation_has_no_band(self):
        # the 65-row truncation of thermal(0.5) loses (1/3)^65 = 9e-32 of its
        # trace: Phi matches the closed form out to the scan grid's corner
        closed = make_state(StateSpec("thermal", {"nbar": 0.5}))
        st = from_fock_matrix(fock_matrix(closed, 64).matrix)
        betas = np.array([2.6, 3.5, 4.0 + 4.0j, -4.0 + 3.0j])
        bound = st.phi_roundoff * np.exp(0.5 * np.abs(betas) ** 2)
        assert np.all(np.abs(char_fn(st, betas) - char_fn(closed, betas)) <= bound)
        assert np.all(bound < 1e-5)

    def test_fock_route_loss_guard(self):
        # built without complaint; evaluating Phi raises
        st = from_fock_matrix(np.diag([0.5, 0.3]))
        with pytest.raises(TruncationError, match="truncation loss"):
            char_fn(st, 0.1 + 0j)

    def test_large_explicit_matrix_uses_every_row(self):
        # weight 0.5 on |80>: Phi = (1 + L_80(|beta|^2)) / 2, for either flag
        rho = np.zeros((81, 81), dtype=complex)
        rho[0, 0] = rho[80, 80] = 0.5
        betas = np.array([0.5, 2.9, 4.0 + 4.0j])
        with mpmath.workdps(40):
            expected = [0.5 + 0.5 * float(mpmath.laguerre(80, 0, abs(b) ** 2)) for b in betas]
        for physical in (True, False):
            st = from_fock_matrix(rho, physical=physical)
            np.testing.assert_allclose(char_fn(st, betas), expected, rtol=1e-12, atol=0)
        # a 401-row thermal matrix keeps all of its trace, to (5/6)^401
        thermal = make_state(StateSpec("thermal", {"nbar": 5.0}))
        st = from_fock_matrix(fock_matrix(thermal, 400).matrix)
        for b in (0.5, 2.0 + 1.0j):
            assert abs(char_fn(st, b) - char_fn(thermal, b)) < 1e-12

    def test_non_physical_finite_rank_has_no_band(self):
        # |0><1| + |1><0| has trace 0 and Phi = beta - conj(beta) at any beta
        rho = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        st = from_fock_matrix(rho, physical=False)
        np.testing.assert_allclose(char_fn(st, np.array([3.0j, 3.0, 2.0 + 2.5j])),
                                   [6.0j, 0.0, 5.0j], rtol=0, atol=1e-13)

    def test_displaced_state_phase_factor(self):
        a0 = 0.7 - 0.2j
        base = make_state(StateSpec("thermal", {"nbar": 0.5}))
        st = make_state(StateSpec("thermal", {"nbar": 0.5}, displacement=a0))
        for b in [0.5 + 0.5j, -1.0j]:
            expected = np.exp(b * np.conj(a0) - np.conj(b) * a0) * char_fn(base, b)
            assert abs(char_fn(st, b) - expected) < 1e-14


class TestOrderingParameter:
    def test_identity_at_s_one(self):
        st = make_state(StateSpec("squeezed", {"xi": 0.8}))
        betas = RNG.uniform(-2, 2, 20) + 1j * RNG.uniform(-2, 2, 20)
        np.testing.assert_allclose(char_fn_s(st, betas, 1.0), char_fn(st, betas), atol=0)

    def test_pmax_family(self):
        st = make_state(StateSpec("p_max"))
        for s in [-1.0, 0.0, 0.5, 1.0]:
            for b in [0.7, 1.0 + 0.5j]:
                assert char_fn_s(st, b, s) == pytest.approx(
                    math.exp(0.5 * s * abs(b) ** 2), rel=1e-14)

    def test_thermal_husimi_side_vs_convolution_oracle(self):
        # s = -1 of thermal(nbar) is the Gaussian exp(-(nbar+1)|b|^2), which
        # is also the transform of the antinormal density (pi(nbar+1))^-1
        # exp(-|a|^2/(nbar+1)); verify against 2-D quadrature of the latter.
        nbar = 0.5
        st = make_state(StateSpec("thermal", {"nbar": nbar}))
        for b in [0.4 + 0.2j, 0.9j]:
            ours = char_fn_s(st, b, -1.0)
            assert ours == pytest.approx(math.exp(-(nbar + 1.0) * abs(b) ** 2), rel=1e-13)
            oracle = quad2d(
                lambda a: np.exp(-np.abs(a) ** 2 / (nbar + 1.0)) / (math.pi * (nbar + 1.0))
                * np.exp(b * np.conj(a) - np.conj(b) * a),
                Cartesian.square(8.0), tol=1e-12,
            ).value
            assert abs(ours - oracle) < 1e-10

    def test_s_monotonicity(self):
        st = make_state(StateSpec("squeezed", {"xi": 1.0}))
        betas = RNG.uniform(-2, 2, 30) + 1j * RNG.uniform(-2, 2, 30)
        mags = [np.abs(np.asarray(char_fn_s(st, betas, s))) for s in (1.0, 0.5, 0.0, -1.0)]
        for hi, lo in zip(mags[:-1], mags[1:]):
            assert np.all(lo <= hi + 1e-15)


class TestBounds:
    def test_quantum_bound_squeezed(self):
        st = make_state(StateSpec("squeezed", {"xi": 1.4}))
        rep = quantum_bound_check(st, PhaseGrid(extent=4.0, resolution=121))
        assert rep.value <= 1.0 + 1e-9

    def test_quantum_bound_thermal_max_at_origin(self):
        st = make_state(StateSpec("thermal", {"nbar": 2.0}))
        rep = quantum_bound_check(st, PhaseGrid(extent=4.0, resolution=121))
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.location == 0j

    def test_quantum_bound_single_photon(self):
        st = make_state(StateSpec("fock_element", {"m": 1, "n": 1}))
        rep = quantum_bound_check(st, PhaseGrid(extent=4.0, resolution=161))
        assert rep.value <= 1.0 + 1e-9

    def test_classicality_thermal_never_violates(self):
        st = make_state(StateSpec("thermal", {"nbar": 1.5}))
        rep = classicality_violation(st, PhaseGrid(extent=4.0, resolution=121))
        assert rep.value <= 0.0

    def test_strongly_squeezed_value_on_imag_axis(self):
        # |Phi(4i)| = exp(-16 kap) = exp(8 (1 - e^-10)) at xi = 5, with no cancellation
        st = make_state(StateSpec("squeezed", {"xi": 5.0}))
        assert abs(char_fn(st, 4j)) == pytest.approx(math.exp(8.0 * (1.0 - math.exp(-10.0))),
                                                     rel=1e-14)

    def test_classicality_squeezed_value_on_imag_axis(self):
        st = make_state(StateSpec("squeezed", {"xi": 0.5}))
        grid = PhaseGrid(extent=4.0, resolution=161)
        rep = classicality_violation(st, grid)
        assert rep.value > 0
        # |Phi(2i)| - 1 = exp((1 - e^-1) * 2) - 1
        expected_at_2i = math.exp((1.0 - math.exp(-1.0)) * 2.0) - 1.0
        assert abs(char_fn(st, 2j)) - 1.0 == pytest.approx(expected_at_2i, rel=1e-12)
        assert rep.value >= expected_at_2i - 1e-12

    def test_classicality_single_photon_violation(self):
        st = make_state(StateSpec("photon_vacuum_mix", {"eta": 1.0}))
        assert abs(char_fn(st, 2.0 + 0j)) - 1.0 == pytest.approx(2.0, abs=1e-14)
        rep = classicality_violation(st, PhaseGrid(extent=4.0, resolution=161))
        assert rep.value > 0

    def test_heavy_tail_scan_keeps_its_value_at_t_50(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 50.0}))
        grid = PhaseGrid(extent=4.0, resolution=161)
        assert classicality_violation(st, grid) == ScanReport(0.0, 0j)
        assert quantum_bound_check(st, grid) == ScanReport(1.0, 0j)

    @pytest.mark.parametrize("scan", [classicality_violation, quantum_bound_check])
    def test_non_finite_phi_raises_at_t_1e5(self, scan):
        # kv(t, 2|beta|) overflows where |beta|^t / Gamma(t) underflows: Phi is nan
        st = make_state(StateSpec("cauchy_lorentz", {"t": 1e5}))
        with pytest.raises(RangeError, match="Phi of cauchy_lorentz t=100000 is not finite at"):
            scan(st, PhaseGrid(extent=4.0, resolution=161))

    @pytest.mark.parametrize("grid,count", [(PhaseGrid(4.0, 161), "25920 of 25921"),
                                            (PhaseGrid(3.0, 100), "10000 of 10000")],
                             ids=["4-161", "3-100"])
    @pytest.mark.parametrize("kind", ["cauchy_lorentz", "cauchy_lorentz_ncl"])
    @pytest.mark.parametrize("scan", [classicality_violation, quantum_bound_check])
    def test_non_finite_count_is_over_the_whole_mesh(self, scan, kind, grid, count):
        # Phi is finite only at beta = 0, a node of the odd grid alone; a
        # radial scan counts every node of the mesh, not its distinct radii
        st = make_state(StateSpec(kind, {"t": 1e5}))
        with pytest.raises(RangeError, match=f"is not finite at {count} nodes of the scan grid"):
            scan(st, grid)

    def test_finite_rank_states_violate_on_large_grid(self):
        grid = PhaseGrid(extent=6.0, resolution=121)
        m = np.zeros((5, 5), dtype=complex)
        m[0, 0] = m[2, 2] = m[0, 2] = m[2, 0] = 0.5
        candidates = [
            make_state(StateSpec("fock_element", {"m": 1, "n": 1})),
            make_state(StateSpec("fock_element", {"m": 2, "n": 2})),
            from_fock_matrix(m),
        ]
        for st in candidates:
            rep = classicality_violation(st, grid)
            assert rep.value > 0, st.describe()
