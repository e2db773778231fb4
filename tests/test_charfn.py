"""Tests for characteristic functions, their bounds, and grid scans."""

import math

import numpy as np
import pytest

from gsphase.charfn import (
    char_fn,
    char_fn_fock_element,
    char_fn_s,
    classicality_violation,
    quantum_bound_check,
)
from gsphase.errors import ParameterError, TruncationError
from gsphase.numerics import Cartesian, PhaseGrid, quad2d
from gsphase.states import _FOCK_CHUNK, StateSpec, from_fock_matrix, fock_matrix, make_state

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

    def test_index_guards(self):
        with pytest.raises(ParameterError):
            char_fn_fock_element(500, 2, 1.0)


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
        for s in [0.3, 1.0, 2.5]:
            r, w = gauss_nodes_1d(0.0, 400.0, 4000)
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
    ], ids=["centered", "rotated", "displaced", "ncl_centered", "ncl_rotated_displaced"])
    def test_bessel_k_array_equals_scalar_bitwise(self, spec):
        # Phi is evaluated once per distinct radius and gathered back; every
        # node must carry exactly the value of its own scalar evaluation
        st = make_state(spec)
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()  # beta = 0 at [15, 15]
        line = np.concatenate([mesh[15], mesh[:, 15], [0j, 1.25, -1.25j]])
        for beta in (mesh, line):
            got = char_fn(st, beta)
            assert got.shape == beta.shape
            scalar = np.array([char_fn(st, complex(b)) for b in beta.ravel()]).reshape(beta.shape)
            assert np.array_equal(got, scalar)

    def test_bessel_k_equals_per_point_formula_bitwise(self):
        # deduplicating radii leaves every kv argument, hence every value, unchanged
        from scipy.special import kv
        t = 3.0
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()
        r = np.abs(mesh)
        expected = np.ones(mesh.shape, dtype=complex)
        nz = r > 0
        expected[nz] = 2.0 * np.exp(t * np.log(r[nz]) - math.lgamma(t)) * kv(t, 2.0 * r[nz])
        assert np.array_equal(char_fn(st, mesh), expected)

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
    def test_fock_route_over_chunks_equals_direct_sum(self, which):
        # more points than one chunk of the route's matrix product
        n_pts = 2 * (_FOCK_CHUNK // 2 + 150)
        betas = RNG.uniform(-1.5, 1.5, n_pts) + 1j * RNG.uniform(-1.5, 1.5, n_pts)
        if which == "thermal":
            rho = fock_matrix(make_state(StateSpec("thermal", {"nbar": 0.5})), 64).matrix
            st = from_fock_matrix(rho)
        else:
            # exact rank: the coefficient matrix is trimmed to 5 x 5
            rho = np.zeros((5, 5), dtype=complex)
            rho[0, 0], rho[1, 1], rho[4, 4] = 0.5, 0.2, 0.3
            rho[0, 4], rho[4, 0] = 0.2 + 0.1j, 0.2 - 0.1j
            st = from_fock_matrix(rho)
            betas = betas * 2.0  # no band limit at exact rank
        ours = np.asarray(char_fn(st, betas.reshape(2, -1)))
        assert ours.shape == (2, n_pts // 2)
        direct = sum(rho[m, n] * char_fn_fock_element(m, n, betas)
                     for m, n in zip(*np.nonzero(rho)))
        np.testing.assert_allclose(ours.ravel(), direct, rtol=0, atol=1e-11)

    def test_fock_route_band_guard(self):
        st = from_fock_matrix(fock_matrix(make_state(StateSpec("thermal", {"nbar": 0.5})), 64).matrix)
        with pytest.raises(TruncationError, match="sqrt"):
            char_fn(st, 3.5 + 0j)
        assert abs(char_fn(st, 2.6 + 0j) - math.exp(-0.5 * 2.6 ** 2)) < 1e-12

    def test_fock_route_loss_guard(self):
        # built without complaint; evaluating Phi raises
        st = from_fock_matrix(np.diag([0.5, 0.3]))
        with pytest.raises(TruncationError, match="truncation loss"):
            char_fn(st, 0.1 + 0j)

    def test_large_explicit_matrix_is_cut_at_64(self):
        # weight 0.5 on |80>: the cut at 64 loses it
        rho = np.zeros((81, 81), dtype=complex)
        rho[0, 0] = rho[80, 80] = 0.5
        for physical in (True, False):  # the trace or the |entries| cut away
            for beta in (0.5, 2.9):
                with pytest.raises(TruncationError, match="got 5.000e-01"):
                    char_fn(from_fock_matrix(rho, physical=physical), beta + 0j)
        thermal = make_state(StateSpec("thermal", {"nbar": 5.0}))
        with pytest.raises(TruncationError, match="got 7.132e-06"):
            char_fn(from_fock_matrix(fock_matrix(thermal, 400).matrix), 4.0 + 4.0j)
        # a 401-row matrix that fits 64 photons is used within the band of K = 64
        thermal = make_state(StateSpec("thermal", {"nbar": 0.5}))
        st = from_fock_matrix(fock_matrix(thermal, 400).matrix)
        assert abs(char_fn(st, 2.0 + 0j) - math.exp(-2.0)) < 1e-12
        with pytest.raises(TruncationError, match="sqrt"):
            char_fn(st, 2.7 + 0j)

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
