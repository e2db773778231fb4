"""Tests for the filter kernels and regularized distributions."""

import math

import numpy as np
import pytest
from scipy.special import sici

from gsphase.charfn import char_fn
from gsphase.errors import NonConvergenceError, ParameterError, SupportError
from gsphase.filters import (
    QUAD_TOLERANCE,
    ROUNDOFF_FACTOR,
    RULE_CACHE_SIZE,
    FilterKernel,
    GaussianCharFn,
    box_autocorrelation,
    filtered_p_gaussian,
    filtered_p_gaussian_grid,
    filtered_p_numeric,
    sinc2_kernel,
    tri,
    tri_gaussian_ft,
    tri_gaussian_ft_line_integral,
    _filter_rule,
)
from gsphase.numerics import PhaseGrid, gauss_nodes_1d
from gsphase.states import StateSpec, make_state
from gsphase.witness import negativity_scan

RNG = np.random.default_rng(11)


def t_quadrature_oracle(y, g, n=500):
    """(2/pi) Re Int_0^1 exp(-g z^2 + 2iyz)(1 - z) dz by Gauss quadrature."""
    z, w = gauss_nodes_1d(0.0, 1.0, n)
    return float((2.0 / math.pi) * np.sum(w * np.exp(-g * z**2 + 2j * y * z) * (1.0 - z)).real)


class TestTri:
    def test_peak(self):
        assert tri(0.0) == 1.0

    def test_boundaries(self):
        assert tri(1.0) == 0.0
        assert tri(-1.0) == 0.0
        assert tri(1.5) == 0.0

    def test_branch_value_and_evenness(self):
        assert tri(-0.3) == pytest.approx(0.7)
        assert tri(0.3) == pytest.approx(0.7)


class TestBoxAutocorrelation:
    def test_normalized_at_zero(self):
        assert box_autocorrelation(0j, 2.0) == pytest.approx(1.0)

    def test_vanishes_at_width(self):
        assert box_autocorrelation(2.0 + 0j, 2.0) == 0.0

    def test_against_interval_overlap_oracle(self):
        # the autocorrelation of unit boxes offset by beta is the product of
        # 1-D interval overlap lengths, computed here by interval geometry
        def overlap(shift):
            lo = max(-0.5, -0.5 - shift)
            hi = min(0.5, 0.5 - shift)
            return max(0.0, hi - lo)

        w = 1.7
        for b in RNG.uniform(-2, 2, 20) + 1j * RNG.uniform(-2, 2, 20):
            oracle = overlap(b.real / w) * overlap(b.imag / w)
            assert box_autocorrelation(b, w) == pytest.approx(oracle, abs=1e-14)


class TestSinc2Kernel:
    def test_peak_value(self):
        assert sinc2_kernel(0j, 2.0) == pytest.approx(4.0 / math.pi**2)

    def test_first_zero_on_axis(self):
        w = 2.0
        assert sinc2_kernel(math.pi / w + 0j, w) == pytest.approx(0.0, abs=1e-30)

    def test_non_negative(self):
        w = 1.3
        pts = RNG.uniform(-8, 8, 200) + 1j * RNG.uniform(-8, 8, 200)
        assert np.all(sinc2_kernel(pts, w) >= 0.0)

    def test_unit_mass_via_si_oracle(self):
        # 1-D analytic fact Int sinc^2 = pi, finite part via the sine integral:
        # Int_0^X (sin t / t)^2 dt = Si(2X) - sin^2(X)/X
        w, big = 2.0, 4000.0
        si, _ = sici(2.0 * big)
        one_d = 2.0 * (si - math.sin(big) ** 2 / big)  # -> pi
        assert one_d == pytest.approx(math.pi, abs=1e-3)
        # tensor structure: total mass = (w/pi * Int sinc^2(w x) dx)^2 = 1
        x, wt = gauss_nodes_1d(-40.0, 40.0, 4000)
        mass_1d = float(np.sum(wt * np.sinc(w * x / math.pi) ** 2)) * w / math.pi
        assert mass_1d**2 == pytest.approx(1.0, abs=1e-2)

    def test_kernel_object(self):
        k = FilterKernel(2.0)
        assert k.omega_tilde(0j) == 1.0
        assert k.omega_alpha(0j) == pytest.approx(4.0 / math.pi**2)
        assert k.support_half_width == 2.0
        with pytest.raises(ParameterError):
            FilterKernel(-1.0)
        with pytest.raises(SupportError):
            FilterKernel(1.0, omega_spec="gaussian")

    def test_width_limit_recovers_point_mass(self):
        # omega_tilde(beta; w) -> 1 pointwise as w grows
        betas = RNG.uniform(-3, 3, 20) + 1j * RNG.uniform(-3, 3, 20)
        vals = [np.min(box_autocorrelation(betas, w)) for w in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[-1] > 0.99


class TestTriGaussianFt:
    def test_g_zero_branch(self):
        assert tri_gaussian_ft(0.0, 0.0) == pytest.approx(1.0 / math.pi)
        y = math.pi / 2.0
        assert tri_gaussian_ft(y, 0.0) == pytest.approx(4.0 / math.pi**3)

    def test_closed_form_vs_quadrature(self):
        assert abs(tri_gaussian_ft(1.0, -0.5) - t_quadrature_oracle(1.0, -0.5)) < 1e-10

    @pytest.mark.parametrize("g", [-2.0, -0.5, 0.0, 0.5, 2.0, -8.0, 8.0, 30.0])
    def test_closed_form_grid(self, g):
        ys = np.linspace(-10.0, 10.0, 81)
        worst = max(abs(tri_gaussian_ft(y, g) - t_quadrature_oracle(y, g)) for y in ys)
        assert worst < 1e-10

    def test_small_g_branch_continuity(self):
        # points on both sides of the expansion switch at |g| = 1e-3
        for y in (0.0, 0.8, 4.0, 9.0):
            for g in (1e-7, -1e-7, 5e-4, 2e-3, -2e-3):
                assert abs(tri_gaussian_ft(y, g) - t_quadrature_oracle(y, g)) < 1e-12

    def test_y_zero_printed_form(self):
        # T(0; g) = Re[(e^-g - 1)/(pi g) + erf(sqrt(g))/sqrt(pi g)]
        from gsphase.numerics import erf_complex
        for g in (0.5, 2.0, -0.5, -2.0):
            sg = complex(g) ** 0.5
            expected = ((math.exp(-g) - 1.0) / (math.pi * g)
                        + (erf_complex(sg) / (math.sqrt(math.pi) * sg)).real)
            assert tri_gaussian_ft(0.0, g) == pytest.approx(expected, abs=1e-12)

    def test_even_in_y(self):
        for g in (-1.0, 0.7):
            for y in (0.3, 2.2, 7.7):
                assert tri_gaussian_ft(y, g) == pytest.approx(tri_gaussian_ft(-y, g), abs=1e-15)

    @pytest.mark.parametrize("g", [0.0, 5e-4, -2e-3, 0.5, -2.0])
    def test_array_matches_scalar_calls(self, g):
        # one array call covers every branch: y = 0, |y| <= 6 and |y| > 6,
        # both signs of Re w1 at g < 0
        ys = np.array([[-9.0, -4.0, 0.0], [0.8, 6.5, 12.0]])
        got = tri_gaussian_ft(ys, g)
        assert got.shape == ys.shape
        expected = np.array([[t_quadrature_oracle(y, g) for y in row] for row in ys])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        for idx in np.ndindex(ys.shape):
            assert got[idx] == tri_gaussian_ft(float(ys[idx]), g)

    def test_line_integral_is_one(self):
        for g in (-2.0, -0.5, 0.0, 0.5, 2.0, 123.45, -7.5158):
            assert tri_gaussian_ft_line_integral(g) == pytest.approx(1.0, abs=2e-8)


GRID = PhaseGrid(extent=4.0, resolution=321)


class TestFilteredGaussian:
    def test_vacuum_equals_kernel(self):
        cf = GaussianCharFn(0.0, 0.0)
        pts = RNG.uniform(-3, 3, 40) + 1j * RNG.uniform(-3, 3, 40)
        ours = filtered_p_gaussian(cf, 2.0, pts)
        np.testing.assert_allclose(ours, sinc2_kernel(pts, 2.0), atol=1e-13)

    def test_max_singular_negative_on_axis(self):
        st = make_state(StateSpec("p_max"))
        cf = GaussianCharFn.from_state(st)
        xs = np.linspace(-4.0, 4.0, 321)
        cut = filtered_p_gaussian(cf, 2.0, xs.astype(complex))
        assert cut.min() < -1e-3

    def test_thermal_non_negative(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        fld = filtered_p_gaussian_grid(GaussianCharFn.from_state(st), 2.0, GRID)
        assert np.real(fld.values).min() >= -1e-9

    def test_squeezed_coefficients(self):
        xi = 1.4
        st = make_state(StateSpec("squeezed", {"xi": xi}))
        lam, kap = st.gaussian_xp
        assert lam == pytest.approx((math.exp(2 * xi) - 1.0) / 2.0)
        assert kap == pytest.approx(-(1.0 - math.exp(-2 * xi)) / 2.0)


class TestFilteredNumeric:
    def test_vacuum_reproduces_kernel_grid(self):
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}))
        fld = filtered_p_numeric(st, FilterKernel(2.0), GRID)
        expected = sinc2_kernel(GRID.mesh(), 2.0)
        assert np.max(np.abs(np.real(fld.values) - expected)) < 1e-8
        assert fld.imag_residue < 1e-9

    @pytest.mark.parametrize("spec", [
        StateSpec("thermal", {"nbar": 0.5}),
        StateSpec("p_max"),
        StateSpec("squeezed", {"xi": 1.4}),
        StateSpec("fock_element", {"m": 0, "n": 0}),
    ], ids=lambda s: s.kind)
    def test_agrees_with_analytic_route_no_axis_swap(self, spec):
        st = make_state(spec)
        num = filtered_p_numeric(st, FilterKernel(2.0), GRID)
        ana = filtered_p_gaussian_grid(GaussianCharFn.from_state(st), 2.0, GRID)
        assert np.max(np.abs(np.real(num.values) - np.real(ana.values))) < 1e-6

    def test_squeezed_cut_tracks_max_singular(self):
        st = make_state(StateSpec("squeezed", {"xi": 1.4}))
        pm = make_state(StateSpec("p_max"))
        fsq = filtered_p_numeric(st, FilterKernel(2.0), GRID)
        fpm = filtered_p_gaussian_grid(GaussianCharFn.from_state(pm), 2.0, GRID)
        mid = GRID.resolution // 2
        cut_sq = np.real(fsq.values)[:, mid]   # squeezed direction: Im alpha = 0
        cut_pm = np.real(fpm.values)[:, mid]
        assert cut_sq.min() < -1e-3

        def unit(v):
            return v / math.sqrt(float(np.sum(v * v)))

        dev = math.sqrt(float(np.sum((unit(cut_sq) - unit(cut_pm)) ** 2)))
        assert dev < 0.15

    def test_spats_negative_near_origin_convolution_oracle(self):
        # regular density is negative at the origin; the kernel average
        # stays negative, confirmed against direct 2-D convolution
        from gsphase.numerics import Cartesian, quad2d
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        fld = filtered_p_numeric(st, FilterKernel(2.0), GRID)
        mid = GRID.resolution // 2
        center_val = float(np.real(fld.values)[mid, mid])
        assert center_val < 0
        oracle = quad2d(
            lambda a: st.regular_p_closed(-a) * sinc2_kernel(a, 2.0),
            Cartesian.square(30.0), tol=1e-8,
        ).real
        assert center_val == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("w", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("spec", [
        StateSpec("fock_element", {"m": 0, "n": 0}),
        StateSpec("p_max"),
        StateSpec("thermal", {"nbar": 0.5}),
        StateSpec("squeezed", {"xi": 1.4}),
    ], ids=lambda s: s.kind)
    def test_normalization(self, spec, w):
        st = make_state(spec)
        lam, kap = st.gaussian_xp
        total = (tri_gaussian_ft_line_integral(w * w * lam)
                 * tri_gaussian_ft_line_integral(w * w * kap))
        assert abs(total - 1.0) < 1e-6

    def test_positivity_on_classical_states(self):
        for spec in [StateSpec("fock_element", {"m": 0, "n": 0}),
                     StateSpec("thermal", {"nbar": 0.5}),
                     StateSpec("cauchy_lorentz", {"t": 3.0})]:
            st = make_state(spec)
            for w in (1.0, 2.0, 4.0):
                fld = filtered_p_numeric(st, FilterKernel(w), GRID)
                assert np.real(fld.values).min() >= -1e-9, spec.kind

    def test_width_limit_approaches_regular_density(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        cf = GaussianCharFn.from_state(st)
        mesh = GRID.mesh()
        regular = np.real(st.regular_p_closed(mesh))
        errs = []
        for w in (1.0, 2.0, 4.0, 8.0):
            fld = filtered_p_gaussian_grid(cf, w, GRID)
            errs.append(np.max(np.abs(np.real(fld.values) - regular)))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_ncl_filtered_negative_at_origin(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 1.0}))
        fld = filtered_p_numeric(st, FilterKernel(2.0), GRID)
        val, loc = negativity_scan(fld)
        assert val < 0


class TestWidthCheck:
    @pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -1.0], ids=repr)
    def test_every_entry_point_rejects(self, w):
        cf = GaussianCharFn(0.5, 0.5)
        with pytest.raises(ParameterError):
            FilterKernel(w)
        with pytest.raises(ParameterError):
            filtered_p_gaussian(cf, w, 0.5 + 0.5j)
        with pytest.raises(ParameterError):
            filtered_p_gaussian_grid(cf, w, GRID)
        with pytest.raises(ParameterError):
            box_autocorrelation(0.5j, w)
        with pytest.raises(ParameterError):
            sinc2_kernel(0.5j, w)


def _rule_200(state, w):
    """Nodes b and integrand weights Phi(u + iv) tri(u/w) tri(v/w) w_u w_v, [u, v]."""
    xm, wm = gauss_nodes_1d(-w, 0.0, 200)
    xp, wp = gauss_nodes_1d(0.0, w, 200)
    b, wb = np.concatenate([xm, xp]), np.concatenate([wm, wp])
    phi = np.asarray(char_fn(state, b[:, None] + 1j * b[None, :]), dtype=complex)
    tw = tri(b / w) * wb
    return b, phi * np.outer(tw, tw)


def filtered_reference_200(state, w, grid):
    """The fixed split tensor Gauss rule, 200 nodes on each half of [-w, w].

    P[x, p] = (1/pi^2) sum_{u,v} Phi(u + iv) tri(u/w) tri(v/w) w_u w_v
    exp(2i (u p - v x)), written out with plain matrix products.
    """
    b, core = _rule_200(state, w)
    ax = grid.axis()
    e_vx = np.exp(-2j * np.outer(ax, b))                # [x, v]
    e_up = np.exp(2j * np.outer(b, ax))                 # [u, p]
    return (e_vx @ (core.T @ e_up)).real / math.pi**2


def roundoff_floor_200(state, w):
    """ROUNDOFF_FACTOR * eps * sum |integrand weights| / pi^2 of the 200-node rule."""
    _, core = _rule_200(state, w)
    return ROUNDOFF_FACTOR * np.finfo(float).eps * float(np.sum(np.abs(core))) / math.pi**2


ADAPTIVE_STATES = [
    StateSpec("spats", {"nbar": 1.0}),
    StateSpec("spats", {"nbar": 1.0}, displacement=3.0 * complex(math.cos(0.4), math.sin(0.4))),
    StateSpec("p_max"),
    StateSpec("squeezed", {"xi": 1.4}, rotation=0.9),
    StateSpec("cauchy_lorentz", {"t": 1.9}, displacement=3.0),
    StateSpec("cauchy_lorentz_ncl", {"t": 1.0}),
    StateSpec("cauchy_lorentz_ncl", {"t": 2.5}),
    StateSpec("fock_element", {"m": 2, "n": 2}, displacement=0.4 - 0.3j),
    StateSpec("fock_mixture", {"w0": 0.5, "w10": 0.5}),
]


class TestAdaptiveRule:
    @pytest.mark.parametrize("w", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("spec", ADAPTIVE_STATES,
                             ids=lambda s: s.kind + ("-displaced" if s.displacement else "")
                             + ("-rotated" if s.rotation else "") + "-" + str(s.params))
    def test_agrees_with_200_node_reference(self, spec, w):
        st = make_state(spec)
        fld = filtered_p_numeric(st, FilterKernel(w), GRID)
        # the rules' sums of |weights| agree to far better than 1%
        assert 0.0 <= fld.quad_error <= max(QUAD_TOLERANCE, 1.01 * roundoff_floor_200(st, w))
        assert np.max(np.abs(np.real(fld.values) - filtered_reference_200(st, w, GRID))) <= 1e-10

    def test_width_too_large_for_the_grid_raises(self):
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=0.3))
        with pytest.raises(NonConvergenceError, match="did not converge"):
            filtered_p_numeric(st, FilterKernel(40.0), PhaseGrid(extent=10.0, resolution=161))

    @pytest.mark.parametrize("spec,w", [(StateSpec("p_max"), 5.0),
                                        (StateSpec("squeezed", {"xi": 1.4}), 6.0)],
                             ids=["p_max-5", "squeezed-1.4-6"])
    def test_fast_growing_phi_converges_to_roundoff(self, spec, w):
        # the 128- and 200-node rules differ by more than QUAD_TOLERANCE on
        # fields of size 1.6e4 and 2.5e6: roundoff, accepted through the floor
        assert ROUNDOFF_FACTOR == 1.0e3
        st = make_state(spec)
        fld = filtered_p_numeric(st, FilterKernel(w), GRID)
        assert fld.quad_error == pytest.approx(roundoff_floor_200(st, w), rel=1e-2)
        assert fld.quad_error > QUAD_TOLERANCE
        exact = filtered_p_gaussian_grid(GaussianCharFn.from_state(st), w, GRID).values
        assert np.max(np.abs(fld.values - exact)) <= fld.quad_error


def filtered_raw_two_exp(state, w, grid, nodes_per_panel):
    """One split rule with both kernel tables built by np.exp, nothing cached."""
    xm, wm = gauss_nodes_1d(-w, 0.0, nodes_per_panel)
    xp, wp = gauss_nodes_1d(0.0, w, nodes_per_panel)
    b, wb = np.concatenate([xm, xp]), np.concatenate([wm, wp])
    BX, BP = np.meshgrid(b, b, indexing="ij")
    phi = np.asarray(char_fn(state, BX + 1j * BP), dtype=complex)
    tw = tri(b / w) * wb / math.pi
    core = phi * (tw[:, None] * tw[None, :])
    ax = grid.axis()
    return (np.exp(2j * np.outer(ax, b)) @ core @ np.exp(-2j * np.outer(b, ax))).T


class TestCachedKernelTable:
    @pytest.mark.parametrize("grid", [GRID, PhaseGrid(3.0, 100)], ids=["4,321", "3,100"])
    @pytest.mark.parametrize("spec", [
        StateSpec("spats", {"nbar": 1.0}, displacement=0.5 - 0.3j),
        StateSpec("fock_element", {"m": 1, "n": 3}, displacement=0.4 + 0.2j),
    ], ids=["spats-displaced", "fock-1-3-displaced"])
    def test_equals_two_exp_tables(self, spec, grid):
        # both states converge at 64 nodes per panel for w = 2
        st = make_state(spec)
        direct = filtered_raw_two_exp(st, 2.0, grid, 64)
        for _ in range(2):  # the second call reads the cached tables
            fld = filtered_p_numeric(st, FilterKernel(2.0), grid)
            np.testing.assert_array_equal(fld.values, direct.real.astype(complex))
            assert fld.imag_residue == float(np.max(np.abs(direct.imag)))

    def test_rule_arrays_are_read_only(self):
        for arr in _filter_rule(2.0, 32, GRID):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cache_is_bounded(self):
        assert RULE_CACHE_SIZE == 4
        assert _filter_rule.cache_info().maxsize == RULE_CACHE_SIZE
