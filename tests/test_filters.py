"""Tests for the filter kernels and regularized distributions."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from gsphase import charfn, filters, numerics
from gsphase.charfn import char_fn
from gsphase.errors import NonConvergenceError, ParameterError, RangeError
from gsphase.filters import (
    QUAD_TOLERANCE,
    ROUNDOFF_FACTOR,
    RULE_CACHE_SIZE,
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
from gsphase.states import StateSpec, make_state, regular_p
from gsphase.witness import classify, negativity_scan

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
        # 40 Gauss nodes on each of 100 equal panels of [-40, 40]
        edges = np.linspace(-40.0, 40.0, 101)
        x, wt = (a.ravel() for a in gauss_nodes_1d(edges[:-1, None], edges[1:, None], 40))
        mass_1d = float(np.sum(wt * np.sinc(w * x / math.pi) ** 2)) * w / math.pi
        assert mass_1d**2 == pytest.approx(1.0, abs=1e-2)

    def test_width_limit_recovers_point_mass(self):
        # box_autocorrelation(beta, w) -> 1 pointwise as w grows
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


def line_window_uncached(g, r_cut=1600.0):
    """The line integral's window sum built node by node, as before its cache."""
    n_panels = max(64, int(4.0 * r_cut / math.pi))
    edges = np.linspace(1.0e-12, 1.0, n_panels + 1)
    zz, ww = gauss_nodes_1d(edges[:-1, None], edges[1:, None], 12)
    inner = np.exp(-g * zz * zz) * (1.0 - zz) * np.sin(2.0 * r_cut * zz) / zz
    return (2.0 / math.pi) * float(np.sum(ww * inner)), zz.size


class TestLineIntegralRule:
    def test_cached_window_matches_the_uncached_sum(self):
        z2, kernel = filters._line_window_rule()
        for g in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.92, -7.5158, 123.45):
            want, size = line_window_uncached(g)
            assert size == z2.size == kernel.size == 2037 * 12
            got = (2.0 / math.pi) * float(np.sum(np.exp(-g * z2) * kernel))
            assert abs(got - want) <= 1e-15

    def test_returns_a_python_float(self):
        for g in (np.float64(0.98), 0.5, np.float64(-2.0)):
            assert type(tri_gaussian_ft_line_integral(g)) is float

    def test_second_g_reuses_the_cached_rule(self):
        tri_gaussian_ft_line_integral(0.25)      # the rule is cached now
        hits = filters._line_window_rule.cache_info().hits
        tri_gaussian_ft_line_integral(1.75)
        assert filters._line_window_rule.cache_info().hits == hits + 1

    def test_rule_arrays_are_read_only(self):
        for arr in filters._line_window_rule():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


GRID = PhaseGrid(extent=4.0, resolution=321)


class TestFilteredGaussian:
    def test_vacuum_equals_kernel(self):
        pts = RNG.uniform(-3, 3, 40) + 1j * RNG.uniform(-3, 3, 40)
        ours = filtered_p_gaussian((0.0, 0.0), 2.0, pts)
        np.testing.assert_allclose(ours, sinc2_kernel(pts, 2.0), atol=1e-13)

    def test_max_singular_negative_on_axis(self):
        st = make_state(StateSpec("p_max"))
        xs = np.linspace(-4.0, 4.0, 321)
        cut = filtered_p_gaussian(st.gaussian_xp, 2.0, xs.astype(complex))
        assert cut.min() < -1e-3

    def test_state_without_gaussian_phi_is_refused(self):
        xp = make_state(StateSpec("spats", {"nbar": 1.0})).gaussian_xp
        assert xp is None
        with pytest.raises(ParameterError, match="no centred Gaussian"):
            filtered_p_gaussian(xp, 2.0, 0.5 + 0.5j)
        with pytest.raises(ParameterError, match="no centred Gaussian"):
            filtered_p_gaussian_grid(xp, 2.0, GRID)

    def test_thermal_non_negative(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        fld = filtered_p_gaussian_grid(st.gaussian_xp, 2.0, GRID)
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
        fld = filtered_p_numeric(st, 2.0, GRID)
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
        num = filtered_p_numeric(st, 2.0, GRID)
        ana = filtered_p_gaussian_grid(st.gaussian_xp, 2.0, GRID)
        assert np.max(np.abs(np.real(num.values) - np.real(ana.values))) < 1e-6

    def test_squeezed_cut_tracks_max_singular(self):
        st = make_state(StateSpec("squeezed", {"xi": 1.4}))
        pm = make_state(StateSpec("p_max"))
        fsq = filtered_p_numeric(st, 2.0, GRID)
        fpm = filtered_p_gaussian_grid(pm.gaussian_xp, 2.0, GRID)
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
        fld = filtered_p_numeric(st, 2.0, GRID)
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
                fld = filtered_p_numeric(st, w, GRID)
                assert np.real(fld.values).min() >= -1e-9, spec.kind

    def test_width_limit_approaches_regular_density(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        mesh = GRID.mesh()
        regular = np.real(st.regular_p_closed(mesh))
        errs = []
        for w in (1.0, 2.0, 4.0, 8.0):
            fld = filtered_p_gaussian_grid(st.gaussian_xp, w, GRID)
            errs.append(np.max(np.abs(np.real(fld.values) - regular)))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_ncl_filtered_negative_at_origin(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 1.0}))
        fld = filtered_p_numeric(st, 2.0, GRID)
        val, loc = negativity_scan(fld)
        assert val < 0


def t_mpmath(y, g):
    """(2/pi) Int_0^1 exp(-g z^2) cos(2yz)(1 - z) dz at 40 digits."""
    with mpmath.workdps(40):
        y, g = mpmath.mpf(y), mpmath.mpf(g)
        return (2 / mpmath.pi) * mpmath.quad(
            lambda z: mpmath.exp(-g * z * z) * mpmath.cos(2 * y * z) * (1 - z), [0, 0.5, 1])


class TestPmaxAtWidth6:
    """p_max at w = 6 (g = w^2 lam = -18) on the 4,321 grid, against mpmath.

    The erfcx closed form and the numeric rules differ there by up to 0.013
    on a field of size 4.5e10; 40-digit quadrature of T decides between them.
    """

    def test_closed_form_against_mpmath(self):
        t_max = float(t_mpmath(0.0, -18.0))  # T(y; -18) peaks at y = 0
        assert t_max == pytest.approx(35414.628160333, rel=1e-12)
        for y in (0.3, 1.5, 3.0, 7.5, 12.0):
            assert abs(tri_gaussian_ft(y, -18.0) - float(t_mpmath(y, -18.0))) <= 1e-12 * t_max

    def test_numeric_field_within_its_error_of_mpmath(self):
        grid = PhaseGrid(extent=4.0, resolution=321)
        st = make_state(StateSpec("p_max"))
        fld = filtered_p_numeric(st, 6.0, grid)
        assert 0.0 < fld.quad_error < 0.02
        ax = grid.axis()
        for i, j in [(170, 150), (160, 160), (200, 120)]:
            # P(alpha; w) = w^2 T(-w Re alpha; w^2 kap) T(w Im alpha; w^2 lam)
            exact = 36 * t_mpmath(-6.0 * ax[i], -18.0) * t_mpmath(6.0 * ax[j], -18.0)
            assert abs(fld.values[i, j].real - float(exact)) <= fld.quad_error


BAD_WIDTHS = [math.nan, math.inf, 0.0, -1.0, "2", None, 1j]


class TestWidthCheck:
    @pytest.mark.parametrize("w", BAD_WIDTHS, ids=repr)
    def test_every_entry_point_rejects(self, w):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        with pytest.raises(ParameterError, match="filter width"):
            filtered_p_numeric(st, w, GRID)
        with pytest.raises(ParameterError, match="filter width"):
            filtered_p_gaussian(st.gaussian_xp, w, 0.5 + 0.5j)
        with pytest.raises(ParameterError, match="filter width"):
            filtered_p_gaussian_grid(st.gaussian_xp, w, GRID)
        with pytest.raises(ParameterError, match="filter width"):
            box_autocorrelation(0.5j, w)
        with pytest.raises(ParameterError, match="filter width"):
            sinc2_kernel(0.5j, w)

    @pytest.mark.parametrize("w", BAD_WIDTHS, ids=repr)
    def test_classify_refuses_before_any_criterion_runs(self, w, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(charfn, "classicality_violation", no_scan)
        with pytest.raises(ParameterError, match="filter width"):
            classify(make_state(StateSpec("thermal", {"nbar": 0.5})), w=w)


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
        fld = filtered_p_numeric(st, w, GRID)
        # the rules' sums of |weights| agree to far better than 1%
        assert 0.0 <= fld.quad_error <= max(QUAD_TOLERANCE, 1.01 * roundoff_floor_200(st, w))
        assert np.max(np.abs(np.real(fld.values) - filtered_reference_200(st, w, GRID))) <= 1e-10

    def test_width_too_large_for_the_grid_raises(self):
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=0.3))
        with pytest.raises(NonConvergenceError, match="did not converge"):
            filtered_p_numeric(st, 40.0, PhaseGrid(extent=10.0, resolution=161))

    @pytest.mark.parametrize("spec,w", [(StateSpec("p_max"), 5.0),
                                        (StateSpec("squeezed", {"xi": 1.4}), 6.0)],
                             ids=["p_max-5", "squeezed-1.4-6"])
    def test_fast_growing_phi_converges_to_roundoff(self, spec, w):
        # the 128- and 200-node rules differ by more than QUAD_TOLERANCE on
        # fields of size 1.6e4 and 2.5e6: roundoff, accepted through the floor
        assert ROUNDOFF_FACTOR == 1.0e3
        st = make_state(spec)
        fld = filtered_p_numeric(st, w, GRID)
        assert fld.quad_error == pytest.approx(roundoff_floor_200(st, w), rel=1e-2)
        assert fld.quad_error > QUAD_TOLERANCE
        exact = filtered_p_gaussian_grid(st.gaussian_xp, w, GRID).values
        assert np.max(np.abs(fld.values - exact)) <= fld.quad_error


class TestTranslatedGaussianFilter:
    """A displacement translates the filtered profile of a Gaussian Phi."""

    SPECS = [
        StateSpec("fock_element", {"m": 0, "n": 0}, displacement=0.7 - 0.4j),
        StateSpec("thermal", {"nbar": 0.8}, displacement=-0.5 + 0.9j, rotation=1.1),
        StateSpec("squeezed", {"xi": 1.0}, displacement=0.6 + 0.3j),
        StateSpec("p_max", displacement=-0.4 - 0.8j),
    ]

    @pytest.mark.parametrize("w", [2.0, 4.0])
    @pytest.mark.parametrize("spec", SPECS, ids=["coherent", "thermal-rotated", "squeezed-1",
                                                 "p_max"])
    def test_agrees_with_the_numeric_filter(self, spec, w):
        st = make_state(spec)
        assert st.gaussian_xp is not None
        a0 = spec.displacement
        ana = filtered_p_gaussian_grid(st.gaussian_xp, w, GRID, centre=a0)
        num = filtered_p_numeric(st, w, GRID)
        assert np.max(np.abs(ana.values - num.values)) <= num.quad_error
        # the evaluator is the same translated profile
        pts = np.array([a0, 0.3 - 1.2j])
        np.testing.assert_allclose(ana(pts), filtered_p_gaussian(st.gaussian_xp, w, pts - a0),
                                   rtol=0, atol=0)
        if spec.kind in ("fock_element", "thermal"):
            assert classify(st, w=w, grid=GRID).overall == "consistent-with-classical"

    @pytest.mark.parametrize("xi", [6.0, 10.0])
    def test_strongly_squeezed_displaced_state_gets_a_verdict(self, xi):
        # the numeric filter does not converge for xi = 6 at w = 2; the
        # translated closed form certifies the negativity
        st = make_state(StateSpec("squeezed", {"xi": xi}, displacement=0.5 - 0.4j))
        entry = classify(st).entry("filtered_negativity")
        assert entry.verdict == "nonclassical-certified"
        assert entry.witness_value < -1e-6

    def test_zero_centre_is_the_centred_profile(self):
        st = make_state(StateSpec("squeezed", {"xi": 0.7}))
        np.testing.assert_array_equal(
            filtered_p_gaussian_grid(st.gaussian_xp, 2.0, GRID, centre=0j).values,
            filtered_p_gaussian_grid(st.gaussian_xp, 2.0, GRID).values)


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
    field = (np.exp(2j * np.outer(ax, b)) @ core @ np.exp(-2j * np.outer(b, ax))).T
    return field, float(np.sum(np.abs(core)))


class TestCachedKernelTable:
    @pytest.mark.parametrize("grid", [GRID, PhaseGrid(3.0, 100)], ids=["4,321", "3,100"])
    @pytest.mark.parametrize("spec", [
        StateSpec("spats", {"nbar": 1.0}, displacement=0.5 - 0.3j),
        StateSpec("fock_element", {"m": 1, "n": 3}, displacement=0.4 + 0.2j),
    ], ids=["spats-displaced", "fock-1-3-displaced"])
    def test_equals_two_exp_tables(self, spec, grid):
        # both states converge at 64 nodes per panel for w = 2; the folded
        # real sums round differently from the complex products, by 2-6
        # eps * sum |core| on these fields
        st = make_state(spec)
        direct, abs_sum = filtered_raw_two_exp(st, 2.0, grid, 64)
        first = filtered_p_numeric(st, 2.0, grid)
        assert np.max(np.abs(first.values - direct.real)) <= 32 * np.finfo(float).eps * abs_sum
        assert not np.any(first.values.imag)
        if spec.kind == "spats":  # Hermitian: the imaginary field is roundoff
            assert first.imag_residue <= 1e-15
        else:
            assert first.imag_residue == pytest.approx(np.max(np.abs(direct.imag)), rel=1e-14)
        second = filtered_p_numeric(st, 2.0, grid)  # reads the cached tables
        np.testing.assert_array_equal(second.values, first.values)
        assert second.imag_residue == first.imag_residue

    def test_rule_arrays_are_read_only(self):
        for n in (32, 64):
            nodes, weights, table = _filter_rule(2.0, n, GRID)
            for arr in (nodes, weights, table):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0
            # each array equals, bit for bit, its former per-call construction
            bp, wb = gauss_nodes_1d(0.0, 2.0, n)
            tw = tri(bp / 2.0) * wb / math.pi
            b = np.concatenate([-bp[::-1], bp])
            BX, BP = np.meshgrid(b, b, indexing="ij")
            twb = np.concatenate([tw[::-1], tw])
            phase = 2.0 * np.outer(GRID.axis(), bp)
            assert nodes.tobytes() == (BX + 1j * BP).tobytes()
            assert weights.tobytes() == (twb[:, None] * twb[None, :]).tobytes()
            assert table.tobytes() == np.concatenate([np.cos(phase), np.sin(phase)],
                                                     axis=1).tobytes()

    def test_cache_is_bounded(self):
        assert RULE_CACHE_SIZE == 4
        assert _filter_rule.cache_info().maxsize == RULE_CACHE_SIZE


class TestNonFinitePhi:
    @pytest.mark.parametrize("t", [100.0, 1e5])
    @pytest.mark.parametrize("kind", ["cauchy_lorentz", "cauchy_lorentz_ncl"])
    def test_first_rule_refuses(self, kind, t, monkeypatch):
        # kv(t, 2|beta|) overflows at the small nodes; no finer rule helps
        st = make_state(StateSpec(kind, {"t": t}))
        rules = []
        original = filters._filtered_raw
        monkeypatch.setattr(filters, "_filtered_raw",
                            lambda *a: rules.append(a[3]) or original(*a))
        with pytest.raises(RangeError, match=f"Phi of {kind} t=.* is not finite at"):
            filtered_p_numeric(st, 2.0, GRID)
        assert rules == [32]


class TestPointInputs:
    """Points given as a list or tuple act as an array; anything not a number is refused."""

    @pytest.mark.parametrize("points", [[0.0, 0.5], (0.0, 0.5j), [[0.0, 0.5], [1.0 - 0.2j, -0.3]]],
                             ids=["list", "tuple", "nested"])
    def test_sequence_equals_the_ndarray_call(self, points):
        arr = np.asarray(points, dtype=complex)
        np.testing.assert_array_equal(sinc2_kernel(points, 2.0), sinc2_kernel(arr, 2.0))
        np.testing.assert_array_equal(box_autocorrelation(points, 2.0),
                                      box_autocorrelation(arr, 2.0))
        np.testing.assert_array_equal(filtered_p_gaussian((0.5, 0.5), 2.0, points),
                                      filtered_p_gaussian((0.5, 0.5), 2.0, arr))
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        np.testing.assert_array_equal(char_fn(st, points), char_fn(st, arr))

    def test_scalar_stays_a_python_number(self):
        assert isinstance(numerics.as_complex(0.5), complex)
        assert isinstance(numerics.as_complex(np.float64(0.5)), complex)
        assert isinstance(sinc2_kernel(0.5, 2.0), float)
        assert isinstance(char_fn(make_state(StateSpec("thermal", {"nbar": 0.5})), 0.5), complex)

    _THERMAL = make_state(StateSpec("thermal", {"nbar": 0.5}))
    #: name -> (pointwise entry point, point, Python type of a scalar result)
    POINTWISE = {
        "char_fn": (lambda b: char_fn(TestPointInputs._THERMAL, b), 0.3 - 0.2j, complex),
        "char_fn_s": (lambda b: charfn.char_fn_s(TestPointInputs._THERMAL, b, 0.0), 0.3 - 0.2j,
                      complex),
        "char_fn_fock_element": (lambda b: charfn.char_fn_fock_element(1, 2, b), 0.3 - 0.2j,
                                 complex),
        "regular_p": (lambda a: regular_p(TestPointInputs._THERMAL, a), 0.3 - 0.2j, float),
        "erf_complex": (numerics.erf_complex, 0.3 - 0.2j, complex),
        "erfcx_complex": (numerics.erfcx_complex, 0.3 - 0.2j, complex),
        "PhaseField": (filtered_p_gaussian_grid((0.5, 0.5), 2.0, PhaseGrid(2.0, 5)), 0.3 - 0.2j,
                       complex),
        "tri": (tri, 0.3, float),
        "tri_gaussian_ft": (lambda y: tri_gaussian_ft(y, 0.5), 0.3, float),
        "box_autocorrelation": (lambda b: box_autocorrelation(b, 2.0), 0.3 - 0.2j, float),
        "sinc2_kernel": (lambda a: sinc2_kernel(a, 2.0), 0.3 - 0.2j, float),
        "filtered_p_gaussian": (lambda a: filtered_p_gaussian((0.5, 0.5), 2.0, a), 0.3 - 0.2j,
                                float),
    }

    @pytest.mark.parametrize("fn,point,kind", POINTWISE.values(), ids=POINTWISE)
    def test_one_scalar_rule(self, fn, point, kind):
        # a number or a 0-d array gives a Python number; any other array an
        # array of its shape with the same values
        value = fn(point)
        assert type(value) is kind
        zero_d = fn(np.asarray(point))
        assert type(zero_d) is kind and zero_d == value
        arr = fn(np.array([[point, 2 * point, 0.0]]))
        assert isinstance(arr, np.ndarray) and arr.shape == (1, 3)
        assert arr[0, 0] == value

    @pytest.mark.parametrize("points", [np.array([0.5, 1.0j]), np.array(0.5 + 0j)],
                             ids=["1-d", "0-d"])
    def test_pointwise_passes_the_right_dtype_uncopied(self, points):
        seen = []
        numerics.pointwise(lambda a: seen.append(a) or a, points)
        assert np.shares_memory(seen[0], points)

    @pytest.mark.parametrize("bad", ["abc", "0.5", None, [None], ["1"], [[0.0, 0.5], [1.0]],
                                     {0.5}], ids=["abc", "numeric-string", "None", "[None]",
                                                  "[string]", "ragged", "set"])
    def test_non_numbers_are_refused(self, bad):
        with pytest.raises(ParameterError, match="must be numbers"):
            sinc2_kernel(bad, 2.0)
        with pytest.raises(ParameterError, match="must be numbers"):
            filtered_p_gaussian((0.5, 0.5), 2.0, bad)
        with pytest.raises(ParameterError, match="must be numbers"):
            char_fn(make_state(StateSpec("thermal", {"nbar": 0.5})), bad)
