"""Tests for the nonclassicality criteria battery and the dual-space suite."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import betaln, gammaln, ive

from gsphase import charfn, filters, witness
from gsphase.deltaseries import TaylorField, exp_laplace_series, pair
from gsphase.errors import ComplexResidueError, NonConvergenceError, ParameterError, RangeError
from gsphase.filters import filtered_p_gaussian_grid, filtered_p_numeric
from gsphase.numerics import PhaseField, PhaseGrid
from gsphase.states import (State, StateSpec, fock_matrix, from_fock_matrix, make_state,
                            resummed_coefficients)
from gsphase.witness import (
    CERTIFICATION_MARGIN,
    DIVERGED,
    VERDICT_CERTIFIED,
    VERDICT_CONSISTENT,
    VERDICT_INAPPLICABLE,
    admissible_check,
    analytic_divergence_demo,
    classify,
    moment_matrix_test,
    negativity_scan,
    normal_moment,
    pmax_pairing_bound,
    radius_estimate,
    radius_estimate_bound,
    vacuum_probability,
)


def lorentz_moment_oracle(t: float, n: int) -> float:
    """t * B(n+1, t-n), the Beta-integral value of the heavy-tail moment."""
    return t * math.exp(betaln(n + 1, t - n))


class TestVacuumProbability:
    def test_vacuum_free_heavy_tail_state(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 3.0}))
        assert vacuum_probability(st) == 0.0

    def test_thermal(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        assert vacuum_probability(st) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_spats_zero_with_quadrature_oracle(self):
        from gsphase.numerics import Cartesian, quad2d
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        assert vacuum_probability(st) == 0.0
        oracle = quad2d(
            lambda a: st.regular_p_closed(a) * np.exp(-np.abs(a) ** 2),
            Cartesian.square(9.0), tol=1e-12,
        ).real
        assert abs(oracle) < 1e-8

    def test_pmax_pairing_route(self):
        st = make_state(StateSpec("p_max"))
        paired = pair(exp_laplace_series(-0.5, 400), TaylorField.vacuum_projector_symbol(0)).value
        assert vacuum_probability(st) == 2.0
        assert vacuum_probability(st) == pytest.approx(paired.real, rel=1e-12)


class TestDisplacedVacuumProbability:
    """<-a0|rho_c|-a0> of the centred state against closed forms and 1-D quadrature."""

    @pytest.mark.parametrize("a0", [0.3, 5.0, 12.0, 20.0])
    @pytest.mark.parametrize("nbar", [0.5, 2.0])
    def test_thermal(self, nbar, a0):
        st = make_state(StateSpec("thermal", {"nbar": nbar}, displacement=a0 * cmath.exp(0.7j)))
        expected = math.exp(-a0**2 / (1.0 + nbar)) / (1.0 + nbar)
        assert vacuum_probability(st) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a0", [0.5, 20.0])
    @pytest.mark.parametrize("nbar", [1.0, 5.0])
    def test_spats(self, nbar, a0):
        # Gaussian integral of the spats density: |a0|^2 exp(-|a0|^2/(1+nbar)) / (1+nbar)^2
        st = make_state(StateSpec("spats", {"nbar": nbar}, displacement=a0 * cmath.exp(-1.1j)))
        expected = a0**2 * math.exp(-a0**2 / (1.0 + nbar)) / (1.0 + nbar) ** 2
        assert vacuum_probability(st) == pytest.approx(expected, rel=1e-12)

    def test_off_diagonal_fock_element(self):
        # <-a0|0><1|-a0> = exp(-|a0|^2) (-a0)
        a0 = 0.6 - 0.3j
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 1}, displacement=a0))
        assert vacuum_probability(st) == pytest.approx(-0.6 * math.exp(-abs(a0) ** 2), rel=1e-14)

    @pytest.mark.parametrize("t,a0,expected", [
        (3.0, 3.0 * cmath.exp(0.4j), 0.0021915676179186),
        (5.5, 6.0, 1.43284610e-9),
    ])
    def test_cauchy_lorentz_against_radial_quadrature(self, t, a0, expected):
        # p0 = Int d^2alpha P(alpha) exp(-|alpha|^2) with P radial about a0:
        # the angular integral is 2 pi exp(-(r-|a0|)^2) ive(0, 2 r |a0|)
        r0 = abs(a0)

        def integrand(r):
            density = (t / math.pi) * (1.0 + r * r) ** (-1.0 - t)
            return 2.0 * math.pi * r * density * math.exp(-(r - r0) ** 2) * ive(0, 2.0 * r * r0)

        oracle = quad(integrand, 0.0, r0 + 40.0, points=[r0], epsabs=0.0, epsrel=1e-13, limit=500)[0]
        assert oracle == pytest.approx(expected, rel=1e-8)
        for rotation in (0.0, 0.9):
            st = make_state(StateSpec("cauchy_lorentz", {"t": t}, displacement=a0, rotation=rotation))
            assert vacuum_probability(st) == pytest.approx(oracle, rel=1e-12)


class TestNormalMoments:
    def test_lorentz_t3_first_moment(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 3.0}))
        m1 = normal_moment(st, 1)
        assert m1 == pytest.approx(0.5, abs=1e-6)
        assert m1 == pytest.approx(lorentz_moment_oracle(3.0, 1), abs=1e-6)

    def test_lorentz_t1_diverges(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 1.0}))
        assert normal_moment(st, 1) is DIVERGED

    def test_normalization_moment(self):
        for spec in [StateSpec("thermal", {"nbar": 0.5}),
                     StateSpec("cauchy_lorentz", {"t": 1.0}),
                     StateSpec("p_max")]:
            assert normal_moment(make_state(spec), 0) == 1.0

    @pytest.mark.parametrize("kind,params,oracle,rel", [
        # each from its closed-form table, not from a quadrature of the density
        ("thermal", {"nbar": 3.5e-7}, lambda k: math.factorial(k) * 3.5e-7 ** k, 1e-15),
        ("spats", {"nbar": 1e-6},
         lambda k: math.factorial(k) * 1e-6 ** (k - 1) * (k * 1e-6 + k + 1e-6), 1e-12),
        ("cauchy_lorentz", {"t": 1e5}, lambda k: lorentz_moment_oracle(1e5, k), 1e-9),
        ("cauchy_lorentz", {"t": 1e6}, lambda k: lorentz_moment_oracle(1e6, k), 1e-8),
        ("cauchy_lorentz", {"t": 1e9}, lambda k: lorentz_moment_oracle(1e9, k), 1e-12),
        ("cauchy_lorentz", {"t": 1e12}, lambda k: lorentz_moment_oracle(1e12, k), 1e-12),
    ])
    def test_narrow_densities_are_resolved(self, kind, params, oracle, rel):
        # cores 6e-4 to 3e-3 wide, which a radial quadrature has to resolve
        st = make_state(StateSpec(kind, params))
        for k in range(1, 5):
            assert normal_moment(st, k) == pytest.approx(oracle(k), rel=rel, abs=0.0)

    def test_off_diagonal_fock_element_moments(self):
        # Tr(U |0><1| U^dag a^dag^k a^k), U = expm(a0 a^dag - conj(a0) a) at cutoff 200
        a0, K = 0.8 * cmath.exp(-0.6j), 200
        rho = np.zeros((K + 1, K + 1))
        rho[0, 1] = 1.0
        a = np.diag(np.sqrt(np.arange(1.0, K + 1)), 1)
        u = expm(a0 * a.T - np.conj(a0) * a)
        diag = np.diag(u @ rho @ u.conj().T)
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 1}, displacement=a0))
        assert normal_moment(st, 0) == 0.0
        assert normal_moment(st, 1) == pytest.approx(a0.real, rel=1e-14)
        for k in range(1, 4):
            falling = np.array([float(math.perm(n, k)) for n in range(K + 1)])
            assert normal_moment(st, k) == pytest.approx(np.real(diag @ falling), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_divergence_threshold_grid(self, t, n):
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        m = normal_moment(st, n)
        if t > n:
            assert m is not DIVERGED
            assert m == pytest.approx(lorentz_moment_oracle(t, n), rel=1e-5)
        else:
            assert m is DIVERGED

    def test_thermal_moments_match_factorial_law(self):
        nbar = 0.5
        st = make_state(StateSpec("thermal", {"nbar": nbar}))
        for i in range(4):
            assert normal_moment(st, i) == pytest.approx(
                math.factorial(i) * nbar**i, rel=1e-9)

    def test_pmax_moments_from_pairing(self):
        st = make_state(StateSpec("p_max"))
        for i in range(1, 4):
            assert normal_moment(st, i) == pytest.approx(
                (-0.5) ** i * math.factorial(i), rel=1e-12)


class TestMomentTables:
    """The closed-form moment tables every state carries, against their formulas."""

    @pytest.mark.parametrize("xi", [1.0, 2.0, 3.0, 5.0])
    def test_squeezed(self, xi):
        st = make_state(StateSpec("squeezed", {"xi": xi}))
        s2, c2 = math.sinh(xi) ** 2, math.cosh(xi) ** 2
        assert normal_moment(st, 1) == pytest.approx(s2, rel=1e-12, abs=0.0)
        assert normal_moment(st, 2) == pytest.approx(2.0 * s2 * s2 + s2 * c2, rel=1e-12, abs=0.0)
        assert st.moments(2)[2, 0] == pytest.approx(-math.sinh(xi) * math.cosh(xi), rel=1e-12)

    def test_fock_mixture_resums_every_row(self):
        # <:n^k:> = 0.5 * 300!/(300-k)!; each k-term's exponent is formed near 0,
        # not from log-factorials near 1,400
        st = make_state(StateSpec("fock_mixture", {"w0": 0.5, "w300": 0.5}))
        for k in range(1, 5):
            assert normal_moment(st, k) == pytest.approx(0.5 * math.perm(300, k),
                                                         rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("nbar", [1.0, 20.0, 50.0, 1e4])
    def test_spats(self, nbar):
        st = make_state(StateSpec("spats", {"nbar": nbar}))
        assert normal_moment(st, 1) == pytest.approx(2.0 * nbar + 1.0, rel=1e-12, abs=0.0)
        assert normal_moment(st, 2) == pytest.approx(6.0 * nbar**2 + 4.0 * nbar,
                                                     rel=1e-12, abs=0.0)
        assert moment_matrix_test(st, 2).verdict != VERDICT_INAPPLICABLE

    @pytest.mark.parametrize("kind", ["cauchy_lorentz", "cauchy_lorentz_ncl"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.0, 3.0, 5.5])
    def test_finite_lorentz_cells_against_quad(self, kind, t):
        # <:n^k:> = Int_0^inf t u^k (1 + u)^(-1-t) du, u = |alpha|^2, for k < t
        st = make_state(StateSpec(kind, {"t": t}))
        norm = vacuum_probability(make_state(StateSpec("cauchy_lorentz", {"t": t})))
        scale = 1.0 if kind == "cauchy_lorentz" else 1.0 / (1.0 - norm)
        assert normal_moment(st, 0) == 1.0
        for k in range(1, 4):
            if k >= t:
                assert normal_moment(st, k) is DIVERGED
                continue
            val, err = quad(lambda u: t * u**k * (1.0 + u) ** (-1.0 - t), 0.0, math.inf,
                            epsabs=0.0, epsrel=1e-13, limit=200)
            assert normal_moment(st, k) == pytest.approx(scale * val, rel=1e-10, abs=0.0)

    def test_rotation_phase_matches_the_fock_route(self):
        # T[q, r] = q! r! d[q, r] of the rotated cutoff-128 Fock matrix; the
        # opposite phase is off by O(1), so this pins the sign
        f = np.array([math.factorial(k) for k in range(5)], dtype=float)
        st = make_state(StateSpec("squeezed", {"xi": 1.0}, rotation=0.7))
        for rotation, close in [(0.7, True), (-0.7, False)]:
            fock = make_state(StateSpec("squeezed", {"xi": 1.0}, rotation=rotation))
            d, _ = resummed_coefficients(fock_matrix(fock, 128).matrix, 4)
            diff = np.abs(st.moments(4) - d * np.outer(f, f)).max()
            assert (diff < 1e-7) == close

    @pytest.mark.parametrize("xi,rotation", [(354.0, 0.0), (200.0, 0.3)])
    def test_moments_past_the_float_range_are_not_finite(self, xi, rotation):
        st = make_state(StateSpec("squeezed", {"xi": xi}, rotation=rotation))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = moment_matrix_test(st, 2)
        assert entry.verdict == VERDICT_INAPPLICABLE
        assert entry.detail.endswith("is not finite")


class TestMomentMatrix:
    def test_single_photon_order_one(self):
        # moments 1, 1, 0 -> [[1,1],[1,0]] with min eigenvalue (1-sqrt(5))/2
        st = make_state(StateSpec("photon_vacuum_mix", {"eta": 1.0}))
        entry = moment_matrix_test(st, 1)
        assert entry.verdict == VERDICT_CERTIFIED
        oracle = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]])).min()
        assert entry.witness_value == pytest.approx(oracle, abs=1e-12)
        assert entry.witness_value == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_thermal_stays_positive(self, order):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        entry = moment_matrix_test(st, order)
        assert entry.verdict == VERDICT_CONSISTENT
        assert entry.witness_value >= 0.0

    def test_heavy_tail_inapplicable(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 1.0}))
        entry = moment_matrix_test(st, 2)
        assert entry.verdict == VERDICT_INAPPLICABLE

    def test_spats_certified_at_order_two(self):
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        entry = moment_matrix_test(st, 2)
        assert entry.verdict == VERDICT_CERTIFIED


def coherent_mixture(weights, points) -> State:
    """sum_i w_i |a_i><a_i|, built by hand: Phi, moment table and Fock matrix.

    T[q, r] = sum_i w_i a_i^q conj(a_i)^r.  Its Hankel matrices are those of
    a finite point measure, singular past its number of points, so their
    least eigenvalue is 0 up to roundoff.
    """
    w, a = np.asarray(weights, dtype=float), np.asarray(points, dtype=complex)

    def phi(beta):
        b = np.asarray(beta, dtype=complex)[..., None]
        return np.sum(w * np.exp(b * np.conj(a) - np.conj(b) * a), axis=-1)

    def moments(order):
        q = np.arange(order + 1)
        return np.einsum("i,iq,ir->qr", w, a[:, None] ** q, np.conj(a)[:, None] ** q)

    def fock(cutoff):
        k = np.arange(cutoff + 1)
        amp = a[:, None] ** k * np.exp(-0.5 * np.abs(a)[:, None] ** 2 - 0.5 * gammaln(k + 1))
        return np.einsum("i,iq,ir->qr", w, amp, np.conj(amp))

    return State(spec=StateSpec("coherent_mixture", {}), physical=True,
                 phi_unrotated=phi, moments_unrotated=moments, _base_fock_builder=fock)


#: two- and three-point coherent mixtures with one heavy point; at the
#: order-3 Hankel matrix 16 of them read below -1e-9 by roundoff alone
MIXTURE_PROBES = (
    [((wt, 1.0 - wt), pts) for wt in (0.999, 0.99, 0.9, 0.5)
     for r in (1.0, 2.0, 4.0, 8.0, 10.0, 15.0, 20.0, 25.0, 30.0)
     for pts in ((0.0, r), (r * cmath.exp(0.7j), -0.5 * r))]
    + [((wt, (1.0 - wt) / 2, (1.0 - wt) / 2), pts) for wt in (0.998, 0.98, 0.8, 1.0 / 3.0)
       for r in (1.0, 2.0, 4.0, 8.0, 10.0, 15.0, 20.0, 25.0, 30.0)
       for pts in ((0.0, r, r * cmath.exp(2j * math.pi / 3)), (0.5, r, 0.5j * r))]
)


class TestMomentMatrixSoundness:
    """A singular Hankel matrix certifies nothing through its roundoff."""

    def test_two_point_mixture(self):
        # 0.999 |0><0| + 0.001 |30><30|: the exact least eigenvalue is 0
        st = coherent_mixture((0.999, 0.001), (0.0, 30.0))
        assert abs(vacuum_probability(st) - (0.999 + 0.001 * math.exp(-900.0))) < 1e-15
        for order, below in ((2, -1.0e-8), (3, -1.0e-3)):
            entry = moment_matrix_test(st, order)
            assert entry.witness_value < below
            assert entry.verdict == VERDICT_CONSISTENT

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_no_mixture_certifies(self, order):
        certified = [(w, a) for w, a in MIXTURE_PROBES
                     if moment_matrix_test(coherent_mixture(w, a), order).verdict
                     == VERDICT_CERTIFIED]
        assert certified == []

    def test_nonclassical_moments_still_certify(self):
        # criterion 8's moment certifications, far past the roundoff term
        for spec, orders in ((StateSpec("spats", {"nbar": 1.0}), (2, 3)),
                             (StateSpec("photon_vacuum_mix", {"eta": 1.0}), (1, 2, 3))):
            for order in orders:
                assert moment_matrix_test(make_state(spec), order).verdict == VERDICT_CERTIFIED


class TestMarginAndOrder:
    """A margin or moment order that breaks soundness is refused up front."""

    THERMAL = StateSpec("thermal", {"nbar": 0.5})

    @pytest.mark.parametrize("margin", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "0"])
    def test_bad_margin_refused(self, margin):
        # margin -1 certified this thermal state through the moment matrix
        st = make_state(self.THERMAL)
        with pytest.raises(ParameterError, match="certification margin"):
            classify(st, margin=margin)
        with pytest.raises(ParameterError, match="certification margin"):
            moment_matrix_test(st, 2, margin=margin)

    @pytest.mark.parametrize("order", [-1, 2.5, 2.0, "2", None])
    def test_bad_order_refused(self, order):
        st = make_state(self.THERMAL)
        with pytest.raises(ParameterError, match="moment order"):
            classify(st, moment_order=order)
        with pytest.raises(ParameterError, match="moment order"):
            moment_matrix_test(st, order)

    def test_refused_before_any_criterion_runs(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(charfn, "classicality_violation", no_scan)
        with pytest.raises(ParameterError):
            classify(make_state(self.THERMAL), margin=-1.0)

    @pytest.mark.parametrize("order", [0, 2, np.int64(2)])
    def test_zero_margin_and_integer_orders_accepted(self, order):
        st = make_state(self.THERMAL)
        assert moment_matrix_test(st, order, margin=0.0).verdict == VERDICT_CONSISTENT
        rep = classify(st, margin=0.0, moment_order=order)
        assert rep.overall == VERDICT_CONSISTENT


class TestNegativityScan:
    GRID = PhaseGrid(extent=4.0, resolution=161)

    def test_filtered_vacuum_non_negative(self):
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}))
        fld = filtered_p_gaussian_grid(st.gaussian_xp, 2.0, self.GRID)
        val, _ = negativity_scan(fld)
        assert val >= -1e-12

    def test_filtered_max_singular_negative(self):
        st = make_state(StateSpec("p_max"))
        fld = filtered_p_gaussian_grid(st.gaussian_xp, 2.0, self.GRID)
        val, loc = negativity_scan(fld)
        assert val < 0

    def test_filtered_spats_negative(self):
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        fld = filtered_p_numeric(st, 2.0, self.GRID)
        val, loc = negativity_scan(fld)
        assert val < 0
        assert abs(loc) < 1.0  # negativity sits near the origin

    def test_residue_guard(self):
        fld = PhaseField("alpha", grid=self.GRID,
                         values=np.ones((161, 161), dtype=complex), imag_residue=1e-3)
        with pytest.raises(ComplexResidueError):
            negativity_scan(fld)

    def test_transposed_field_keeps_row_major_ties(self):
        # a field in either memory layout sends ties to the first node in
        # row-major order
        vals = np.zeros((161, 161), dtype=complex)
        vals[40, 7] = vals[3, 90] = vals[3, 100] = -1.0
        for v in (vals, np.asfortranarray(vals)):
            assert negativity_scan(PhaseField("alpha", grid=self.GRID, values=v)) == (
                -1.0, self.GRID.mesh()[3, 90])

    def test_tie_breaks_lexicographic(self):
        vals = np.zeros((161, 161), dtype=complex)
        fld = PhaseField("alpha", grid=self.GRID, values=vals)
        _, loc = negativity_scan(fld)
        assert loc == complex(-4.0, -4.0)

    @pytest.mark.parametrize("grid", [GRID, PhaseGrid(4.0, 321), PhaseGrid(3.0, 100)],
                             ids=["4,161", "4,321", "3,100"])
    def test_location_is_the_mesh_node(self, grid):
        n = grid.resolution
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((n, n))
        tied = vals.copy()
        tied[n // 3, n - 2] = tied[n - 1, 1] = tied[n // 3, n - 1] = vals.min() - 1.0
        mesh = grid.mesh().ravel()
        for v in (vals, tied):
            val, loc = negativity_scan(PhaseField("alpha", grid=grid, values=v.astype(complex)))
            idx = int(np.argmin(v))
            assert val == v.min()
            assert loc == mesh[idx]
            assert (math.copysign(1, loc.real), math.copysign(1, loc.imag)) == (
                math.copysign(1, mesh[idx].real), math.copysign(1, mesh[idx].imag))
        assert loc == grid.mesh()[n // 3, n - 2]

    @pytest.mark.parametrize("grid", [PhaseGrid(4.0, 321), PhaseGrid(4.0, 481),
                                      PhaseGrid(4.0, 101), PhaseGrid(3.0, 100)],
                             ids=["4,321", "4,481", "4,101", "3,100"])
    @pytest.mark.parametrize("spec", [
        StateSpec("p_max"),
        StateSpec("squeezed", {"xi": 0.7}),
        StateSpec("squeezed", {"xi": 1.4}),
        StateSpec("thermal", {"nbar": 0.5}),
    ], ids=["p_max", "squeezed0.7", "squeezed1.4", "thermal"])
    def test_centred_gaussian_field_is_a_mirror_image(self, spec, grid):
        # at centre 0 the Gaussian route mirrors its non-negative quadrant
        # out, so the field is exact under x -> -x and p -> -p, and under
        # x <-> p for a circular Gaussian; the minimum lands at x <= 0, p <= 0
        st = make_state(spec)
        fld = filtered_p_gaussian_grid(st.gaussian_xp, 2.0, grid)
        v = fld.values
        np.testing.assert_array_equal(v, v[::-1])
        np.testing.assert_array_equal(v, v[:, ::-1])
        if st.radial:
            np.testing.assert_array_equal(v, v.T)
        _, loc = negativity_scan(fld)
        assert loc.real <= 0 and loc.imag <= 0

    @pytest.mark.parametrize("grid", [PhaseGrid(4.0, 321), PhaseGrid(3.0, 100),
                                      PhaseGrid(2.0, 21)], ids=["4,321", "3,100", "2,21"])
    @pytest.mark.parametrize("spec", [
        StateSpec("fock_element", {"m": 1, "n": 1}),
        StateSpec("spats", {"nbar": 1.3}),
        StateSpec("cauchy_lorentz_ncl", {"t": 1.5}),
    ], ids=["fock-1", "spats", "lorentz_ncl"])
    def test_centred_radial_minimum_at_non_positive_x_and_p(self, spec, grid):
        # the filtered field of a centred radial state is an exact mirror
        # image in x and in p, so its minimum ties with its mirror nodes and
        # the first row-major node of the tie set has x <= 0 and p <= 0; at
        # w = 1 the minimum is away from the axes
        fld = filtered_p_numeric(make_state(spec), 1.0, grid)
        val, loc = negativity_scan(fld)
        assert loc.real < 0 and loc.imag < 0
        n = grid.resolution
        i, j = (int(np.argmin(np.abs(grid.axis() - t))) for t in (loc.real, loc.imag))
        mirrors = fld.values[[i, n - 1 - i, i, n - 1 - i], [j, j, n - 1 - j, n - 1 - j]]
        assert np.all(mirrors == val)


class TestAdmissibility:
    def test_gaussian_threshold(self):
        f = TaylorField.from_exp_quadratic(-1.0)
        # passes at and above 1/sqrt(2), fails below with first order (1,1)
        assert admissible_check(f, 0.75, 60).admissible
        res = admissible_check(f, 0.70, 60)
        assert not res.admissible
        assert res.first_violation == (1, 1)

    def test_constant_admissible_at_zero(self):
        assert admissible_check(TaylorField.constant(1.0), 0.0, 30).admissible

    def test_strongly_growing_function_fails_any_c(self):
        f = TaylorField.from_exp_quadratic(2.0)
        for c in (0.3, 0.7, 0.9, 0.99):
            res = admissible_check(f, c, 40)
            assert not res.admissible
            assert res.first_violation == (1, 1)

    def test_unit_coefficient_edge_case(self):
        # a[n,n] = n! sits exactly on the bound at C = 1/sqrt(2)
        f = TaylorField.from_exp_quadratic(1.0)
        assert admissible_check(f, 1.0 / math.sqrt(2.0) + 1e-12, 40).admissible
        assert not admissible_check(f, 0.70, 40).admissible

    def test_admissible_implies_analytic_bound(self):
        # (sqrt(2) C)^(n+m) sqrt(n! m!) <= M C'^(n+m) n! m! with M=1, C'=sqrt(2)C
        for cval, f in [(0.75, TaylorField.from_exp_quadratic(-1.0)),
                        (0.5, TaylorField.constant(1.0))]:
            assert admissible_check(f, cval, 40).admissible
            cprime = math.sqrt(2.0) * cval
            for n in range(0, 41, 5):
                a = abs(f.coefficient(n, n))
                bound = cprime ** (2 * n) * math.factorial(n) ** 2
                assert a <= bound + 1e-9

    @staticmethod
    def reference_check(f, c, order):
        """The scan entry by entry: total order, then m."""
        log_sqrt2c = math.log(math.sqrt(2.0) * c)
        for total in range(0, 2 * order + 1):
            for m in range(max(0, total - order), min(order, total) + 1):
                n = total - m
                a = f.coefficient(m, n)
                if a == 0:
                    continue
                log_bound = total * log_sqrt2c + 0.5 * (gammaln(m + 1) + gammaln(n + 1))
                if math.log(abs(a)) > log_bound + 1.0e-12:
                    return False, (m, n)
        return True, None

    @pytest.mark.parametrize("field", [
        TaylorField.displaced_gaussian(0.7, 1.3),
        TaylorField.displaced_gaussian(2.0, 0.5, amplitude=-3.0),
        TaylorField.displaced_gaussian(4.0, 1.0),
        TaylorField.from_exp_quadratic(-1.0).perturbed(TaylorField.displaced_gaussian(1.5, 2.0)),
        TaylorField.from_exp_quadratic(-0.25).perturbed(TaylorField.constant(-2.0)),
        TaylorField.from_exp_quadratic(-1.0),
        TaylorField.from_exp_quadratic(1.0),
        TaylorField.from_exp_quadratic(2.0),
        TaylorField.alternating(0.6, 0.9),
    ], ids=["bump-0.7", "bump-2-negative", "bump-4", "gauss+bump", "gauss+constant",
            "exp-1", "exp+1", "exp+2", "alternating"])
    @pytest.mark.parametrize("c", [0.3, 0.7, 1.0 / math.sqrt(2.0) - 1e-9,
                                   1.0 / math.sqrt(2.0) + 1e-9, 0.95])
    def test_table_matches_the_entry_scan(self, field, c):
        # exp(-|alpha|^2) sits on its threshold C = 1/sqrt(2); the bumps
        # violate at many entries, so the scan order decides the answer
        for order in (0, 3, 30):
            res = admissible_check(field, c, order)
            assert (res.admissible, res.first_violation) == self.reference_check(field, c, order)

    def test_the_first_violation_is_in_scan_order(self):
        # a bump violates at many entries; the first is the least total
        # order, then the least m
        f = TaylorField.displaced_gaussian(4.0, 1.0)
        table = np.abs(f.coefficients(20))
        res = admissible_check(f, 0.3, 20)
        m, n = res.first_violation
        assert table[m, n] > (math.sqrt(2.0) * 0.3) ** (m + n) * math.sqrt(
            math.factorial(m) * math.factorial(n))
        assert m + n > 0

    def test_origin_bound_at_zero_c(self):
        # at C = 0 the bound on a[0, 0] is 0^0 = 1; the entry scan's
        # 0 * log 0 was nan there, which no entry exceeds
        assert not admissible_check(TaylorField.constant(-2.5), 0.0, 5).admissible
        assert admissible_check(TaylorField.constant(-2.5), 0.0, 5).first_violation == (0, 0)
        assert admissible_check(TaylorField.constant(-1.0), 0.0, 5).admissible


class TestPairingBound:
    def test_values(self):
        assert pmax_pairing_bound(0.0) == 1.0
        assert pmax_pairing_bound(1.0 / math.sqrt(2.0)) == pytest.approx(2.0)
        assert pmax_pairing_bound(0.9) == pytest.approx(1.0 / 0.19, rel=1e-12)
        with pytest.raises(ParameterError):
            pmax_pairing_bound(1.0)

    def test_gaussian_saturates_bound(self):
        # width-1 Gaussian is admissible exactly at C = 1/sqrt(2) and its
        # worst-case pairing value 2 meets the bound
        series = exp_laplace_series(-0.5, 400)
        val = abs(pair(series, TaylorField.from_exp_quadratic(-1.0)).value)
        assert val == pytest.approx(pmax_pairing_bound(1.0 / math.sqrt(2.0)), rel=1e-12)

    def test_bound_holds_over_catalog(self):
        series = exp_laplace_series(-0.5, 400)
        catalog = [
            (0.0, TaylorField.constant(1.0)),
            (1.0 / math.sqrt(2.0), TaylorField.from_exp_quadratic(-1.0)),
            (0.5, TaylorField.from_exp_quadratic(-0.5)),       # C = 1/sqrt(2 sigma^2)
            (1.0 / math.sqrt(8.0), TaylorField.from_exp_quadratic(-0.25)),
            (0.6, TaylorField.alternating(0.6, 0.9)),
        ]
        for cval, f in catalog:
            if cval > 0:
                assert admissible_check(f, min(cval + 1e-9, 0.999), 40).admissible
            val = abs(pair(series, f).value)
            assert val <= pmax_pairing_bound(cval) + 1e-9, f.label

    def test_alternating_family_approaches_bound(self):
        series = exp_laplace_series(-0.5, 2000)
        cval = 0.8
        vals = []
        for theta in (0.9, 0.99, 0.999):
            f = TaylorField.alternating(cval, theta, max_order=2000)
            vals.append(abs(pair(series, f).value))
        bound = pmax_pairing_bound(cval)
        assert vals[0] < vals[1] < vals[2] <= bound + 1e-9
        assert bound - vals[2] < 0.01 * bound


class TestRadiusEstimate:
    def test_zero_constant(self):
        assert radius_estimate(0.0, [10, 20]) == [0.0, 0.0]

    def test_decreasing_and_bounded(self):
        ests = radius_estimate(0.9, [50, 100, 200])
        assert ests[0] > ests[1] > ests[2]
        for l, e in zip([50, 100, 200], ests):
            assert e <= radius_estimate_bound(0.9, l) + 1e-12
        assert radius_estimate_bound(0.9, 200) == pytest.approx(0.21, abs=0.01)

    def test_c_half_triple(self):
        ests = radius_estimate(0.5, [50, 100, 200])
        assert ests[0] > ests[1] > ests[2]


class TestDivergenceDemo:
    def test_term_ratio_formula(self):
        demo = analytic_divergence_demo(1.0, 15)
        # ratio of term n to term n-1 is n C^2 / 2
        assert demo.term_ratios[9] == pytest.approx(5.0)

    def test_c_zero_constant_sums(self):
        demo = analytic_divergence_demo(0.0, 10)
        assert all(s == 0.0 for s in demo.log10_partial_sums)
        assert demo.first_index_above_1e6 is None

    def test_crossing_index_against_direct_summation(self):
        c = 0.5
        total, term, crossing = 0.0, 1.0, None
        for n in range(0, 200):
            if n > 0:
                term *= n * c * c / 2.0
            total += term
            if crossing is None and total > 1e6:
                crossing = n
        demo = analytic_divergence_demo(c, 200)
        assert demo.first_index_above_1e6 == crossing
        # super-exponential growth: ratios increase without bound
        assert demo.term_ratios[-1] > demo.term_ratios[10] > 1.0


class TestClassify:
    def test_classical_states_never_certified(self):
        classical = [
            StateSpec("fock_element", {"m": 0, "n": 0}),
            StateSpec("thermal", {"nbar": 0.5}),
            StateSpec("cauchy_lorentz", {"t": 3.0}),
            StateSpec("cauchy_lorentz", {"t": 1.0}),
            StateSpec("fock_element", {"m": 0, "n": 0}, displacement=0.7 - 0.2j),
            # moments below 1e-5, where the rescaled Hankel matrix alone is unsafe
            StateSpec("thermal", {"nbar": 1e-7}),
            StateSpec("thermal", {"nbar": 3.5e-7}),
            StateSpec("thermal", {"nbar": 1e-6}),
        ]
        for spec in classical:
            rep = classify(make_state(spec))
            assert not rep.certified, spec.kind
            assert rep.overall == VERDICT_CONSISTENT

    def test_squeezed_certified(self):
        rep = classify(make_state(StateSpec("squeezed", {"xi": 1.4})))
        assert rep.certified
        assert rep.entry("characteristic_function").verdict == VERDICT_CERTIFIED
        assert rep.entry("filtered_negativity").verdict == VERDICT_CERTIFIED

    def test_thermal_all_consistent(self):
        rep = classify(make_state(StateSpec("thermal", {"nbar": 0.5})))
        assert [e.verdict for e in rep.entries] == [VERDICT_CONSISTENT] * 4

    def test_heavy_tail_ncl_certified_via_vacuum(self):
        rep = classify(make_state(StateSpec("cauchy_lorentz_ncl", {"t": 1.0})))
        assert rep.certified
        assert rep.entry("vacuum_probability").verdict == VERDICT_CERTIFIED
        assert rep.entry("moment_matrix").verdict == VERDICT_INAPPLICABLE

    def test_unresolved_filter_is_inapplicable_not_certified(self):
        # w = 40 on extent 10 is beyond 200 Gauss nodes per panel; this
        # classical state takes the numeric filter, which must refuse to
        # give a verdict (the fixed 200-node rule certified the coherent
        # state with a filtered minimum of -34.8).  The other criteria
        # still give theirs
        st = make_state(StateSpec("cauchy_lorentz", {"t": 3.0}, displacement=0.3))
        with pytest.raises(NonConvergenceError):
            filtered_p_numeric(st, 40.0, PhaseGrid(extent=10.0, resolution=161))
        rep = classify(st, w=40.0, grid=PhaseGrid(extent=10.0, resolution=161))
        assert rep.overall == VERDICT_CONSISTENT
        entry = rep.entry("filtered_negativity")
        assert entry.verdict == VERDICT_INAPPLICABLE
        assert entry.witness_value is None and entry.location is None
        assert entry.detail.startswith("NonConvergenceError: filtered transform at w=40 ")
        assert VERDICT_CERTIFIED not in [e.verdict for e in rep.entries]

    @pytest.mark.parametrize("xi,excess", [(6.0, 2.234e5), (10.0, 0.0)])
    def test_rotated_strong_squeezing_gets_a_report(self, xi, excess):
        # the filter rule does not converge on either rotated Gaussian.  At
        # xi = 6 the excess of |Phi| over 1 certifies the state; at xi = 10
        # the anti-squeezed ridge exp(-2.4e8 x'^2) passes between the scan
        # nodes, and the scan reads 0 at the origin
        rep = classify(make_state(StateSpec("squeezed", {"xi": xi}, rotation=0.7)))
        scan = rep.entry("characteristic_function")
        assert scan.witness_value == pytest.approx(excess, rel=0.01, abs=0.0)
        assert rep.certified is (excess > 0) and scan.verdict == rep.overall
        entry = rep.entry("filtered_negativity")
        assert entry.verdict == VERDICT_INAPPLICABLE
        assert entry.detail.startswith("NonConvergenceError: filtered transform at w=2 ")

    def test_coherent_state_takes_the_analytic_filter_at_any_width(self):
        # the translated closed form needs no quadrature, so w = 40 on extent
        # 10, which the numeric filter cannot resolve, still gets a verdict
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=0.3))
        rep = classify(st, w=40.0, grid=PhaseGrid(extent=10.0, resolution=161))
        assert rep.overall == VERDICT_CONSISTENT
        assert rep.entry("filtered_negativity").verdict == VERDICT_CONSISTENT

    @pytest.mark.parametrize("quad_error,verdict", [(1.0e-8, VERDICT_CONSISTENT),
                                                    (0.0, VERDICT_CERTIFIED)])
    def test_filtered_minimum_within_quad_error_not_certified(self, monkeypatch,
                                                              quad_error, verdict):
        grid = PhaseGrid(extent=4.0, resolution=21)
        values = np.zeros((21, 21), dtype=complex)
        values[3, 4] = -(CERTIFICATION_MARGIN + 0.5e-8)

        def fake_filter(state, kernel, grid):
            return PhaseField("alpha", grid=grid, values=values, quad_error=quad_error)

        monkeypatch.setattr(filters, "filtered_p_numeric", fake_filter)
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        rep = classify(st, grid=grid, beta_grid=PhaseGrid(extent=4.0, resolution=21))
        entry = rep.entry("filtered_negativity")
        assert entry.witness_value == -(CERTIFICATION_MARGIN + 0.5e-8)
        assert entry.verdict == verdict

    @pytest.mark.parametrize("spec", [
        StateSpec("fock_element", {"m": 0, "n": 2}),
        StateSpec("fock_element", {"m": 1, "n": 3}, displacement=0.4 + 0.2j),
    ], ids=["0-2", "1-3-displaced"])
    def test_non_hermitian_input_raises_complex_residue(self, spec):
        # the filtered field's imaginary part reaches 0.167 and 0.0867
        with pytest.raises(ComplexResidueError, match="imaginary residue"):
            classify(make_state(spec))

    @pytest.mark.parametrize("kind", ["cauchy_lorentz", "cauchy_lorentz_ncl"])
    def test_non_finite_phi_makes_the_filter_inapplicable(self, kind):
        # kv(100, 2|beta|) overflows at the filter's small nodes; t = 50 does
        # not.  The vacuum criterion still certifies the ncl state, and
        # nothing certifies the classical one
        expected = VERDICT_CONSISTENT if kind == "cauchy_lorentz" else VERDICT_CERTIFIED
        assert classify(make_state(StateSpec(kind, {"t": 50.0}))).overall == expected
        st = make_state(StateSpec(kind, {"t": 100.0}))
        with pytest.raises(RangeError, match=f"Phi of {kind} t=100 is not finite"):
            filtered_p_numeric(st, 2.0, PhaseGrid(extent=4.0, resolution=321))
        rep = classify(st)
        assert rep.overall == expected
        entry = rep.entry("filtered_negativity")
        assert entry.verdict == VERDICT_INAPPLICABLE and entry.witness_value is None
        assert entry.detail.startswith(f"RangeError: Phi of {kind} t=100 is not finite at ")

    def test_fock_50_is_certified(self):
        # every criterion fires; the numeric filter converges on L_50(|beta|^2),
        # which reaches 3.7e5 on the scan grid
        rep = classify(make_state(StateSpec("fock_element", {"m": 50, "n": 50})))
        assert [e.verdict for e in rep.entries] == [VERDICT_CERTIFIED] * 4

    def test_thermal_truncation_at_65_rows_is_consistent(self):
        # the 65-row cut of thermal(1) loses 2^-65; its Phi is used out to the scan's corner
        rho = fock_matrix(make_state(StateSpec("thermal", {"nbar": 1.0})), 64).matrix
        rep = classify(from_fock_matrix(rho))
        assert [e.verdict for e in rep.entries] == [VERDICT_CONSISTENT] * 4
        assert rep.entry("characteristic_function").witness_value <= 1e-12

    @pytest.mark.parametrize("scale,verdict", [(1.01, VERDICT_CONSISTENT),
                                               (0.99, VERDICT_CERTIFIED)])
    def test_phi_excess_must_clear_the_roundoff_bound(self, scale, verdict):
        # |1><1| has Phi = 1 - |beta|^2, excess 31 at the scan grid's corner
        st = from_fock_matrix(np.diag([0.0, 1.0]))
        assert st.phi_roundoff > 0
        beta_grid = PhaseGrid(extent=4.0, resolution=21)
        scan = charfn.classicality_violation(st, beta_grid)
        st.phi_roundoff = scale * scan.value / math.exp(0.5 * abs(scan.location) ** 2)
        rep = classify(st, grid=PhaseGrid(extent=4.0, resolution=21), beta_grid=beta_grid)
        entry = rep.entry("characteristic_function")
        assert entry.witness_value == scan.value and entry.verdict == verdict

    def test_report_dict_shape(self):
        rep = classify(make_state(StateSpec("thermal", {"nbar": 0.5})))
        d = rep.to_dict()
        assert d["overall"] == VERDICT_CONSISTENT
        assert len(d["entries"]) == 4
        assert {e["criterion"] for e in d["entries"]} == {
            "characteristic_function", "vacuum_probability",
            "moment_matrix", "filtered_negativity"}


# ---------------------------------------------------------------------------
# displaced and rotated classical states
# ---------------------------------------------------------------------------

CLASSICAL_BASES = [
    ("fock_element", {"m": 0, "n": 0}),
    ("thermal", {"nbar": 0.5}),
    ("thermal", {"nbar": 2.0}),
    ("thermal", {"nbar": 1e-7}),
    ("thermal", {"nbar": 3.5e-7}),
    ("thermal", {"nbar": 1e-6}),
    ("cauchy_lorentz", {"t": 3.0}),
    ("cauchy_lorentz", {"t": 5.5}),
]
DISPLACEMENTS = [0.3, 1.0, 3.0 * cmath.exp(0.4j)]
DISPLACEMENT_IDS = ["0.3", "1", "3e^0.4i"]
ROTATIONS = [0.0, 0.9]


class TestDisplacedClassicalStates:
    @pytest.mark.parametrize("rotation", ROTATIONS)
    @pytest.mark.parametrize("a0", DISPLACEMENTS, ids=DISPLACEMENT_IDS)
    @pytest.mark.parametrize("kind,params", CLASSICAL_BASES,
                             ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())))
    def test_never_certified(self, kind, params, a0, rotation):
        rep = classify(make_state(StateSpec(kind, params, displacement=a0, rotation=rotation)))
        assert [e.verdict for e in rep.entries if e.verdict == VERDICT_CERTIFIED] == []
        assert rep.overall == VERDICT_CONSISTENT

    @pytest.mark.parametrize("a0", [5.0, 6.0])
    @pytest.mark.parametrize("kind,params", [("fock_element", {"m": 0, "n": 0}),
                                             ("thermal", {"nbar": 0.5})],
                             ids=["coherent", "thermal-0.5"])
    def test_tiny_vacuum_probability_never_certified(self, kind, params, a0):
        # p0 = exp(-|a0|^2) for the coherent state: 1.4e-11 at |a0| = 5, below
        # the margin, yet only a structural zero certifies
        rep = classify(make_state(StateSpec(kind, params, displacement=a0)))
        assert 0.0 < rep.entry("vacuum_probability").witness_value < 1.0e-7
        assert rep.entry("vacuum_probability").verdict == VERDICT_CONSISTENT
        assert rep.overall == VERDICT_CONSISTENT

    @pytest.mark.parametrize("a0", [7.5, 10.0])
    def test_far_coherent_state_is_not_a_crash(self, a0):
        # moments |a0|^(2n) from the centred vacuum, p0 = exp(-|a0|^2)
        rep = classify(make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=a0)))
        assert rep.overall == VERDICT_CONSISTENT
        moments = rep.entry("moment_matrix")
        assert moments.verdict == VERDICT_CONSISTENT
        assert math.isfinite(moments.witness_value)
        vacuum = rep.entry("vacuum_probability")
        assert vacuum.verdict == VERDICT_CONSISTENT
        assert vacuum.witness_value == pytest.approx(math.exp(-a0**2), rel=1e-12)

    @pytest.mark.parametrize("rotation", ROTATIONS)
    @pytest.mark.parametrize("angle", [0.0, 2.2])
    @pytest.mark.parametrize("r0", [5.0, 6.0, 8.0, 12.0, 20.0])
    @pytest.mark.parametrize("kind,params", [("fock_element", {"m": 0, "n": 0}),
                                             ("thermal", {"nbar": 0.5}),
                                             ("thermal", {"nbar": 2.0}),
                                             ("cauchy_lorentz", {"t": 5.5})],
                             ids=["coherent", "thermal-0.5", "thermal-2", "lorentz-5.5"])
    def test_far_displacement_never_certified(self, kind, params, r0, angle, rotation):
        a0 = r0 * cmath.exp(1j * angle)
        rep = classify(make_state(StateSpec(kind, params, displacement=a0, rotation=rotation)))
        assert [e.criterion for e in rep.entries if e.verdict == VERDICT_CERTIFIED] == []
        assert all(math.isfinite(e.witness_value) for e in rep.entries)

    def test_hankel_verdict_reads_the_rescaled_matrix(self):
        # exact moments 1, |a0|^2, |a0|^4, ... of a rank-one Hankel matrix
        # with entries up to |a0|^8 = 2.1e10 leave a roundoff eigenvalue of
        # about -3.0e-6, far below -margin; rescaled, the matrix is all ones
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=19.5))
        entry = moment_matrix_test(st, 2)
        assert entry.witness_value < -1.0e-6
        assert entry.verdict == VERDICT_CONSISTENT
        assert entry.detail == "order 2 Hankel matrix of diagonal moments"

    @pytest.mark.parametrize("a0", [0.0, 3.0 * cmath.exp(0.4j), 20.0], ids=["0", "3e^0.4i", "20"])
    @pytest.mark.parametrize("t", [1e5, 1e6])
    def test_narrow_cauchy_lorentz_moments_never_certify(self, t, a0):
        # Phi = |beta|^t K_t(2|beta|) is not finite in floating point at this
        # t, so classify stops at the numeric filter; the moments stand alone
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}, displacement=a0))
        assert moment_matrix_test(st, 2).verdict == VERDICT_CONSISTENT

    def test_small_moment_error_does_not_certify(self, monkeypatch):
        # a quadrature that puts weight 1.9 on the moments of thermal
        # nbar = 3.5e-7 but keeps <:n^0:> = 1: the rescaled Hankel matrix
        # has eigenvalue -0.066, the unscaled one only roundoff
        nbar, weight = 3.5e-7, 1.9
        table = np.diag([1.0] + [weight * math.factorial(k) * nbar**k for k in range(1, 5)])
        st = make_state(StateSpec("thermal", {"nbar": nbar}))
        monkeypatch.setattr(st, "moments", lambda order: table.astype(complex))
        h = np.array([[table[j + k, j + k] for k in range(3)] for j in range(3)])
        jk = np.add.outer(np.arange(3), np.arange(3))
        assert np.linalg.eigvalsh(h / (weight * nbar) ** jk).min() < -0.06
        entry = moment_matrix_test(st, 2)
        assert -1.0e-12 < entry.witness_value < 0.0
        assert entry.verdict == VERDICT_CONSISTENT

    @pytest.mark.parametrize("rotation", ROTATIONS)
    @pytest.mark.parametrize("a0", DISPLACEMENTS, ids=DISPLACEMENT_IDS)
    @pytest.mark.parametrize("nbar", [0.5, 2.0])
    def test_displaced_thermal_moments(self, nbar, a0, rotation):
        st = make_state(StateSpec("thermal", {"nbar": nbar}, displacement=a0, rotation=rotation))
        u = abs(a0) ** 2
        assert normal_moment(st, 1) == pytest.approx(nbar + u, rel=1e-10)
        assert normal_moment(st, 2) == pytest.approx(
            2.0 * nbar**2 + 4.0 * nbar * u + u**2, rel=1e-10)

    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_displaced_squeezed_moments_against_displaced_fock_oracle(self, rotation):
        # Tr(U rho U^dag a^dag^k a^k), U = expm(a0 a^dag - conj(a0) a) at cutoff 200
        xi, a0, K = 1.0, 3.0 * cmath.exp(0.4j), 200
        rho = fock_matrix(make_state(StateSpec("squeezed", {"xi": xi}, rotation=rotation)), K).matrix
        a = np.diag(np.sqrt(np.arange(1.0, K + 1)), 1)
        u = expm(a0 * a.T - np.conj(a0) * a)
        diag = np.real(np.diag(u @ rho @ u.conj().T))
        st = make_state(StateSpec("squeezed", {"xi": xi}, displacement=a0, rotation=rotation))
        assert normal_moment(st, 1) == pytest.approx(math.sinh(xi) ** 2 + 9.0, rel=1e-12)
        assert normal_moment(st, 1) == pytest.approx(10.381098, abs=1e-6)
        for k in range(1, 5):
            falling = np.array([float(math.perm(n, k)) for n in range(K + 1)])
            assert normal_moment(st, k) == pytest.approx(diag @ falling, rel=1e-11)

    @pytest.mark.parametrize("a0", DISPLACEMENTS, ids=DISPLACEMENT_IDS)
    def test_displaced_pmax_moments(self, a0):
        gamma, u = -0.5, abs(a0) ** 2
        st = make_state(StateSpec("p_max", displacement=a0, rotation=0.9))
        assert normal_moment(st, 1) == pytest.approx(u + gamma, rel=1e-12)
        assert normal_moment(st, 2) == pytest.approx(
            2.0 * gamma**2 + 4.0 * gamma * u + u**2, rel=1e-12)

    @pytest.mark.parametrize("a0", DISPLACEMENTS, ids=DISPLACEMENT_IDS)
    def test_displaced_ncl_moments_count_the_atom(self, a0):
        t = 3.0
        norm = vacuum_probability(make_state(StateSpec("cauchy_lorentz", {"t": t})))
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": t}, displacement=a0, rotation=0.9))
        assert normal_moment(st, 1) == pytest.approx(
            1.0 / ((1.0 - norm) * (t - 1.0)) + abs(a0) ** 2, rel=1e-10)
        assert normal_moment(st, 3) is DIVERGED
