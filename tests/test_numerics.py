"""Tests for the phase-plane calculus: transforms, quadrature, error function."""

import math

import mpmath
import numpy as np
import pytest

from gsphase.errors import (
    NonConvergenceError,
    ParameterError,
    RangeError,
    ResolutionError,
    TruncationError,
)
from gsphase.numerics import (
    MAX_GRID_RESOLUTION,
    Cartesian,
    PhaseField,
    PhaseGrid,
    PhasePoint,
    Radial,
    delta_field,
    erf_complex,
    erfcx_complex,
    fourier_forward,
    fourier_inverse,
    quad2d,
    read_field_csv,
    wirtinger_from_xp,
    write_field_csv,
)

RNG = np.random.default_rng(20250810)


def random_beta(n, radius=2.0):
    pts = RNG.uniform(-radius, radius, size=(n, 2))
    return pts[:, 0] + 1j * pts[:, 1]


class TestPhasePoint:
    def test_roundtrip_exact(self):
        pt = PhasePoint(0.125, -2.5)
        assert pt.alpha == 0.125 - 2.5j
        back = PhasePoint.from_alpha(pt.alpha)
        assert back == pt

    def test_grid_origin_is_node(self):
        grid = PhaseGrid(extent=4.0, resolution=41)
        assert 0.0 in grid.axis()
        assert grid.spacing == pytest.approx(8.0 / 40)


class TestFourier:
    def test_gaussian_forward_closed_form(self):
        # exp(-|a|^2)  ->  pi exp(-|b|^2)
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2))
        out = fourier_forward(f)
        betas = random_beta(20)
        expected = math.pi * np.exp(-np.abs(betas) ** 2)
        np.testing.assert_allclose(out(betas), expected, atol=1e-8)

    def test_gaussian_forward_vs_quad2d_oracle(self):
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2))
        out = fourier_forward(f)
        for b in random_beta(20):
            oracle = quad2d(
                lambda a: np.exp(-np.abs(a) ** 2) * np.exp(b * np.conj(a) - np.conj(b) * a),
                Cartesian.square(7.0), tol=1e-12,
            )
            assert abs(out(b) - oracle.value) < 1e-8

    def test_thermal_regular_density_forward(self):
        nbar = 0.5
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2 / nbar) / (math.pi * nbar))
        out = fourier_forward(f)
        betas = random_beta(20)
        np.testing.assert_allclose(out(betas), np.exp(-nbar * np.abs(betas) ** 2), atol=1e-8)

    def test_delta_transforms_to_one(self):
        out = fourier_forward(delta_field())
        betas = random_beta(10, radius=5.0)
        np.testing.assert_allclose(out(betas), 1.0)

    def test_inverse_gaussian_closed_form(self):
        # exp(-nbar |b|^2)  ->  exp(-|a|^2/nbar) / (pi nbar)
        nbar = 0.5
        f = PhaseField("beta", fn=lambda b: np.exp(-nbar * np.abs(b) ** 2))
        out = fourier_inverse(f, grid=PhaseGrid(extent=8.0, resolution=257))
        alphas = random_beta(20)
        expected = np.exp(-np.abs(alphas) ** 2 / nbar) / (math.pi * nbar)
        np.testing.assert_allclose(out(alphas), expected, atol=1e-8)

    def test_inverse_of_constant_is_unit_mass_spike(self):
        grid = PhaseGrid(extent=6.0, resolution=121)
        f = PhaseField("beta", fn=lambda b: np.ones_like(b, dtype=complex), grid=grid,
                       values=np.ones((121, 121), dtype=complex))
        out_grid = PhaseGrid(extent=6.0, resolution=121)
        out = fourier_inverse(f, boundary_tol=2.0, out_grid=out_grid)
        vals = np.real(out.values)
        peak = np.unravel_index(np.argmax(vals), vals.shape)
        assert peak == (60, 60)  # origin
        mass = vals.sum() * out_grid.spacing**2
        assert abs(mass - 1.0) < 0.02

    def test_round_trip(self):
        # exp(-|a|^2 + 0.3 a - 0.3 a*) = exp(-|a|^2) * exp(0.6 i Im a)
        def f(a):
            return np.exp(-np.abs(a) ** 2 + 0.3 * a - 0.3 * np.conj(a))

        fld = PhaseField("alpha", fn=f)
        fwd = fourier_forward(fld, grid=PhaseGrid(extent=6.0, resolution=257))
        bgrid = PhaseGrid(extent=6.0, resolution=257)
        fwd_sampled = PhaseField("beta", grid=bgrid, values=fwd(bgrid.mesh()))
        back = fourier_inverse(fwd_sampled)
        alphas = random_beta(30, radius=1.5)
        np.testing.assert_allclose(back(alphas), f(alphas), atol=1e-8)

    def test_truncation_error_on_wide_function(self):
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2 / 100.0))
        with pytest.raises(TruncationError):
            fourier_forward(f, grid=PhaseGrid(extent=6.0, resolution=129))

    def test_nyquist_resolution_error(self):
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2))
        out = fourier_forward(f, grid=PhaseGrid(extent=6.0, resolution=65))
        with pytest.raises(ResolutionError):
            out(40.0 + 0j)

    def test_parseval_pairing(self):
        # Int P F (alpha side) == (1/pi^2) Int Phi conj(Ftilde) (beta side)
        nbar = 0.5
        p_fn = lambda a: np.exp(-np.abs(a) ** 2 / nbar) / (math.pi * nbar)
        f_fn = lambda a: np.exp(-np.abs(a) ** 2)
        lhs = quad2d(lambda a: p_fn(a) * f_fn(a), Cartesian.square(7.0), tol=1e-12).value
        phi = fourier_forward(PhaseField("alpha", fn=p_fn))
        f_t = fourier_forward(PhaseField("alpha", fn=f_fn))
        rhs = quad2d(
            lambda b: phi(b) * np.conj(f_t(b)) / math.pi**2,
            Cartesian.square(5.0), tol=1e-10,
        ).value
        assert abs(lhs - rhs) < 1e-6


def gaussian_bump(a):
    return np.exp(-np.abs(a - 0.3) ** 2) * (1 + 0.2j * a)


class TestFourierMeshRoute:
    def _forward(self):
        f = PhaseField("alpha", fn=gaussian_bump)
        out_grid = PhaseGrid(extent=2.0, resolution=9)
        return fourier_forward(f, grid=PhaseGrid(extent=6.0, resolution=65),
                               out_grid=out_grid), out_grid

    def test_mesh_equals_scattered_and_out_grid(self):
        fwd, out_grid = self._forward()
        mesh = out_grid.mesh()
        on_mesh = fwd(mesh)
        scattered = np.array([fwd(complex(t)) for t in mesh.ravel()]).reshape(mesh.shape)
        np.testing.assert_allclose(on_mesh, scattered, rtol=0, atol=1e-12)
        np.testing.assert_allclose(on_mesh, fwd.values, rtol=0, atol=1e-12)

    def test_non_separable_targets_take_the_scattered_route(self, monkeypatch):
        import gsphase.numerics as numerics
        fwd, out_grid = self._forward()
        calls = []
        original = numerics._separable_product
        monkeypatch.setattr(numerics, "_separable_product",
                            lambda *a: calls.append(1) or original(*a))
        mesh = out_grid.mesh()
        fwd(mesh)
        assert calls == [1]
        targets = mesh.T.copy()       # real part now varies along rows
        targets[0, 0] += 0.01
        got = fwd(targets)
        assert calls == [1]
        np.testing.assert_allclose(got, fwd(targets.ravel()).reshape(targets.shape),
                                   rtol=0, atol=0)
        expected = np.array([fwd(complex(t)) for t in targets.ravel()])
        np.testing.assert_allclose(got.ravel(), expected, rtol=0, atol=1e-12)


def direct_sum(samples, grid, prefactor, targets):
    """The transform sum at each target, one float64 complex exponential per node."""
    ax, wt = grid.axis(), grid.trapezoid_weights()
    w = samples * wt[:, None] * wt[None, :]
    t = np.asarray(targets, dtype=complex).ravel()
    kernel = np.exp(2j * (np.multiply.outer(t.imag, ax)[:, :, None]
                          - np.multiply.outer(t.real, ax)[:, None, :]))
    return prefactor * np.einsum("mij,ij->m", kernel, w).reshape(np.shape(targets))


@pytest.mark.parametrize("n", [65, 64], ids=["odd", "even"])
class TestFoldedTransform:
    """Every route of the folded real-arithmetic sum against the direct sum.

    The tolerance is 1e-12 times the field's largest magnitude, its value at
    the origin: targets far out in the band have values near roundoff.
    """

    def _targets(self, grid):
        edge = grid.nyquist / 2.0      # 2 |Re t| = 2 |Im t| = Nyquist
        corners = np.array([0.0, edge + 1j * edge, -edge - 1j * edge, edge - 0.3j * edge,
                            -0.7 * edge + 1j * edge, edge, -1j * edge])
        inner = RNG.uniform(-edge, edge, 40) + 1j * RNG.uniform(-edge, edge, 40)
        return np.concatenate([corners, inner])

    def _check(self, got, want, peak):
        assert np.max(np.abs(got - want)) <= 1e-12 * peak

    def _peak(self, samples, grid, prefactor):
        return abs(direct_sum(samples, grid, prefactor, np.zeros(1))[0])

    def test_forward_routes_match_direct_sum(self, n):
        grid = PhaseGrid(extent=6.0, resolution=n)
        out_grid = PhaseGrid(extent=2.0, resolution=n // 4 + 1)
        fwd = fourier_forward(PhaseField("alpha", fn=gaussian_bump), grid=grid,
                              out_grid=out_grid)
        samples = gaussian_bump(grid.mesh())
        peak = self._peak(samples, grid, 1.0)
        targets = self._targets(grid)
        self._check(fwd(targets), direct_sum(samples, grid, 1.0, targets), peak)
        mesh = out_grid.mesh()
        want = direct_sum(samples, grid, 1.0, mesh)
        self._check(fwd(mesh), want, peak)
        self._check(fwd.values, want, peak)

    def test_inverse_routes_match_direct_sum(self, n):
        grid = PhaseGrid(extent=6.0, resolution=n)
        samples = gaussian_bump(grid.mesh()).conj()
        field = PhaseField("beta", grid=grid, values=samples)
        out_grid = PhaseGrid(extent=grid.nyquist / 2.0, resolution=17)  # on the band edge
        inv = fourier_inverse(field, out_grid=out_grid)
        pref = 1.0 / math.pi**2
        peak = self._peak(samples, grid, pref)
        targets = self._targets(grid)
        self._check(inv(targets), direct_sum(samples, grid, pref, targets), peak)
        want = direct_sum(samples, grid, pref, out_grid.mesh())
        self._check(inv.values, want, peak)
        self._check(inv(out_grid.mesh()), want, peak)

    def test_chunks_equal_chunk_by_chunk_evaluation(self, n):
        from gsphase.numerics import _TARGET_CHUNK as chunk
        grid = PhaseGrid(extent=6.0, resolution=n)
        fwd = fourier_forward(PhaseField("alpha", fn=gaussian_bump), grid=grid)
        edge = grid.nyquist / 2.0
        m = 2 * chunk + chunk // 2
        targets = RNG.uniform(-edge, edge, m) + 1j * RNG.uniform(-edge, edge, m)
        whole = fwd(targets)
        pieces = np.concatenate([fwd(targets[i:i + chunk]) for i in range(0, m, chunk)])
        np.testing.assert_array_equal(whole, pieces)
        samples = gaussian_bump(grid.mesh())
        self._check(whole, direct_sum(samples, grid, 1.0, targets),
                    self._peak(samples, grid, 1.0))


class TestTransformInputs:
    def test_non_finite_samples_raise(self):
        grid = PhaseGrid(extent=6.0, resolution=257)
        near = np.abs(grid.mesh()) < 0.1
        f = PhaseField("alpha", fn=lambda a: np.where(np.abs(a) < 0.1, np.nan,
                                                      np.exp(-np.abs(a) ** 2)))
        with pytest.raises(RangeError, match=f"not finite at {np.count_nonzero(near)} of "
                                             f"{grid.resolution ** 2} grid nodes"):
            fourier_forward(f, grid=grid)
        values = np.exp(-np.abs(grid.mesh()) ** 2).astype(complex)
        values[3, 4] = complex(0.0, np.inf)
        with pytest.raises(RangeError, match="not finite at 1 of"):
            fourier_inverse(PhaseField("beta", grid=grid, values=values))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (5,), (4, 4)])
    def test_samples_off_the_grid_raise(self, shape):
        # a (1, 5) array would broadcast to a field constant along one axis
        f = PhaseField("beta", grid=PhaseGrid(extent=6.0, resolution=5),
                       values=np.full(shape, 1e-12, dtype=complex))
        with pytest.raises(ParameterError, match="do not match the 5x5 grid"):
            fourier_inverse(f)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                     complex(-np.inf, 1.0)])
    def test_non_finite_targets_raise(self, bad):
        f = PhaseField("alpha", fn=lambda a: np.exp(-np.abs(a) ** 2))
        fwd = fourier_forward(f, grid=PhaseGrid(extent=6.0, resolution=65))
        with pytest.raises(ParameterError, match="1 of 3 transform targets"):
            fwd(np.array([0.5, bad, 0.25j]))
        mesh = PhaseGrid(extent=1.0, resolution=5).mesh()
        mesh[2, 2] = bad
        with pytest.raises(ParameterError, match="not finite"):
            fwd(mesh)


class TestPhaseGridBounds:
    @pytest.mark.parametrize("extent", [np.nan, np.inf, -np.inf, 0.0, -1.0, "6"])
    def test_bad_extent(self, extent):
        with pytest.raises(ParameterError, match="extent"):
            PhaseGrid(extent=extent, resolution=5)

    @pytest.mark.parametrize("resolution", [2.5, 5.0, 1, 0, -3, MAX_GRID_RESOLUTION + 1])
    def test_bad_resolution(self, resolution):
        with pytest.raises(ParameterError, match="resolution"):
            PhaseGrid(extent=6.0, resolution=resolution)

    def test_bounds_accepted(self):
        assert PhaseGrid(6.0, 2).axis().tolist() == [-6.0, 6.0]
        assert PhaseGrid(6.0, MAX_GRID_RESOLUTION).resolution == MAX_GRID_RESOLUTION
        assert PhaseGrid(np.float64(4.0), np.int64(5)).spacing == 2.0


class TestQuad2d:
    def test_gaussian_integral(self):
        res = quad2d(lambda a: np.exp(-np.abs(a) ** 2), Cartesian.square(7.0), tol=1e-12)
        assert abs(res.value - math.pi) < 1e-10
        assert abs(res.value - math.pi) <= res.error + 1e-13

    def test_radial_half_width_gaussian(self):
        res = quad2d(lambda b: np.exp(-np.abs(b) ** 2 / 2.0), Radial(), tol=1e-12)
        assert abs(res.value - 2.0 * math.pi) < 1e-10
        assert abs(res.value - 2.0 * math.pi) <= res.error + 1e-12

    def test_lorentz_density_normalization(self):
        t = 3.0
        res = quad2d(
            lambda a: (t / math.pi) * (1.0 + np.abs(a) ** 2) ** (-(1.0 + t)),
            Radial(), tol=1e-10,
        )
        assert abs(res.value - 1.0) < 1e-8

    def test_divergent_integrand_raises(self):
        with pytest.raises(NonConvergenceError):
            quad2d(lambda a: 1.0 / (1.0 + np.abs(a) ** 2), Radial(), tol=1e-10)


class TestWirtinger:
    def test_modulus_squared_closed_form(self):
        # |alpha|^2 has d/dx = 2x, d/dp = 2p; the combination gives a*, a
        for alpha in random_beta(10):
            d_a, d_as = wirtinger_from_xp(2.0 * alpha.real, 2.0 * alpha.imag)
            assert d_a == np.conj(alpha)
            assert d_as == alpha

    def test_against_finite_differences(self):
        # central differences with one Richardson step as the oracle
        f = lambda a: np.abs(a) ** 2

        def fd(alpha, h=1e-4):
            def partial(step):
                dx = (f(alpha + step) - f(alpha - step)) / (2 * abs(step))
                return dx
            dx1, dx2 = partial(h), partial(h / 2)
            dfdx = (4 * dx2 - dx1) / 3
            dp1 = (f(alpha + 1j * h) - f(alpha - 1j * h)) / (2 * h)
            dp2 = (f(alpha + 0.5j * h) - f(alpha - 0.5j * h)) / h
            dfdp = (4 * dp2 - dp1) / 3
            return dfdx, dfdp

        for alpha in random_beta(5):
            dfdx, dfdp = fd(alpha)
            d_a, d_as = wirtinger_from_xp(dfdx, dfdp)
            assert abs(d_a - np.conj(alpha)) < 1e-9
            assert abs(d_as - alpha) < 1e-9


class TestErf:
    def test_zero(self):
        assert erf_complex(0.0) == 0.0

    def test_erf_one_against_series_oracle(self):
        # direct summation of (2/sqrt(pi)) sum (-1)^n / (n! (2n+1))
        total, term = 0.0, 1.0
        n = 0
        while abs(term) > 1e-20:
            term = (-1.0) ** n / (math.factorial(n) * (2 * n + 1))
            total += term
            n += 1
        oracle = 2.0 / math.sqrt(math.pi) * total
        assert abs(erf_complex(1.0) - oracle) < 1e-12
        assert abs(erf_complex(1.0) - 0.842700792949715) < 1e-12

    def test_symmetries_at_random_points(self):
        zs = (RNG.uniform(-4, 4, size=(50, 2)) * np.array([1, 1])).view(float)
        zs = RNG.uniform(-4, 4, 50) + 1j * RNG.uniform(-4, 4, 50)
        for z in zs:
            w = erf_complex(z)
            assert abs(erf_complex(-z) + w) < 1e-13 * max(1.0, abs(w))
            assert abs(erf_complex(np.conj(z)) - np.conj(w)) < 1e-13 * max(1.0, abs(w))

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.2, 3.3, 4.5, 5.5, 6.5, 10.0, 18.0])
    def test_against_mpmath_rings(self, radius):
        mpmath.mp.dps = 30
        angles = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
        for th in angles:
            z = radius * complex(math.cos(th), math.sin(th))
            ours = erf_complex(z)
            ref = complex(mpmath.erf(mpmath.mpc(z.real, z.imag)))
            scale = max(1.0, abs(ref))
            assert abs(ours - ref) / scale < 5e-13, f"z={z}"

    def test_erfcx_against_mpmath(self):
        mpmath.mp.dps = 30
        for z in [0.3 + 0.1j, 2.5 + 0.5j, 1.0 + 4.0j, 0.1 + 5.0j, 7.0 + 7.0j, 14.0 + 0.5j, 0.0 + 9.0j]:
            ours = erfcx_complex(z)
            ref = complex(mpmath.exp(mpmath.mpc(z.real, z.imag) ** 2)
                          * mpmath.erfc(mpmath.mpc(z.real, z.imag)))
            assert abs(ours - ref) / max(1.0, abs(ref)) < 1e-12, f"z={z}"

    def test_stable_range_documented_and_enforced(self):
        from gsphase.numerics import ERF_STABLE_RANGE
        assert ERF_STABLE_RANGE >= 20.0
        assert abs(erf_complex(20.0) - 1.0) < 1e-15
        with pytest.raises(RangeError):
            erf_complex(30.0 + 2.0j)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        grid = PhaseGrid(extent=2.0, resolution=9)
        vals = np.exp(-np.abs(grid.mesh()) ** 2) * (1 + 0.5j)
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, vals, comments=["config deadbeef"])
        grid2, vals2 = read_field_csv(path)
        assert grid2.resolution == grid.resolution
        assert grid2.extent == pytest.approx(grid.extent)
        np.testing.assert_allclose(vals2, vals, atol=0)
        text = path.read_text()
        assert text.splitlines()[0] == "# config deadbeef"
        assert text.splitlines()[1] == "x,p,re,im"

    def test_bytes_equal_per_node_reference(self, tmp_path, reference_field_csv):
        grid = PhaseGrid(extent=1.5, resolution=5)
        specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05, -1e-05,
                    0.1 + 0.2, 1.0 / 3.0, -2.5e-300, 123456789.125]
        re = np.resize(specials, 25)
        im = np.resize(specials[::-1], 25)
        vals = np.empty((5, 5), dtype=complex)
        vals.real = re.reshape(5, 5)
        vals.imag = im.reshape(5, 5)
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, vals, comments=["gsphase test", "config 0"])
        expected = reference_field_csv(grid, vals, ["gsphase test", "config 0"])
        assert path.read_bytes() == expected.encode("utf-8")
        # and every value, signed zeros and infinities included, reads back exactly
        _, back = read_field_csv(path)
        for part in ("real", "imag"):
            a, b = getattr(back, part), getattr(vals, part)
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
