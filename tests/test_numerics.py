"""Tests for the phase-plane calculus: transforms, quadrature, error function."""

import math

import mpmath
import numpy as np
import pytest

from gsphase.errors import (
    DivergenceError,
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
    erf_complex,
    erfcx_complex,
    fourier_forward,
    fourier_inverse,
    mirror_quadrant,
    quad2d,
    radial_integral,
    read_field_csv,
    write_field_csv,
)

RNG = np.random.default_rng(20250810)


def random_beta(n, radius=2.0):
    pts = RNG.uniform(-radius, radius, size=(n, 2))
    return pts[:, 0] + 1j * pts[:, 1]


class TestPhaseGridAxis:
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


class TestFoldOnce:
    """A transform with ``out_grid`` folds its samples once, for both routes."""

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_one_fold_per_transform(self, side, monkeypatch):
        import gsphase.numerics as numerics
        calls = []
        original = numerics._folded_core
        monkeypatch.setattr(numerics, "_folded_core",
                            lambda *a: calls.append(1) or original(*a))
        grid = PhaseGrid(extent=6.0, resolution=65)
        out_grid = PhaseGrid(extent=2.0, resolution=17)
        transform = fourier_forward if side == "alpha" else fourier_inverse
        out = transform(PhaseField(side, fn=gaussian_bump), grid=grid, out_grid=out_grid)
        assert calls == [1]
        # the grid values and the evaluator read the same core, bit for bit
        assert out.values.tobytes() == out(out_grid.mesh()).tobytes()
        assert calls == [1]


@pytest.mark.parametrize("n", [65, 64], ids=["odd", "even"])
def test_real_product_is_the_real_part_of_the_complex_one(n):
    # the numeric filter takes the 2H-wide core Re K, the transforms all 4H
    import gsphase.numerics as numerics
    grid = PhaseGrid(extent=6.0, resolution=n)
    weighted = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    core = numerics._folded_core(weighted)
    h = grid.axis()[n // 2:]
    assert core.shape == (2 * h.size, 4 * h.size)
    re_rows = numerics._cos_sin(RNG.uniform(-2.0, 2.0, 23), h)
    im_rows = numerics._cos_sin(RNG.uniform(-2.0, 2.0, 17), h)
    full = numerics._separable_product(core, re_rows, im_rows)
    real = numerics._separable_product(core[:, :2 * h.size], re_rows, im_rows)
    assert full.dtype == complex and real.dtype == float
    assert real.shape == full.shape == (23, 17)
    eps = np.finfo(float).eps
    assert np.max(np.abs(real - full.real)) <= 4 * eps * np.sum(np.abs(core))


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


class TestPhaseGridMesh:
    @pytest.mark.parametrize("extent", [4.0, 6.0, 1.5, 0.1])
    @pytest.mark.parametrize("n", [2, 3, 20, 21, 161, 320, 321, 2001])
    def test_bit_identical_to_meshgrid(self, n, extent):
        grid = PhaseGrid(extent, n)
        mesh = grid.mesh()
        assert mesh.shape == (n, n) and mesh.dtype == complex
        ax = grid.axis()
        for i in range(0, n, 256):   # the reference in row blocks, to bound memory
            x, p = np.meshgrid(ax[i:i + 256], ax, indexing="ij")
            assert mesh[i:i + 256].tobytes() == (x + 1j * p).tobytes()


class TestMirrorQuadrant:
    @pytest.mark.parametrize("dtype", [float, bool])
    @pytest.mark.parametrize("size", [2, 3, 21, 100, 321])
    def test_equals_the_index_gather(self, size, dtype):
        # node i of each axis reads quadrant index |2i - (N - 1)| // 2
        quadrant = RNG.standard_normal((size - size // 2,) * 2).astype(dtype)
        mirror = np.abs(2 * np.arange(size) - (size - 1)) // 2
        expected = quadrant[np.ix_(mirror, mirror)]
        full = mirror_quadrant(quadrant, size)
        assert full.shape == expected.shape and full.dtype == expected.dtype
        assert full.tobytes() == expected.tobytes()
        assert full[size // 2:, size // 2:].tobytes() == quadrant.tobytes()


class TestQuad2d:
    def test_gaussian_integral(self):
        res = quad2d(lambda a: np.exp(-np.abs(a) ** 2), Cartesian.square(7.0), tol=1e-12)
        assert abs(res.value - math.pi) < 1e-10
        assert abs(res.value - math.pi) <= res.error + 1e-13

    def test_unknown_domain_is_refused(self):
        with pytest.raises(ParameterError):
            quad2d(lambda a: np.exp(-np.abs(a) ** 2), "plane")


class TestRadialIntegral:
    def test_half_width_gaussian(self):
        # the tail underflows to zero, so the last panel ratio is 0/0 without its guard
        assert abs(radial_integral(lambda r: np.exp(-r * r / 2.0)) - 2.0 * math.pi) < 1e-12

    def test_lorentz_density_normalization(self):
        t = 3.0
        val = radial_integral(lambda r: (t / math.pi) * (1.0 + r * r) ** (-(1.0 + t)))
        assert abs(val - 1.0) < 1e-12

    def test_divergent_integrand_raises(self):
        with pytest.raises(DivergenceError):
            radial_integral(lambda r: 1.0 / (1.0 + r * r))


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

    SPECIALS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05, -1e-05,
                0.1 + 0.2, 1.0 / 3.0, -2.5e-300, 123456789.125]

    def test_real_values_write_the_bytes_of_their_complex_twin(self, tmp_path,
                                                               reference_field_csv):
        grid = PhaseGrid(extent=1.5, resolution=5)
        real = np.resize(self.SPECIALS, 25).reshape(5, 5)
        paths = [tmp_path / "real.csv", tmp_path / "complex.csv"]
        write_field_csv(paths[0], grid, real, comments=["config 0"])
        write_field_csv(paths[1], grid, real.astype(complex), comments=["config 0"])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == reference_field_csv(
            grid, real.astype(complex), ["config 0"]).encode("utf-8")

    def test_negative_zero_imaginary_parts_survive(self, tmp_path):
        grid = PhaseGrid(extent=1.0, resolution=3)
        vals = np.empty((3, 3), dtype=complex)
        vals.real = 1.0
        vals.imag = -0.0
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, vals)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 9 and all(r.endswith(",1.0,-0.0") for r in rows)

    def test_bytes_equal_per_node_reference(self, tmp_path, reference_field_csv):
        grid = PhaseGrid(extent=1.5, resolution=5)
        re = np.resize(self.SPECIALS, 25)
        im = np.resize(self.SPECIALS[::-1], 25)
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
