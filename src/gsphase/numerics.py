"""Complex-amplitude calculus on the phase plane.

The phase plane is parametrized by alpha = x + i*p with measure
d^2alpha = dx dp.  The Fourier convention used by every other module is
fixed here once:

    forward:   F(beta)  = Int d^2alpha f(alpha) exp(beta*conj(alpha) - conj(beta)*alpha)
    inverse:   f(alpha) = (1/pi^2) Int d^2beta F(beta) exp(conj(beta)*alpha - beta*conj(alpha))

In real coordinates the forward kernel is exp(i*2*Im(beta)*x) * exp(-i*2*Re(beta)*p).
Modules must import these transforms rather than re-deriving the signs.

Both transforms are direct trapezoid sums over a sampled grid.  The kernel
factors into one matrix per axis, so a full output grid (``out_grid``) and
any 2-D target array laid out like ``PhaseGrid.mesh()`` (real part constant
along rows, imaginary part constant along columns) cost two matrix
products; other targets are summed point by point as one matrix product per
chunk of targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import (
    NonConvergenceError,
    ParameterError,
    RangeError,
    ResolutionError,
    TruncationError,
)

SQRT_PI = math.sqrt(math.pi)

ComplexArray = np.ndarray
FieldEvaluator = Callable[[ComplexArray], ComplexArray]


# ---------------------------------------------------------------------------
# points, grids, fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """A point alpha = x + i*p of the phase plane (dimensionless quadratures)."""

    x: float
    p: float

    @property
    def alpha(self) -> complex:
        return complex(self.x, self.p)

    @classmethod
    def from_alpha(cls, alpha: complex) -> "PhasePoint":
        alpha = complex(alpha)
        return cls(alpha.real, alpha.imag)


def as_complex(value) -> ComplexArray | complex:
    """Coerce a PhasePoint, scalar or array to complex."""
    if isinstance(value, PhasePoint):
        return value.alpha
    return np.asarray(value, dtype=complex) if isinstance(value, np.ndarray) else complex(value)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform Cartesian grid, symmetric about the origin.

    With odd ``resolution`` the origin is a grid node.  The default covers
    |alpha| <= 6 and resolves Gaussian densities with width >= 0.05.
    """

    extent: float = 6.0
    resolution: int = 257

    def __post_init__(self):
        if self.extent <= 0:
            raise ParameterError("grid extent must be positive")
        if self.resolution < 2:
            raise ParameterError("grid resolution must be at least 2")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.resolution - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.resolution)

    def mesh(self) -> ComplexArray:
        """Complex nodes alpha[i, j] = x_i + i*p_j (row-major in x)."""
        ax = self.axis()
        x, p = np.meshgrid(ax, ax, indexing="ij")
        return x + 1j * p

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.resolution, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def nyquist(self) -> float:
        """Largest |2*beta| component representable without aliasing."""
        return math.pi / self.spacing


@dataclass
class PhaseField:
    """A complex-valued function over the phase plane (alpha or beta side).

    Either a closed-form vectorized evaluator, a sampled array over a grid,
    or both.  When both exist they agree at the nodes by construction.

    ``imag_residue`` is the largest imaginary part dropped from a field
    expected to be real; where ``filters.filtered_p_numeric`` finds a bound
    on that part below its roundoff floor, it stores the bound instead.
    ``quad_error`` is the estimated absolute error of the sampled values
    from the quadrature that produced them (the last refinement difference
    of ``filters.filtered_p_numeric``); it is 0 for closed-form samples.
    Neither enters any report.
    """

    side: str  # "alpha" | "beta"
    fn: FieldEvaluator | None = None
    grid: PhaseGrid | None = None
    values: np.ndarray | None = None
    delta_at_origin: bool = False
    imag_residue: float = 0.0
    quad_error: float = 0.0

    def __post_init__(self):
        if self.side not in ("alpha", "beta"):
            raise ParameterError("field side must be 'alpha' or 'beta'")
        if self.fn is None and self.values is None and not self.delta_at_origin:
            raise ParameterError("field needs an evaluator, samples, or the delta tag")
        if self.values is not None and self.grid is None:
            raise ParameterError("sampled field needs its grid")

    def __call__(self, points) -> ComplexArray | complex:
        if self.fn is None:
            raise ParameterError("field has no closed-form evaluator")
        z = as_complex(points)
        if np.isscalar(z) or isinstance(z, complex):
            return complex(self.fn(np.asarray([z]))[0])
        return self.fn(np.asarray(z, dtype=complex))

    def sampled_on(self, grid: PhaseGrid) -> np.ndarray:
        if self.values is not None and self.grid == grid:
            return self.values
        if self.fn is None:
            raise ParameterError("cannot resample a purely sampled field on a new grid")
        return self.fn(grid.mesh())


def delta_field() -> PhaseField:
    """The unit point mass at the origin, usable as a transform input."""
    return PhaseField(side="alpha", fn=None, delta_at_origin=True)


# ---------------------------------------------------------------------------
# Gauss-Legendre helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_nodes_1d(a: float, b: float, n: int):
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


# ---------------------------------------------------------------------------
# 2-D quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cartesian:
    """Rectangular quadrature domain x in [xmin, xmax], p in [pmin, pmax]."""

    xmin: float
    xmax: float
    pmin: float
    pmax: float

    @classmethod
    def square(cls, half_width: float) -> "Cartesian":
        return cls(-half_width, half_width, -half_width, half_width)

    @classmethod
    def from_grid(cls, grid: PhaseGrid) -> "Cartesian":
        return cls.square(grid.extent)


@dataclass(frozen=True)
class Radial:
    """The whole plane, integrated in doubling radial shells until stable.

    Failure to stabilize by radius 1e5 raises NonConvergenceError.  Divergent
    moments are not detected here: ``witness`` reads the panel ratios of its
    own radial sum.
    """


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float

    @property
    def real(self) -> float:
        return self.value.real


def _tensor_gauss(f, dom: Cartesian, n: int) -> complex:
    x, wx = gauss_nodes_1d(dom.xmin, dom.xmax, n)
    p, wp = gauss_nodes_1d(dom.pmin, dom.pmax, n)
    X, P = np.meshgrid(x, p, indexing="ij")
    vals = np.asarray(f(X + 1j * P))
    return complex(np.einsum("i,ij,j->", wx, vals, wp))


def _disk_shell(f, r0: float, r1: float, n_r: int, n_phi: int) -> complex:
    r, wr = gauss_nodes_1d(r0, r1, n_r)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    wphi = 2.0 * math.pi / n_phi  # periodic trapezoid
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    vals = np.asarray(f(R * np.exp(1j * PHI)))
    return complex(np.sum((wr * r)[:, None] * vals) * wphi)


def quad2d(f, domain, *, tol: float = 1.0e-10, max_refine: int = 7) -> QuadResult:
    """2-D integral of a vectorized integrand f(alpha) with error estimate.

    Refines by node doubling until two consecutive levels agree within
    ``tol`` (absolute, relative to max(1, |I|)); the reported error is the
    last inter-level difference, which bounds the true error on smooth
    integrands in practice.
    """
    if isinstance(domain, PhaseGrid):
        domain = Cartesian.from_grid(domain)
    if isinstance(domain, Cartesian):
        n = 24
        prev = _tensor_gauss(f, domain, n)
        for _ in range(max_refine):
            n *= 2
            cur = _tensor_gauss(f, domain, n)
            err = abs(cur - prev)
            if err <= tol * max(1.0, abs(cur)):
                return QuadResult(cur, err)
            prev = cur
        raise NonConvergenceError(
            f"cartesian quadrature did not stabilize below {tol:g} at n={n}"
        )
    if isinstance(domain, Radial):
        return _quad_radial(f, tol=tol)
    raise ParameterError(f"unknown quadrature domain {domain!r}")


def _shell_refined(f, r0, r1, tol):
    n_r, n_phi = 24, 16
    prev = _disk_shell(f, r0, r1, n_r, n_phi)
    for _ in range(7):
        n_r *= 2
        n_phi *= 2
        cur = _disk_shell(f, r0, r1, n_r, n_phi)
        err = abs(cur - prev)
        if err <= 0.25 * tol * max(1.0, abs(cur)):
            return cur, err
        prev = cur
    raise NonConvergenceError(f"radial shell [{r0:g},{r1:g}] did not converge")


def _quad_radial(f, *, tol: float) -> QuadResult:
    # grow dyadic shells until two consecutive tails are negligible
    total, err = 0.0 + 0.0j, 0.0
    r0, r1 = 0.0, 1.0
    quiet = 0
    while r1 <= 1.0e5:
        v, e = _shell_refined(f, r0, r1, tol)
        total += v
        err += e
        if abs(v) <= 0.5 * tol * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 2:
                return QuadResult(total, err + abs(v))
        else:
            quiet = 0
        r0, r1 = r1, 2.0 * r1
    raise NonConvergenceError(
        "radial quadrature tail did not stabilize; integral may diverge"
    )


# ---------------------------------------------------------------------------
# Fourier transforms (direct quadrature; the contract, FFT is optional)
# ---------------------------------------------------------------------------

def _boundary_max(values: np.ndarray) -> float:
    return float(max(np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
                     np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max()))


def _weighted(samples, grid: PhaseGrid) -> np.ndarray:
    w = grid.trapezoid_weights()
    return samples * w[:, None] * w[None, :]


def _kernel_table(t, u) -> np.ndarray:
    """exp(2i t[i] u[j]): one axis factor of the transform kernel."""
    return np.exp(2j * np.outer(t, u))


def _separable_product(wx_vals, im_table, re_table) -> np.ndarray:
    """Transform sum at the targets re_t[i] + i*im_t[j], indexed [i, j].

    The kernel exp(2i Im(t) u - 2i Re(t) v) factors into one table per
    target axis, so the whole mesh costs two matrix products.  The caller
    builds both: ``im_table = _kernel_table(im_t, u)`` and ``re_table``
    = exp(-2i v (x) re_t) = ``_kernel_table(v, -re_t)``.  When both target
    axes are the same array, ``re_table`` is the conjugate transpose of
    ``im_table``, bit for bit, so one ``np.exp`` serves both.  It serves the
    Fourier transforms only; the numeric filter folds its sums onto a real
    table of its own (``filters._filtered_raw``).
    """
    return (im_table @ wx_vals @ re_table).T


def _transform_eval(samples, grid: PhaseGrid, prefactor: float):
    """Transform evaluator over trapezoid-weighted samples.

    Both transform directions share the kernel exp(2i Im(t) u - 2i Re(t) v)
    with t the target and (u, v) the sampled plane; they differ only in the
    1/pi^2 prefactor of the inverse.  A 2-D target array whose real part is
    constant along rows and whose imaginary part is constant along columns
    (any ``PhaseGrid.mesh()``) takes the separable route; other targets are
    summed point by point, in chunks.
    """
    ax = grid.axis()
    wx_vals = _weighted(samples, grid)
    nyq = grid.nyquist

    def evaluate(targets: ComplexArray) -> ComplexArray:
        t = np.asarray(targets, dtype=complex)
        if np.any(2.0 * np.abs(t.real) > nyq) or np.any(2.0 * np.abs(t.imag) > nyq):
            raise ResolutionError(
                f"requested frequency exceeds the grid Nyquist band |2 Re/Im| <= {nyq:g}"
            )
        if (t.ndim == 2 and t.size and np.all(t.real == t.real[:, :1])
                and np.all(t.imag == t.imag[:1, :])):
            return prefactor * _separable_product(
                wx_vals, _kernel_table(t.imag[0, :], ax), _kernel_table(ax, -t.real[:, 0]))
        flat = t.ravel()
        out = np.empty(flat.shape, dtype=complex)
        chunk = 2048
        for i0 in range(0, flat.size, chunk):
            b = flat[i0:i0 + chunk]
            ph_x = _kernel_table(b.imag, ax)              # (m, nx)
            ph_p = _kernel_table(-b.real, ax)             # (m, np)
            out[i0:i0 + chunk] = ((ph_x @ wx_vals) * ph_p).sum(1)
        return prefactor * out.reshape(t.shape)

    return evaluate


def _transform_grid(samples, grid: PhaseGrid, prefactor: float,
                    out_grid: PhaseGrid) -> np.ndarray:
    if 2.0 * out_grid.extent > grid.nyquist:
        raise ResolutionError("output grid exceeds the Nyquist band of the input grid")
    table = _kernel_table(out_grid.axis(), grid.axis())
    # indexed [bx, bp], row-major in Re(beta)
    return prefactor * _separable_product(_weighted(samples, grid), table, table.conj().T)


def _prepare_samples(f: PhaseField, grid: PhaseGrid | None, tol: float):
    g = grid or f.grid or PhaseGrid()
    vals = f.sampled_on(g)
    bmax = _boundary_max(np.asarray(vals))
    if bmax > tol:
        raise TruncationError(
            f"integrand magnitude {bmax:.3e} at the grid boundary exceeds {tol:g}; "
            "enlarge the extent"
        )
    return np.asarray(vals, dtype=complex), g


def fourier_forward(f: PhaseField, *, grid: PhaseGrid | None = None,
                    out_grid: PhaseGrid | None = None,
                    boundary_tol: float = 1.0e-10) -> PhaseField:
    """Forward transform of an alpha-side field to the beta side."""
    if f.side != "alpha":
        raise ParameterError("fourier_forward expects an alpha-side field")
    if f.delta_at_origin:
        one = lambda b: np.ones_like(np.asarray(b, dtype=complex))
        out = PhaseField(side="beta", fn=one, grid=out_grid)
        if out_grid is not None:
            out.values = one(out_grid.mesh())
        return out
    samples, g = _prepare_samples(f, grid, boundary_tol)
    fn = _transform_eval(samples, g, prefactor=1.0)
    out = PhaseField(side="beta", fn=fn)
    if out_grid is not None:
        out.grid = out_grid
        out.values = _transform_grid(samples, g, 1.0, out_grid)
    return out


def fourier_inverse(f: PhaseField, *, grid: PhaseGrid | None = None,
                    out_grid: PhaseGrid | None = None,
                    boundary_tol: float = 1.0e-10) -> PhaseField:
    """Inverse transform of a beta-side field back to the alpha side."""
    if f.side != "beta":
        raise ParameterError("fourier_inverse expects a beta-side field")
    samples, g = _prepare_samples(f, grid, boundary_tol)
    pref = 1.0 / math.pi**2
    fn = _transform_eval(samples, g, prefactor=pref)
    out = PhaseField(side="alpha", fn=fn)
    if out_grid is not None:
        out.grid = out_grid
        out.values = _transform_grid(samples, g, pref, out_grid)
    return out


# ---------------------------------------------------------------------------
# Wirtinger derivatives from closed-form quadrature partials
# ---------------------------------------------------------------------------

def wirtinger_from_xp(df_dx, df_dp):
    """Combine exact x/p partial derivatives into (d/d_alpha, d/d_alpha*).

    d/d_alpha = (d_x - i d_p)/2 and d/d_alpha* = (d_x + i d_p)/2; exact when
    the supplied partials are closed forms.
    """
    d_alpha = 0.5 * (np.asarray(df_dx) - 1j * np.asarray(df_dp))
    d_alpha_star = 0.5 * (np.asarray(df_dx) + 1j * np.asarray(df_dp))
    return d_alpha, d_alpha_star


# ---------------------------------------------------------------------------
# complex error function
# ---------------------------------------------------------------------------

#: Documented stable range of erf_complex.
ERF_STABLE_RANGE = 25.0


def erf_complex(z):
    """Error function for complex arguments, stable for |z| <= 25.

    Evaluated by ``scipy.special.erf``, which implements S. G. Johnson's
    Faddeeva package (see Poppe & Wijers, ACM TOMS 16, 38 (1990)); odd and
    conjugate-symmetric.  Arguments with |z| > ERF_STABLE_RANGE raise
    RangeError.  A scalar argument gives a Python complex, an array an array.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(arr) > ERF_STABLE_RANGE):
        raise RangeError(f"erf_complex is documented for |z| <= {ERF_STABLE_RANGE}")
    out = special.erf(arr)
    return complex(out) if scalar else out


def erfcx_complex(z):
    """Scaled complementary error function exp(z^2) erfc(z) for complex z.

    Evaluated by ``scipy.special.erfcx`` (the Faddeeva package, as for
    erf_complex), with no magnitude cap.  Intended for Re z >= 0, where it
    is uniformly of moderate size at any magnitude; for Re z < 0 the value
    carries exp(z^2) and may overflow.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    out = special.erfcx(np.asarray(z, dtype=complex))
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# CSV serialization:  header "x,p,re,im", row-major over the grid
# ---------------------------------------------------------------------------

def write_field_csv(path, grid: PhaseGrid, values: np.ndarray,
                    comments: Sequence[str] = ()) -> None:
    """Write a complex field on ``grid`` as CSV.

    The file holds one ``# <comment>`` line per comment, the header
    ``x,p,re,im``, then one row per node in row-major order (x outer, p
    inner).  Every float is written as its Python ``repr``, so
    ``read_field_csv`` recovers each value exactly (``-0.0``, ``nan`` and
    ``inf`` included).  The body is written one grid row at a time and is
    never held in memory whole.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (grid.resolution, grid.resolution):
        raise ParameterError("values shape does not match the grid")
    ax = [repr(x) for x in grid.axis().tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write("x,p,re,im\n")
        for x, re_row, im_row in zip(ax, vals.real.tolist(), vals.imag.tolist()):
            fh.write("".join([f"{x},{p},{re!r},{im!r}\n"
                              for p, re, im in zip(ax, re_row, im_row)]))


def read_field_csv(path) -> tuple[PhaseGrid, np.ndarray]:
    xs, vals = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("x,"):
                continue
            x, _, re, im = line.split(",")
            xs.append(float(x))
            # complex(re, im), not re + 1j*im: the product turns an infinite
            # imaginary part into a nan real part and drops the sign of -0.0
            vals.append(complex(float(re), float(im)))
    n = int(round(math.sqrt(len(xs))))
    if n * n != len(xs):
        raise ParameterError("CSV does not contain a square grid")
    grid = PhaseGrid(extent=max(xs), resolution=n)
    return grid, np.asarray(vals, dtype=complex).reshape(n, n)
