"""Complex-amplitude calculus on the phase plane.

The phase plane is parametrized by alpha = x + i*p with measure
d^2alpha = dx dp.  The Fourier convention used by every other module is
fixed here once:

    forward:   F(beta)  = Int d^2alpha f(alpha) exp(beta*conj(alpha) - conj(beta)*alpha)
    inverse:   f(alpha) = (1/pi^2) Int d^2beta F(beta) exp(conj(beta)*alpha - beta*conj(alpha))

In real coordinates the forward kernel is exp(i*2*Im(beta)*x) * exp(-i*2*Re(beta)*p).
Modules must import these transforms rather than re-deriving the signs.

Both transforms are direct trapezoid sums over a sampled grid, run in real
arithmetic: the weighted samples fold once, about the grid's centre, onto a
real even/odd core on the half axis, and the kernel becomes real cos/sin
rows, one per target axis.  A full output grid (``out_grid``) and any 2-D
target array laid out like ``PhaseGrid.mesh()`` (real part constant along
rows, imaginary part constant along columns) cost two real matrix products;
other targets cost one real matrix product per chunk of targets and one dot
per target.
"""

from __future__ import annotations

import math
import numbers
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

#: largest grid resolution; an N x N complex mesh takes 16 N^2 bytes per array
MAX_GRID_RESOLUTION = 2001

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
        if not (isinstance(self.extent, numbers.Real) and math.isfinite(self.extent)
                and self.extent > 0):
            raise ParameterError(f"grid extent must be finite and positive (got {self.extent!r})")
        if not (isinstance(self.resolution, numbers.Integral)
                and 2 <= self.resolution <= MAX_GRID_RESOLUTION):
            raise ParameterError(
                f"grid resolution must be an integer at least 2 and at most "
                f"{MAX_GRID_RESOLUTION} (got {self.resolution!r})"
            )

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
# Fourier transforms (direct trapezoid sums in real arithmetic on the folded grid)
# ---------------------------------------------------------------------------

#: targets per block of the scattered evaluator: at resolution 257 a block's
#: two real tables and GEMM product take about 2 MB; blocks of 200 to 512
#: targets time alike there, and 1024 is slower
_TARGET_CHUNK = 256


def _boundary_max(values: np.ndarray) -> float:
    return float(max(np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
                     np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max()))


def _fold(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of w about the centre of its first axis.

    Row k of each part pairs the node at +h[k] of the half axis with its
    mirror at -h[k].  An odd axis has its centre node h[0] = 0, which has
    no mirror and is kept once in the even part; an even axis has none.
    """
    n = w.shape[0]
    half = (n + 1) // 2
    pos, neg = w[n - half:], w[half - 1::-1]
    even, odd = pos + neg, pos - neg
    if n % 2:
        even[0] = pos[0]
    return even, odd


def _folded_core(samples, grid: PhaseGrid, prefactor: float):
    """Half axis h and real core [K_re | K_im] of the weighted samples.

    The transform sum at t = a + ib is sum W[i, j] exp(2i b u_i) exp(-2i a v_j)
    with W the samples times the trapezoid weights and the prefactor.  The
    grid is symmetric, so each axis folds onto its half axis h through the
    parity sums EE, EO, OE and OO of W (E even, O odd; first letter u,
    second v), and the sum is C(b) K C(a)^T with the real row
    C(t) = [cos(2 t h) | sin(2 t h)] and K = [[EE, -i EO], [i OE, OO]].
    Returns h and the real (2H, 4H) array [Re K | Im K].
    """
    wt = grid.trapezoid_weights()
    eu, ou = _fold(samples * (prefactor * np.outer(wt, wt)))
    ee, eo = (part.T for part in _fold(eu.T))
    oe, oo = (part.T for part in _fold(ou.T))
    half = ee.shape[0]
    core = np.empty((2, half, 4, half))
    for r, row in enumerate([[ee.real, eo.imag, ee.imag, -eo.real],
                             [-oe.imag, oo.real, oe.real, oo.imag]]):
        for c, block in enumerate(row):
            core[r, :, c] = block
    return grid.axis()[grid.resolution - half:], core.reshape(2 * half, 4 * half)


def _cos_sin(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows [cos(2 t[m] h) | sin(2 t[m] h)], shape (t.size, 2 h.size)."""
    phase = np.multiply.outer(2.0 * t, h)
    table = np.empty((t.size, 2 * h.size))
    np.cos(phase, out=table[:, :h.size])
    np.sin(phase, out=table[:, h.size:])
    return table


def _separable_product(core, h, re_t, im_t) -> np.ndarray:
    """Transform sum at the targets re_t[i] + i*im_t[j], indexed [i, j].

    One real GEMM takes the core to the imaginary-part rows, whose real and
    imaginary halves are then interleaved so that a second real GEMM
    against the real-part rows writes the complex mesh directly.
    """
    rows = (_cos_sin(im_t, h) @ core).reshape(2 * im_t.size, -1)
    return (_cos_sin(re_t, h) @ rows.T).view(complex)


def _transform_eval(samples, grid: PhaseGrid, prefactor: float):
    """Transform evaluator over the folded core of ``_folded_core``.

    Both transform directions share the kernel exp(2i Im(t) u - 2i Re(t) v)
    with t the target and (u, v) the sampled plane; they differ only in the
    1/pi^2 prefactor of the inverse, which the core carries.  A 2-D target
    array whose real part is constant along rows and whose imaginary part
    is constant along columns (any ``PhaseGrid.mesh()``) takes the two GEMMs
    of ``_separable_product``.  Other targets go in blocks of
    ``_TARGET_CHUNK``: one real GEMM of the imaginary-part rows against the
    core, then one dot per target with its real-part row.
    """
    h, core = _folded_core(samples, grid, prefactor)
    nyq = grid.nyquist

    def evaluate(targets: ComplexArray) -> ComplexArray:
        t = np.asarray(targets, dtype=complex)
        bad = int(np.count_nonzero(~np.isfinite(t)))
        if bad:
            raise ParameterError(f"{bad} of {t.size} transform targets are not finite")
        if np.any(2.0 * np.abs(t.real) > nyq) or np.any(2.0 * np.abs(t.imag) > nyq):
            raise ResolutionError(
                f"requested frequency exceeds the grid Nyquist band |2 Re/Im| <= {nyq:g}"
            )
        if (t.ndim == 2 and t.size and np.all(t.real == t.real[:, :1])
                and np.all(t.imag == t.imag[:1, :])):
            return _separable_product(core, h, t.real[:, 0], t.imag[0, :])
        flat = t.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for i0 in range(0, flat.size, _TARGET_CHUNK):
            b = flat[i0:i0 + _TARGET_CHUNK]
            rows = (_cos_sin(b.imag, h) @ core).reshape(b.size, 2, -1)
            out[i0:i0 + b.size] = np.einsum(
                "mrk,mk->mr", rows, _cos_sin(b.real, h)).view(complex)[:, 0]
        return out.reshape(t.shape)

    return evaluate


def _transform_grid(samples, grid: PhaseGrid, prefactor: float,
                    out_grid: PhaseGrid) -> np.ndarray:
    """The transform sum on the whole of ``out_grid``, by ``_separable_product``."""
    if 2.0 * out_grid.extent > grid.nyquist:
        raise ResolutionError("output grid exceeds the Nyquist band of the input grid")
    h, core = _folded_core(samples, grid, prefactor)
    ax = out_grid.axis()
    # indexed [bx, bp], row-major in Re(beta)
    return _separable_product(core, h, ax, ax)


def _prepare_samples(f: PhaseField, grid: PhaseGrid | None, tol: float):
    g = grid or f.grid or PhaseGrid()
    vals = np.asarray(f.sampled_on(g), dtype=complex)
    if vals.shape != (g.resolution, g.resolution):
        raise ParameterError(f"transform samples of shape {vals.shape} do not match the "
                             f"{g.resolution}x{g.resolution} grid")
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise RangeError(f"transform samples are not finite at {bad} of {vals.size} grid nodes")
    bmax = _boundary_max(vals)
    if bmax > tol:
        raise TruncationError(
            f"integrand magnitude {bmax:.3e} at the grid boundary exceeds {tol:g}; "
            "enlarge the extent"
        )
    return vals, g


def fourier_forward(f: PhaseField, *, grid: PhaseGrid | None = None,
                    out_grid: PhaseGrid | None = None,
                    boundary_tol: float = 1.0e-10) -> PhaseField:
    """Forward transform of an alpha-side field to the beta side.

    The field is sampled on ``grid`` (else its own grid, else the default),
    and the returned field's ``fn`` is the evaluator of ``_transform_eval``
    over the folded core of those samples; with ``out_grid`` its ``values``
    are the sum on that grid.  Raises RangeError for a non-finite sample,
    TruncationError when the samples on the grid boundary exceed
    ``boundary_tol``, and ResolutionError for ``out_grid`` or targets past
    the grid's Nyquist band.
    """
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
    """Inverse transform of a beta-side field back to the alpha side.

    The same sum and checks as ``fourier_forward``, with the 1/pi^2
    prefactor of the inverse carried by the folded core.
    """
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
