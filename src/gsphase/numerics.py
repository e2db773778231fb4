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
per target.  The numeric filter (``filters.filtered_p_numeric``) is an
inverse transform on a split Gauss rule instead of a grid and sums on the
same folded core and separable product.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import (
    DivergenceError,
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

def _as_numbers(value, kinds: str, number_type, cast):
    """An ndarray, list or tuple whose dtype kind is in ``kinds`` as an array of
    ``cast``, a ``number_type`` as a Python ``cast``; None for anything else."""
    if isinstance(value, (np.ndarray, list, tuple)):
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged nesting
            return None
        return arr.astype(cast, copy=False) if arr.dtype.kind in kinds else None
    if isinstance(value, (number_type, np.bool_)):
        return cast(value)
    return None


def as_complex(value) -> ComplexArray | complex:
    """A phase-plane point alpha = x + i*p, or an array of them, as complex:
    an ndarray, list or tuple of numbers becomes a complex array, a number a
    Python complex.  Anything else (a string, None, a ragged or non-numeric
    sequence) raises ParameterError."""
    out = _as_numbers(value, "biufc", numbers.Number, complex)
    if out is None:
        raise ParameterError(
            f"phase-plane points must be numbers or arrays of numbers (got {type(value).__name__})")
    return out


def as_real(value) -> np.ndarray | float:
    """The real-valued twin of ``as_complex``: an ndarray, list or tuple of real
    numbers becomes a float array, a real number a Python float, and anything
    else (a complex value included) raises ParameterError."""
    out = _as_numbers(value, "biuf", numbers.Real, float)
    if out is None:
        raise ParameterError(
            f"real coordinates must be real numbers or arrays of them (got {type(value).__name__})")
    return out


def pointwise(f: Callable[[np.ndarray], np.ndarray], points, *, real: bool = False):
    """f at points, under the one scalar rule of the pointwise entry points.

    The points pass ``as_real`` (``real``) or ``as_complex``, and f takes
    them as an ndarray of at least one dimension, uncopied when they already
    have the right dtype, and returns an array of the same shape.  A number
    or a 0-d array gives a Python float or complex, as f's dtype says; any
    other input gives f's array.
    """
    arr = np.asarray(as_real(points) if real else as_complex(points))
    if arr.ndim:
        return f(arr)
    return np.asarray(f(arr.reshape(1))).reshape(-1)[0].item()


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
        """Complex nodes alpha[i, j] = x_i + i*p_j (row-major in x).

        The axis is broadcast into the real and imaginary parts of one
        preallocated array, with no intermediate meshes.  Every bit equals
        the ``meshgrid`` construction ``x + 1j * p``: the axis holds no -0.0
        (``linspace`` writes +0.0 at the centre of an odd axis), which is
        the only value that construction would change.
        """
        ax = self.axis()
        out = np.empty((self.resolution, self.resolution), dtype=complex)
        out.real = ax[:, None]
        out.imag = ax[None, :]
        return out

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

    A closed-form vectorized evaluator ``fn``, samples ``values`` over a
    ``grid``, or both; when both exist they agree at the nodes by
    construction.  A transform's output carries the transform's evaluator,
    and with ``out_grid`` its samples there.

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
    imag_residue: float = 0.0
    quad_error: float = 0.0

    def __post_init__(self):
        if self.side not in ("alpha", "beta"):
            raise ParameterError("field side must be 'alpha' or 'beta'")
        if self.fn is None and self.values is None:
            raise ParameterError("field needs an evaluator or samples")
        if self.values is not None and self.grid is None:
            raise ParameterError("sampled field needs its grid")

    def __call__(self, points) -> ComplexArray | complex:
        if self.fn is None:
            raise ParameterError("field has no closed-form evaluator")
        return pointwise(lambda z: np.asarray(self.fn(z), dtype=complex), points)

    def sampled_on(self, grid: PhaseGrid) -> np.ndarray:
        if self.values is not None and self.grid == grid:
            return self.values
        if self.fn is None:
            raise ParameterError("cannot resample a purely sampled field on a new grid")
        return self.fn(grid.mesh())


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


#: node doublings of ``quad2d`` after its first 24-node rule
_MAX_REFINE = 7


def quad2d(f, domain: Cartesian, *, tol: float = 1.0e-10) -> QuadResult:
    """2-D integral of a vectorized integrand f(alpha) over a rectangle, with its error.

    A tensor Gauss rule refines by node doubling, up to ``_MAX_REFINE``
    times, until two consecutive levels agree within ``tol`` (absolute,
    relative to max(1, |I|)); the reported error is the last inter-level
    difference, which bounds the true error on smooth integrands in
    practice.  Whole-plane integrals of radial functions take
    ``radial_integral``.
    """
    if not isinstance(domain, Cartesian):
        raise ParameterError(f"unknown quadrature domain {domain!r}")
    n = 24
    prev = _tensor_gauss(f, domain, n)
    for _ in range(_MAX_REFINE):
        n *= 2
        cur = _tensor_gauss(f, domain, n)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return QuadResult(cur, err)
        prev = cur
    raise NonConvergenceError(
        f"cartesian quadrature did not stabilize below {tol:g} at n={n}"
    )


#: dyadic panels [2^j, 2^(j+1)], j < _RADIAL_PANELS, after the unit disk, and
#: the Gauss nodes of each panel of ``radial_integral``
_RADIAL_PANELS = 22
_RADIAL_NODES = 48

#: last dyadic panel ratio at or above which ``radial_integral`` diverges
_PANEL_RATIO_DIVERGENT = 0.98


def radial_integral(f) -> float:
    """Int d^2alpha f(|alpha|) of a radial function over the whole plane.

    One Gauss panel on [0, 1], then [2^j, 2^(j+1)] for j < 22, 48 nodes each,
    in one evaluation of f at the real radii; the real part of f is
    integrated.  The panel sums of a power-law tail decay geometrically with
    the dyadic ratio, so the sum is closed with the geometric tail of its
    last ratio; a tail that underflowed to zero needs no closure.  A last
    ratio at or above ``_PANEL_RATIO_DIVERGENT`` raises DivergenceError, and
    an integrand that is not finite at some radius RangeError.  Meant for
    functions no narrower than 1 at the centre.
    """
    edges = np.array([0.0] + [2.0 ** j for j in range(_RADIAL_PANELS + 1)])[:, None]
    r, w = gauss_nodes_1d(edges[:-1], edges[1:], _RADIAL_NODES)
    vals = np.real(f(r))
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise RangeError(f"radial integrand is not finite at {bad} of {vals.size} radii")
    panels = np.sum(w * 2.0 * math.pi * r * vals, axis=1)
    last, before = panels[-1], panels[-2]
    # a tail that underflowed to zero has nothing to close (and 0/0 for a ratio)
    rho = 0.0 if last == 0.0 else (last / before if before else math.inf)
    if rho >= _PANEL_RATIO_DIVERGENT:
        raise DivergenceError(f"radial integral diverges: last dyadic panel ratio {rho:.3g}")
    return float(panels.sum() + last * rho / (1.0 - rho))


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


def _folded_core(weighted: np.ndarray) -> np.ndarray:
    """Real core [Re K | Im K] of weighted samples on a symmetric node axis.

    The transform sum at t = a + ib is sum W[i, j] exp(2i b u_i) exp(-2i a v_j)
    with W the samples times their quadrature weights and any prefactor,
    and u, v the nodes of one axis symmetric about 0: odd with a centre
    node (a ``PhaseGrid``) or even without one (the numeric filter's split
    Gauss rule).  Each axis folds onto its half axis h, the nodes >= 0,
    through the parity sums EE, EO, OE and OO of W (E even, O odd; first
    letter u, second v), and the sum is C(b) K C(a)^T with the real rows
    C(t) = [cos(2 t h) | sin(2 t h)] of ``_cos_sin`` and
    K = [[EE, -i EO], [i OE, OO]].  Returns the real (2H, 4H) array
    [Re K | Im K].
    """
    eu, ou = _fold(weighted)
    ee, eo = (part.T for part in _fold(eu.T))
    oe, oo = (part.T for part in _fold(ou.T))
    return np.block([[ee.real, eo.imag, ee.imag, -eo.real],
                     [-oe.imag, oo.real, oe.real, oo.imag]])


def _cos_sin(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows [cos(2 t[m] h) | sin(2 t[m] h)], shape (t.size, 2 h.size)."""
    phase = np.multiply.outer(2.0 * t, h)
    table = np.empty((t.size, 2 * h.size))
    np.cos(phase, out=table[:, :h.size])
    np.sin(phase, out=table[:, h.size:])
    return table


def _separable_product(core, re_rows, im_rows) -> np.ndarray:
    """Transform sum at the targets re_t[i] + i*im_t[j], indexed [i, j].

    ``re_rows`` and ``im_rows`` are the ``_cos_sin`` rows of re_t and im_t.
    One real GEMM takes the core to the imaginary-part rows and a second,
    against the real-part rows, finishes the sum.  The 2H-wide core Re K
    gives the real part of the sum; the 4H-wide [Re K | Im K] gives two
    rows per imaginary part, its real and imaginary halves interleaved, so
    the second GEMM writes the complex mesh, read through ``view(complex)``.
    """
    out = re_rows @ (im_rows @ core).reshape(-1, re_rows.shape[1]).T
    return out if core.shape[1] == re_rows.shape[1] else out.view(complex)


def _transform_eval(h: np.ndarray, core: np.ndarray, grid: PhaseGrid):
    """Transform evaluator over the half axis h and core of ``_folded_core``.

    Both transform directions share the kernel exp(2i Im(t) u - 2i Re(t) v)
    with t the target and (u, v) the sampled plane; they differ only in the
    1/pi^2 prefactor of the inverse, which the core carries.  A 2-D target
    array whose real part is constant along rows and whose imaginary part
    is constant along columns (any ``PhaseGrid.mesh()``) takes the two GEMMs
    of ``_separable_product``.  Other targets go in blocks of
    ``_TARGET_CHUNK``: one real GEMM of the imaginary-part rows against the
    core, then one dot per target with its real-part row.
    """
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
            return _separable_product(core, _cos_sin(t.real[:, 0], h),
                                      _cos_sin(t.imag[0, :], h))
        flat = t.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for i0 in range(0, flat.size, _TARGET_CHUNK):
            b = flat[i0:i0 + _TARGET_CHUNK]
            rows = (_cos_sin(b.imag, h) @ core).reshape(b.size, 2, -1)
            out[i0:i0 + b.size] = np.einsum(
                "mrk,mk->mr", rows, _cos_sin(b.real, h)).view(complex)[:, 0]
        return out.reshape(t.shape)

    return evaluate


def _transform_grid(h: np.ndarray, core: np.ndarray, grid: PhaseGrid,
                    out_grid: PhaseGrid) -> np.ndarray:
    """The transform sum on the whole of ``out_grid``, by ``_separable_product``.

    Takes the half axis h and core of ``_folded_core``, the same pair the
    transform's evaluator holds, so the samples fold once per transform.
    """
    if 2.0 * out_grid.extent > grid.nyquist:
        raise ResolutionError("output grid exceeds the Nyquist band of the input grid")
    rows = _cos_sin(out_grid.axis(), h)
    # indexed [bx, bp], row-major in Re(beta)
    return _separable_product(core, rows, rows)


def _prepare_samples(f: PhaseField, grid: PhaseGrid | None, tol: float, prefactor: float):
    """Trapezoid-weighted samples of f times the prefactor, the half axis h
    of their grid (its nodes >= 0) and that grid, checked for a transform."""
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
    wt = g.trapezoid_weights()
    return vals * (prefactor * np.outer(wt, wt)), g.axis()[g.resolution // 2:], g


def _transform(f: PhaseField, side: str, prefactor: float, grid: PhaseGrid | None,
               out_grid: PhaseGrid | None, boundary_tol: float) -> PhaseField:
    """The body of both transforms: f to a field on ``side``.

    The samples of ``_prepare_samples`` fold once onto the core of
    ``_folded_core``.  The returned field's ``fn`` is the evaluator of
    ``_transform_eval`` over that core; with ``out_grid`` its ``values``
    are the sum on that grid, from the same core.
    """
    weighted, h, g = _prepare_samples(f, grid, boundary_tol, prefactor)
    core = _folded_core(weighted)
    out = PhaseField(side=side, fn=_transform_eval(h, core, g))
    if out_grid is not None:
        out.grid = out_grid
        out.values = _transform_grid(h, core, g, out_grid)
    return out


def fourier_forward(f: PhaseField, *, grid: PhaseGrid | None = None,
                    out_grid: PhaseGrid | None = None,
                    boundary_tol: float = 1.0e-10) -> PhaseField:
    """Forward transform of an alpha-side field to the beta side.

    The field is sampled on ``grid`` (else its own grid, else the default)
    and summed by ``_transform``: the returned field evaluates the
    transform at any targets, and with ``out_grid`` also holds its values
    on that grid.  Raises RangeError for a non-finite sample,
    TruncationError when the samples on the grid boundary exceed
    ``boundary_tol``, and ResolutionError for ``out_grid`` or targets past
    the grid's Nyquist band.
    """
    if f.side != "alpha":
        raise ParameterError("fourier_forward expects an alpha-side field")
    return _transform(f, "beta", 1.0, grid, out_grid, boundary_tol)


def fourier_inverse(f: PhaseField, *, grid: PhaseGrid | None = None,
                    out_grid: PhaseGrid | None = None,
                    boundary_tol: float = 1.0e-10) -> PhaseField:
    """Inverse transform of a beta-side field back to the alpha side.

    The same sum and checks as ``fourier_forward``, with the 1/pi^2
    prefactor of the inverse carried by the folded core.
    """
    if f.side != "beta":
        raise ParameterError("fourier_inverse expects a beta-side field")
    return _transform(f, "alpha", 1.0 / math.pi**2, grid, out_grid, boundary_tol)


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
    RangeError, and arguments that ``as_complex`` refuses ParameterError.  A
    number or 0-d array gives a Python complex, an array an array
    (``pointwise``).
    """
    def erf(z):
        if np.any(np.abs(z) > ERF_STABLE_RANGE):
            raise RangeError(f"erf_complex is documented for |z| <= {ERF_STABLE_RANGE}")
        return special.erf(z)
    return pointwise(erf, z)


def erfcx_complex(z):
    """Scaled complementary error function exp(z^2) erfc(z) for complex z.

    Evaluated by ``scipy.special.erfcx`` (the Faddeeva package, as for
    erf_complex), with no magnitude cap.  Intended for Re z >= 0, where it
    is uniformly of moderate size at any magnitude; for Re z < 0 the value
    carries exp(z^2) and may overflow.  Takes and returns points as
    erf_complex does.
    """
    return pointwise(special.erfcx, z)


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
    ``inf`` included).  A real ``values`` array writes the literal ``0.0``
    in the ``im`` column, the bytes its complex twin would give, without
    formatting a zero per node.  The body is written one grid row at a time
    and is never held in memory whole.
    """
    vals = np.asarray(values)
    if vals.shape != (grid.resolution, grid.resolution):
        raise ParameterError("values shape does not match the grid")
    if np.iscomplexobj(vals):
        im_rows = (map(repr, row) for row in vals.imag.tolist())
    else:
        vals = vals.astype(float, copy=False)
        im_rows = itertools.repeat(["0.0"] * grid.resolution)
    ax = [repr(x) for x in grid.axis().tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write("x,p,re,im\n")
        for x, re_row, im_row in zip(ax, vals.real.tolist(), im_rows):
            fh.write("".join([f"{x},{p},{re!r},{im}\n"
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
