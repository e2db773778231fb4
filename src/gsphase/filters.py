"""Filter-regularized phase-space distributions.

The built-in filter family starts from the unit box window on the frequency
side.  Its normalized autocorrelation tri(Re b/w) tri(Im b/w) has compact
support, so multiplying any characteristic function by it tames even the
worst-case growth exp(|beta|^2/2) for every width w > 0; the corresponding
position-side kernel is the non-negative squared-sinc probability density.
Convolution with that kernel preserves the sign structure of the underlying
distribution, which is what makes the regularized output a faithful
nonclassicality witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sici

from .charfn import char_fn
from .errors import NonConvergenceError, ParameterError, SupportError
from .numerics import (
    PhaseField,
    PhaseGrid,
    SQRT_PI,
    _kernel_table,
    _separable_product,
    as_complex,
    erfcx_complex,
    gauss_nodes_1d,
)
from .states import State

#: absolute tolerance on max |P_2n - P_n| over the output grid that ends the
#: node doubling of the numeric filtered transform
QUAD_TOLERANCE = 1.0e-10

#: the doubling also ends once max |P_2n - P_n| is at most this many times
#: eps * sum |integrand weights|, the scale of the sums' roundoff; converged
#: rules differ by 11-540 times that scale on fields of size up to 2.5e6
ROUNDOFF_FACTOR = 1.0e3
_EPS = float(np.finfo(float).eps)

#: (w, nodes per panel, grid) rules whose kernel tables are kept
RULE_CACHE_SIZE = 4

#: Gauss nodes per panel of the first numeric rule, and the cap of the doubling
#: (two panels per axis, split at the tri kink at zero)
_FIRST_NODES_PER_PANEL = 32
_MAX_NODES_PER_PANEL = 200

#: below this |g| the closed form for the tri-Gaussian transform is replaced
#: by its 6-term expansion in g: the closed form pairs large reciprocals of
#: g against erf differences and loses roughly eps/|g| to cancellation
_SMALL_G = 1.0e-3


def tri(x) -> np.ndarray | float:
    """Triangular window: 1 - |x| on [-1, 1], zero outside; tri(0) = 1."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.where(ax < 1.0, 1.0 - ax, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def _check_width(w: float) -> None:
    """Raise ParameterError unless the filter width w is finite and positive."""
    if not (math.isfinite(w) and w > 0):
        raise ParameterError(f"filter width must be finite and positive (got {w!r})")


def box_autocorrelation(beta, w: float):
    """Normalized autocorrelation of the side-1 box window, scaled to width w.

    Equals tri(Re beta / w) tri(Im beta / w); support [-w, w]^2.
    """
    _check_width(w)
    b = np.asarray(as_complex(beta))
    out = np.asarray(tri(b.real / w)) * np.asarray(tri(b.imag / w))
    return float(out) if out.ndim == 0 else out


def sinc2_kernel(alpha, w: float):
    """Position-side filter kernel (w^2/pi^2) sinc^2(w x) sinc^2(w p).

    Non-negative, integrates to one over the plane; the removable
    singularities on the axes take the limit value sinc(0) = 1.
    """
    _check_width(w)
    a = np.asarray(as_complex(alpha))
    sx = np.sinc(w * a.real / math.pi)
    sp = np.sinc(w * a.imag / math.pi)
    out = (w * w / math.pi**2) * sx * sx * sp * sp
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FilterKernel:
    """Box-window filter of width w > 0.

    ``omega_tilde`` is the compactly supported frequency-side factor,
    ``omega_alpha`` the non-negative position-side density.
    """

    w: float
    omega_spec: str = "box"

    def __post_init__(self):
        _check_width(self.w)
        if self.omega_spec != "box":
            raise SupportError("only the box window family is built in")

    def omega_tilde(self, beta):
        return box_autocorrelation(beta, self.w)

    def omega_alpha(self, alpha):
        return sinc2_kernel(alpha, self.w)

    @property
    def support_half_width(self) -> float:
        return self.w


# ---------------------------------------------------------------------------
# Gaussian characteristic functions and the analytic filtered profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianCharFn:
    """Phi(beta) = exp(-lam x^2 - kap p^2) with x = Re beta, p = Im beta."""

    lam: float
    kap: float

    @classmethod
    def from_state(cls, state: State) -> "GaussianCharFn":
        if state.gaussian_xp is None:
            raise ParameterError(
                f"state {state.describe()} has no centered Gaussian characteristic function"
            )
        return cls(*state.gaussian_xp)


def _moment_m(y: np.ndarray, nmax: int) -> np.ndarray:
    """M_n(y) = Int_0^1 z^n exp(2iyz) dz for n = 0..nmax (rows), stable for all y."""
    out = np.empty((nmax + 1, y.size), dtype=complex)
    near = np.abs(y) <= 6.0
    # power series in 2iy near the origin, summed until every term is negligible
    yn = y[near]
    n = np.arange(nmax + 1)[:, None]
    term = np.broadcast_to(1.0 / (n + 1.0), (nmax + 1, yn.size)).astype(complex)
    total = term.copy()
    for k in range(1, 402):
        term = term * (2j * yn) / k * (n + k) / (n + k + 1)
        total += term
        if not np.any(np.abs(term) >= 1.0e-20):
            break
    out[:, near] = total
    # upward recurrence away from the origin
    yf = y[~near]
    e = np.exp(2j * yf)
    out[0, ~near] = (e - 1.0) / (2j * yf)
    for k in range(1, nmax + 1):
        out[k, ~near] = (e - k * out[k - 1, ~near]) / (2j * yf)
    return out


def _tri_gaussian_ft_small_g(y: np.ndarray, g: float, terms: int = 6) -> np.ndarray:
    m = _moment_m(y, 2 * terms - 1)
    total, c = np.zeros(y.shape), 1.0
    for j in range(terms):
        total += c * (m[2 * j] - m[2 * j + 1]).real
        c *= -g / (j + 1)
    return (2.0 / math.pi) * total


def tri_gaussian_ft(y, g: float):
    """(1/pi) Int dz exp(2iyz - g z^2) tri(z), in closed form.

    This is the 1-D building block of the analytically filtered Gaussian
    profiles: real, even in y, equal to sin(y)^2/(pi y^2) at g = 0.  The
    defining integral is the normative contract; the closed form below is
    an erfcx rearrangement of it with all large exponentials cancelled
    analytically, validated against direct quadrature in the tests.  ``y``
    may be a scalar (float result) or an array (array result).
    """
    shape = np.shape(y)
    y = np.asarray(y, dtype=float).ravel()
    g = float(g)
    if g == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(y == 0.0, 1.0 / math.pi, np.sin(y) ** 2 / (math.pi * y * y))
    elif abs(g) < _SMALL_G:
        val = _tri_gaussian_ft_small_g(y, g)
    else:
        sg = np.sqrt(complex(g))
        w1 = (g - 1j * y) / sg
        w2 = -1j * y / sg
        e = np.exp(-g + 2j * y)
        # E = exp(-y^2/g) (erf(w1) - erf(w2)); w1 and w2 share the sign of Re,
        # and reflecting both onto Re >= 0 keeps every factor of moderate size
        sign = np.where(w1.real >= 0.0, 1.0, -1.0)
        E = sign * (erfcx_complex(sign * w2) - e * erfcx_complex(sign * w1))
        val = ((e - 1.0) / (math.pi * g) + w1 * E / (SQRT_PI * g)).real
    return float(val[0]) if shape == () else val.reshape(shape)


def tri_gaussian_ft_line_integral(g: float, r_cut: float = 1600.0) -> float:
    """Int_{-inf}^{inf} tri_gaussian_ft(u; g) du, analytically equal to 1.

    Evaluated as the finite-window integral (by exchanging the integration
    order, which turns it into a smooth 1-D integral) plus the tail of the
    large-|u| expansion (1 - e^{-g} cos 2u)/(2 pi u^2) - g e^{-g} sin 2u /
    (pi u^3), whose cosine/sine integrals are expressed through Si.
    """
    # window part: (1/pi) Int_0^1 dz e^{-g z^2} tri(z) * 2 sin(2 r_cut z)/z,
    # 12 Gauss nodes on each of n_panels equal panels, all in one array
    n_panels = max(64, int(4.0 * r_cut / math.pi))
    edges = np.linspace(1.0e-12, 1.0, n_panels + 1)
    zz, ww = gauss_nodes_1d(edges[:-1, None], edges[1:, None], 12)
    inner = np.exp(-g * zz * zz) * (1.0 - zz) * np.sin(2.0 * r_cut * zz) / zz
    window = (2.0 / math.pi) * float(np.sum(ww * inner))

    si, ci = sici(2.0 * r_cut)
    eg = math.exp(-g)
    int_cos = math.cos(2.0 * r_cut) / r_cut - 2.0 * (math.pi / 2.0 - si)
    int_sin = math.sin(2.0 * r_cut) / (2.0 * r_cut**2) + int_cos
    tail = (1.0 / math.pi) * (1.0 / r_cut) - (eg / math.pi) * int_cos \
        - (2.0 * g * eg / math.pi) * int_sin
    return window + tail


def filtered_p_gaussian(cf: GaussianCharFn, w: float, alpha) -> float | np.ndarray:
    """Analytically filtered distribution of a Gaussian characteristic function.

    P(alpha; w) = w^2 T(w Im alpha; w^2 lam) T(-w Re alpha; w^2 kap) with T
    the tri-Gaussian transform; the Im-alpha axis pairs with lam (the Re-beta
    coefficient) under the Fourier convention, with no axis swap.
    """
    _check_width(w)
    a = np.asarray(as_complex(alpha))
    out = (w * w) * tri_gaussian_ft(w * a.imag, w * w * cf.lam) \
        * tri_gaussian_ft(-w * a.real, w * w * cf.kap)
    return float(out) if a.ndim == 0 else out


def filtered_p_gaussian_grid(cf: GaussianCharFn, w: float, grid: PhaseGrid) -> PhaseField:
    """Filtered Gaussian profile on a full grid via its separable structure."""
    _check_width(w)
    ax = grid.axis()
    tx = tri_gaussian_ft(-w * ax, w * w * cf.kap)
    tp = tri_gaussian_ft(w * ax, w * w * cf.lam)
    values = (w * w) * np.outer(tx, tp)
    return PhaseField(side="alpha", grid=grid, values=values.astype(complex),
                      fn=lambda a, cf=cf, w=w: np.asarray(
                          filtered_p_gaussian(cf, w, a), dtype=complex))


# ---------------------------------------------------------------------------
# numeric filtered transform for arbitrary characteristic functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=RULE_CACHE_SIZE)
def _filter_rule(w: float, nodes_per_panel: int, grid: PhaseGrid):
    """Nodes, weights and kernel table of the split tensor Gauss rule.

    Returns the nodes b of the two panels [-w, 0] and [0, w], the weights
    tri(b/w) wb / pi (the 1/pi^2 prefactor, split over the axes) and the
    table exp(2i axis (x) b) that maps the nodes onto the grid axis.  They
    depend on no state, so the last ``RULE_CACHE_SIZE`` (w, nodes, grid)
    rules are kept, read-only, and only the first call pays for the table.
    """
    xm, wm = gauss_nodes_1d(-w, 0.0, nodes_per_panel)
    xp, wp = gauss_nodes_1d(0.0, w, nodes_per_panel)
    b, wb = np.concatenate([xm, xp]), np.concatenate([wm, wp])
    tw = tri(b / w) * wb / math.pi
    table = _kernel_table(grid.axis(), b)
    for arr in (b, tw, table):
        arr.flags.writeable = False
    return b, tw, table


def _filtered_raw(state: State, w: float, grid: PhaseGrid,
                  nodes_per_panel: int) -> tuple[np.ndarray, float]:
    """Split tensor Gauss rule for the filtered transform on the grid [x, p].

    The panels of each axis meet at 0, where the tri factor has a kink; the
    kernel exp(2i (bx p - bp x)) is the cached table of ``_filter_rule`` and
    its conjugate transpose.  Only Phi at the nodes is computed per state.
    Returns the complex field and sum |integrand weights|, the scale of its
    roundoff.
    """
    b, tw, table = _filter_rule(w, nodes_per_panel, grid)
    BX, BP = np.meshgrid(b, b, indexing="ij")
    phi = np.asarray(char_fn(state, BX + 1j * BP), dtype=complex)
    core = phi * (tw[:, None] * tw[None, :])
    return _separable_product(core, table, table.conj().T), float(np.sum(np.abs(core)))


def filtered_p_numeric(state: State, kernel: FilterKernel, grid: PhaseGrid) -> PhaseField:
    """Filtered distribution by direct quadrature over the kernel support.

    P(alpha; w) = (1/pi^2) Int d^2beta e^{conj(beta) alpha - beta conj(alpha)}
    Phi(beta) tri(Re beta/w) tri(Im beta/w).  The integrand is smooth on each
    quadrant of the compact support, but its oscillation grows with w times
    the grid extent and a Phi that is not smooth at the origin (the
    |beta|^(2t) log|beta| term of cauchy_lorentz_ncl) slows convergence, so
    no fixed rule is exact for every state and width.  A split tensor Gauss
    rule with n = 32 nodes per panel is compared with the rule at 2n; the
    2n field is accepted once max |P_2n - P_n| over the grid is at most the
    tolerance, otherwise n doubles, up to 200 nodes per panel.  The
    tolerance is the larger of ``QUAD_TOLERANCE`` and the roundoff floor
    ``ROUNDOFF_FACTOR`` * eps * sum |integrand weights|, so a fast-growing
    Phi (p_max or strong squeezing at a large w) is not refused for
    differences that are only roundoff.  Each rule's nodes, weights and
    kernel table come from ``_filter_rule``, built once per (w, nodes,
    grid) and cached; the state's Phi at the nodes is computed afresh.

    The larger of the accepted difference and the roundoff floor is stored
    as ``quad_error`` on the field, an estimate of its absolute error at
    every grid node; the largest imaginary residue goes to
    ``imag_residue``; the values are the real part.  Raises
    NonConvergenceError when the rules at 200 nodes per panel and the one
    before still disagree by more than the tolerance (a width too large for
    the grid extent, for instance), so an unresolved field never reaches a
    verdict.
    """
    w = kernel.w
    n = _FIRST_NODES_PER_PANEL
    coarse, _ = _filtered_raw(state, w, grid, n)
    while True:
        n_fine = min(2 * n, _MAX_NODES_PER_PANEL)
        fine, abs_sum = _filtered_raw(state, w, grid, n_fine)
        err = float(np.max(np.abs(fine.real - coarse.real)))
        floor = ROUNDOFF_FACTOR * _EPS * abs_sum
        tol = max(QUAD_TOLERANCE, floor)
        if err <= tol:
            break
        if n_fine == _MAX_NODES_PER_PANEL:
            raise NonConvergenceError(
                f"filtered transform at w={w:g} on extent {grid.extent:g} did not converge: "
                f"{n} and {n_fine} Gauss nodes per panel differ by {err:.3e} > {tol:.3g}"
            )
        coarse, n = fine, n_fine
    del coarse  # at most two full-grid fields are held at a time
    return PhaseField(side="alpha", grid=grid, values=fine.real.astype(complex),
                      imag_residue=float(np.max(np.abs(fine.imag))),
                      quad_error=max(err, floor))
