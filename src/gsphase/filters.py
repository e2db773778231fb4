"""Filter-regularized phase-space distributions.

The one filter family is the unit box window on the frequency side, given
by its width w alone.  Its normalized autocorrelation tri(Re b/w)
tri(Im b/w) (``box_autocorrelation``) has compact support, so multiplying
any characteristic function by it tames even the worst-case growth
exp(|beta|^2/2) for every width w > 0; the corresponding position-side
kernel (``sinc2_kernel``) is the non-negative squared-sinc probability
density.  Convolution with that kernel preserves the sign structure of the
underlying distribution, which is what makes the regularized output a
faithful nonclassicality witness.

A Gaussian Phi exp(-lam x^2 - kap p^2) has a closed-form filtered profile
in its pair (lam, kap), the ``State.gaussian_xp`` of its state
(``filtered_p_gaussian*``).  The pair describes the undisplaced state: a
displacement a0 multiplies Phi by exp(beta conj(a0) - conj(beta) a0), and
since the box filter acts on beta alone, the filtered profile of the
displaced state is the same profile translated by a0 (the ``centre`` of
``filtered_p_gaussian_grid``).  Any other Phi is filtered by quadrature
(``filtered_p_numeric``).
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache

import numpy as np
from scipy.special import sici

from .charfn import char_fn
from .errors import NonConvergenceError, ParameterError, RangeError
from .numerics import (
    PhaseField,
    PhaseGrid,
    SQRT_PI,
    _cos_sin,
    _folded_core,
    _separable_product,
    erfcx_complex,
    gauss_nodes_1d,
    pointwise,
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

#: (w, nodes per panel, grid) filter rules whose tables are kept
RULE_CACHE_SIZE = 4

#: Gauss nodes per panel of the first numeric rule, and the cap of the doubling
#: (two panels per axis, split at the tri kink at zero)
_FIRST_NODES_PER_PANEL = 32
_MAX_NODES_PER_PANEL = 200

#: below this |g| the closed form for the tri-Gaussian transform is replaced
#: by its _SMALL_G_TERMS-term expansion in g: the closed form pairs large
#: reciprocals of g against erf differences and loses roughly eps/|g| to
#: cancellation
_SMALL_G = 1.0e-3
_SMALL_G_TERMS = 6

#: window half-width of ``tri_gaussian_ft_line_integral``; past it the
#: integrand takes its large-|u| expansion
_LINE_R_CUT = 1600.0


def tri(x) -> np.ndarray | float:
    """Triangular window: 1 - |x| on [-1, 1], zero outside; tri(0) = 1.

    Raises ParameterError for x that ``numerics.as_real`` refuses.
    """
    def window(x):
        ax = np.abs(x)
        return np.where(ax < 1.0, 1.0 - ax, 0.0)
    return pointwise(window, x, real=True)


def _check_width(w: float) -> None:
    """Raise ParameterError unless the filter width w is a finite positive real."""
    if not (isinstance(w, numbers.Real) and math.isfinite(w) and w > 0):
        raise ParameterError(f"filter width must be finite and positive (got {w!r})")


def box_autocorrelation(beta, w: float):
    """Normalized autocorrelation of the side-1 box window, scaled to width w.

    Equals tri(Re beta / w) tri(Im beta / w); support [-w, w]^2.
    """
    _check_width(w)
    return pointwise(lambda b: tri(b.real / w) * tri(b.imag / w), beta)


def sinc2_kernel(alpha, w: float):
    """Position-side filter kernel (w^2/pi^2) sinc^2(w x) sinc^2(w p).

    Non-negative, integrates to one over the plane; the removable
    singularities on the axes take the limit value sinc(0) = 1.
    """
    _check_width(w)

    def kernel(a):
        sx = np.sinc(w * a.real / math.pi)
        sp = np.sinc(w * a.imag / math.pi)
        return (w * w / math.pi**2) * sx * sx * sp * sp
    return pointwise(kernel, alpha)


# ---------------------------------------------------------------------------
# the analytic filtered profile of a Gaussian Phi
# ---------------------------------------------------------------------------

def _check_gaussian(xp: tuple[float, float] | None, w: float) -> tuple[float, float]:
    """(lam, kap) = xp, a ``State.gaussian_xp``, once the width w passes
    ``_check_width``; ParameterError for xp None (the undisplaced state has
    no Gaussian Phi)."""
    _check_width(w)
    if xp is None:
        raise ParameterError("the state has no centred Gaussian characteristic function")
    return xp


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


def _tri_gaussian_ft_small_g(y: np.ndarray, g: float) -> np.ndarray:
    m = _moment_m(y, 2 * _SMALL_G_TERMS - 1)
    total, c = np.zeros(y.shape), 1.0
    for j in range(_SMALL_G_TERMS):
        total += c * (m[2 * j] - m[2 * j + 1]).real
        c *= -g / (j + 1)
    return (2.0 / math.pi) * total


def _check_g(g, name: str) -> float:
    """g as a float; ParameterError unless it is a finite real."""
    if not (isinstance(g, numbers.Real) and math.isfinite(g)):
        raise ParameterError(f"{name} needs a finite real g (got {g!r})")
    return float(g)


def tri_gaussian_ft(y, g: float):
    """(1/pi) Int dz exp(2iyz - g z^2) tri(z), in closed form.

    This is the 1-D building block of the analytically filtered Gaussian
    profiles: real, even in y, equal to sin(y)^2/(pi y^2) at g = 0.  The
    defining integral is the normative contract; the closed form below is
    an erfcx rearrangement of it with all large exponentials cancelled
    analytically, validated against direct quadrature in the tests.  ``y``
    may be a number or 0-d array (float result) or an array (array result).
    Raises ParameterError for y that ``numerics.as_real`` refuses and for g
    that is not a finite real.
    """
    g = _check_g(g, "tri_gaussian_ft")

    def transform(y):
        shape, y = y.shape, y.ravel()
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
            # E = exp(-y^2/g) (erf(w1) - erf(w2)); w1 and w2 share the sign of
            # Re, and reflecting both onto Re >= 0 keeps every factor of
            # moderate size
            sign = np.where(w1.real >= 0.0, 1.0, -1.0)
            E = sign * (erfcx_complex(sign * w2) - e * erfcx_complex(sign * w1))
            val = ((e - 1.0) / (math.pi * g) + w1 * E / (SQRT_PI * g)).real
        return val.reshape(shape)

    return pointwise(transform, y, real=True)


@lru_cache(maxsize=1)
def _line_window_rule() -> tuple[np.ndarray, np.ndarray]:
    """Squared nodes z^2 and g-free kernel of the line integral's window rule.

    12 Gauss nodes on each of max(64, 4 r_cut / pi) equal panels of
    [1e-12, 1], flattened, with r_cut = ``_LINE_R_CUT``; the kernel is
    w (1 - z) sin(2 r_cut z) / z with w the Gauss weights.  Neither depends
    on g, so the rule is built once and kept, read-only.
    """
    r_cut = _LINE_R_CUT
    n_panels = max(64, int(4.0 * r_cut / math.pi))
    edges = np.linspace(1.0e-12, 1.0, n_panels + 1)
    zz, ww = gauss_nodes_1d(edges[:-1, None], edges[1:, None], 12)
    z2 = (zz * zz).ravel()
    kernel = (ww * (1.0 - zz) * np.sin(2.0 * r_cut * zz) / zz).ravel()
    for arr in (z2, kernel):
        arr.flags.writeable = False
    return z2, kernel


def tri_gaussian_ft_line_integral(g: float) -> float:
    """Int_{-inf}^{inf} tri_gaussian_ft(u; g) du, analytically equal to 1.

    Evaluated as the finite-window integral (by exchanging the integration
    order, which turns it into a smooth 1-D integral) over |u| <= r_cut =
    ``_LINE_R_CUT``, plus the tail of the large-|u| expansion
    (1 - e^{-g} cos 2u)/(2 pi u^2) - g e^{-g} sin 2u / (pi u^3), whose
    cosine/sine integrals are expressed through Si.  The
    window rule's nodes and g-free kernel come from ``_line_window_rule``,
    built once, so a call costs one exp(-g z^2) and one sum of its
    products with the kernel.  The sum is numpy's pairwise sum, not a BLAS
    dot, whose rounding changes with the BLAS thread count.  Returns a
    Python float whatever the type of g; raises ParameterError for g that is
    not a finite real.
    """
    g = _check_g(g, "tri_gaussian_ft_line_integral")
    # window part: (1/pi) Int_0^1 dz e^{-g z^2} tri(z) * 2 sin(2 r_cut z)/z
    z2, kernel = _line_window_rule()
    r_cut = _LINE_R_CUT
    window = (2.0 / math.pi) * float(np.sum(np.exp(-g * z2) * kernel))

    si, ci = sici(2.0 * r_cut)
    eg = math.exp(-g)
    int_cos = math.cos(2.0 * r_cut) / r_cut - 2.0 * (math.pi / 2.0 - si)
    int_sin = math.sin(2.0 * r_cut) / (2.0 * r_cut**2) + int_cos
    tail = (1.0 / math.pi) * (1.0 / r_cut) - (eg / math.pi) * int_cos \
        - (2.0 * g * eg / math.pi) * int_sin
    return float(window + tail)


def filtered_p_gaussian(xp: tuple[float, float] | None, w: float,
                        alpha) -> float | np.ndarray:
    """Box-filtered distribution at alpha of the Gaussian Phi with xp = (lam, kap).

    Phi(beta) = exp(-lam x^2 - kap p^2) with x = Re beta, p = Im beta, the
    pair a state holds as ``State.gaussian_xp``.  P(alpha; w) =
    w^2 T(w Im alpha; w^2 lam) T(-w Re alpha; w^2 kap) with T the
    tri-Gaussian transform; the Im-alpha axis pairs with lam (the Re-beta
    coefficient) under the Fourier convention, with no axis swap.  Raises
    ParameterError for a width that is not a finite positive real and for
    xp None (an undisplaced state with no Gaussian Phi).
    """
    lam, kap = _check_gaussian(xp, w)
    return pointwise(lambda a: (w * w) * tri_gaussian_ft(w * a.imag, w * w * lam)
                     * tri_gaussian_ft(-w * a.real, w * w * kap), alpha)


def filtered_p_gaussian_grid(xp: tuple[float, float] | None, w: float,
                             grid: PhaseGrid, *, centre: complex = 0j) -> PhaseField:
    """``filtered_p_gaussian`` on a full grid, translated to ``centre``.

    P(alpha; w) of the state displaced by a0 = ``centre`` is the profile of
    its undisplaced Gaussian Phi at alpha - a0.  It stays separable: two
    tri-Gaussian rows, one per axis shifted by Re a0 or Im a0, and their
    outer product; the field also carries the translated
    ``filtered_p_gaussian`` as its evaluator.  Raises as
    ``filtered_p_gaussian`` does, and ParameterError for a centre that is
    not a finite number.
    """
    lam, kap = _check_gaussian(xp, w)
    if not (isinstance(centre, numbers.Complex) and cmath.isfinite(centre)):
        raise ParameterError(f"the centre must be a finite number (got {centre!r})")
    ax = grid.axis()
    tx = tri_gaussian_ft(-w * (ax - centre.real), w * w * kap)
    tp = tri_gaussian_ft(w * (ax - centre.imag), w * w * lam)
    values = (w * w) * np.outer(tx, tp)
    return PhaseField(side="alpha", grid=grid, values=values.astype(complex),
                      fn=lambda a: np.asarray(filtered_p_gaussian(xp, w, a - centre),
                                              dtype=complex))


# ---------------------------------------------------------------------------
# numeric filtered transform for arbitrary characteristic functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=RULE_CACHE_SIZE)
def _filter_rule(w: float, nodes_per_panel: int, grid: PhaseGrid):
    """Node mesh, weight table and real kernel table of the split Gauss rule.

    The rule has two panels per axis, [-w, 0] and [0, w]; the negative
    panel's nodes are the exact negation of the positive panel's nodes b+
    and share their weights tri(b+/w) wb / pi (the 1/pi^2 prefactor, split
    over the axes).  With b = -b+ reversed, then b+, and tb its weights, the
    rule is the complex node mesh b[i] + i b[j] and the 2-D weight table
    tb[i] tb[j], both (2n, 2n).  The table is ``numerics._cos_sin`` of the
    grid axis over the half axis b+, shape (N, 2n).  None of them depends
    on a state, so the last ``RULE_CACHE_SIZE`` (w, nodes, grid) rules are
    kept, read-only, and only the first call pays for them.
    """
    bp, wb = gauss_nodes_1d(0.0, w, nodes_per_panel)
    tw = tri(bp / w) * wb / math.pi
    b = np.concatenate([-bp[::-1], bp])
    nodes = b[:, None] + 1j * b[None, :]
    twb = np.concatenate([tw[::-1], tw])
    weights = twb[:, None] * twb[None, :]
    table = _cos_sin(grid.axis(), bp)
    for arr in (nodes, weights, table):
        arr.flags.writeable = False
    return nodes, weights, table


def _filtered_raw(state: State, w: float, grid: PhaseGrid,
                  nodes_per_panel: int) -> tuple[np.ndarray, float, float]:
    """Split tensor Gauss rule for the filtered transform on the grid [x, p].

    The panels of each axis meet at 0, where the tri factor has a kink.  Phi
    is evaluated at the (2n)^2 nodes of ``_filter_rule``'s cached mesh and
    times its cached weight table gives W; only Phi and that product are
    computed per state.  The sum is the inverse transform's, so W folds
    onto the real core [Re K | Im K] of ``numerics._folded_core`` (the
    even node axis has no centre node) and ``numerics._separable_product``
    of Re K with the rule's table gives the real field.  The imaginary
    field is the same product of Im K; it is only formed when sum |Im K|
    exceeds the roundoff floor ``ROUNDOFF_FACTOR`` * eps * sum |W|, and
    otherwise sum |Im K|, a bound on |Im P| since the table's entries are
    at most 1, stands for its maximum.

    Returns the real field, that imaginary residue and sum |W|, the scale of
    the field's roundoff.  Raises RangeError when Phi is not finite at some
    node, since no finer rule can repair that.
    """
    nodes, weights, table = _filter_rule(w, nodes_per_panel, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        phi = np.asarray(char_fn(state, nodes), dtype=complex)
    bad = int(np.count_nonzero(~np.isfinite(phi)))
    if bad:
        raise RangeError(
            f"Phi of {state.describe()} is not finite at {bad} of {phi.size} nodes "
            f"of the w={w:g} filter rule"
        )
    weighted = phi * weights
    abs_sum = float(np.sum(np.abs(weighted)))
    k_re, k_im = np.hsplit(_folded_core(weighted), 2)
    field = _separable_product(k_re, table, table)
    residue = float(np.sum(np.abs(k_im)))
    if residue > ROUNDOFF_FACTOR * _EPS * abs_sum:
        residue = float(np.max(np.abs(_separable_product(k_im, table, table))))
    return field, residue, abs_sum


def filtered_p_numeric(state: State, w: float, grid: PhaseGrid) -> PhaseField:
    """Box-filtered distribution of any state at width w, by quadrature.

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
    differences that are only roundoff.  Each rule's node mesh, weight table
    and real cos/sin kernel table come from ``_filter_rule``, built once per
    (w, nodes, grid) and cached; the state's Phi at all (2n)^2 nodes is
    computed afresh, and ``_filtered_raw`` sums it on the folded core of the
    ``numerics`` transforms, in real arithmetic.

    The larger of the accepted difference and the roundoff floor is stored
    as ``quad_error`` on the field, an estimate of its absolute error at
    every grid node.  ``imag_residue`` is the accepted rule's largest
    imaginary part, or, when a bound on it is below the roundoff floor, that
    bound; the values are the real part.  Raises RangeError at the first
    rule when Phi is not finite at a node, and NonConvergenceError when the
    rules at 200 nodes per panel and the one before still disagree by more
    than the tolerance (a width too large for the grid extent, for
    instance), so an unresolved field never reaches a verdict.  Raises
    ParameterError first for a width that is not a finite positive real.
    """
    _check_width(w)
    n = _FIRST_NODES_PER_PANEL
    coarse, _, _ = _filtered_raw(state, w, grid, n)
    while True:
        n_fine = min(2 * n, _MAX_NODES_PER_PANEL)
        fine, residue, abs_sum = _filtered_raw(state, w, grid, n_fine)
        # |P_2n - P_n| in place: the coarse field is not needed past here
        np.abs(np.subtract(fine, coarse, out=coarse), out=coarse)
        err = float(coarse.max())
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
    return PhaseField(side="alpha", grid=grid, values=fine.astype(complex),
                      imag_residue=residue,
                      quad_error=max(err, floor))
