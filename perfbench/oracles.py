"""Closed forms the benchmark checks gsphase against.

Everything here is computed from numpy and scipy.special alone; nothing
imports gsphase, so a fault in the library cannot hide in its own oracle.
The conventions are the library's documented ones: alpha = x + i p, the
characteristic function Phi(beta) = Int d^2alpha P(alpha) exp(beta conj(alpha)
- conj(beta) alpha), and the box filter tri(Re beta / w) tri(Im beta / w).
The spec modifiers map P(alpha) to P(exp(-i phi) (alpha - alpha0)), so
Phi(beta) becomes exp(beta conj(alpha0) - conj(beta) alpha0) Phi(exp(-i phi) beta).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, kv

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GL_CACHE[n]
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

def t_transform(y, g: float, nodes: int = 240) -> np.ndarray:
    """T(y; g) = (1/pi) Int_{-1}^{1} exp(2iyz - g z^2) tri(z) dz.

    The integrand is even in z apart from the phase, so T is the real
    integral (2/pi) Int_0^1 cos(2yz) exp(-g z^2) (1 - z) dz, taken here by a
    single Gauss-Legendre panel (smooth on [0, 1]).
    """
    z, wz = gl_nodes(0.0, 1.0, nodes)
    y = np.asarray(y, dtype=float)
    kern = np.cos(2.0 * np.multiply.outer(y, z))
    return (2.0 / math.pi) * kern @ (wz * np.exp(-g * z * z) * (1.0 - z))


def laguerre(n: int, u) -> np.ndarray:
    """L_n(u) by the three-term recurrence."""
    u = np.asarray(u, dtype=float)
    prev, cur = np.zeros_like(u), np.ones_like(u)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
    return cur


def laguerre_sum(weights: dict[int, float], u) -> np.ndarray:
    """Sum_k w_k L_k(u): the characteristic function of sum_k w_k |k><k|."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for k, wk in weights.items():
        out = out + wk * laguerre(k, u)
    return out


def lorentz_normalizer(t: float) -> float:
    """N_t = Int d^2alpha P_t(alpha) exp(-|alpha|^2) = t Int_0^inf (1+u)^(-1-t) e^(-u) du."""
    val, _ = quad(lambda u: (1.0 + u) ** (-1.0 - t) * math.exp(-u), 0.0, math.inf,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    return float(t * val)


# ---------------------------------------------------------------------------
# states as the benchmark describes them
# ---------------------------------------------------------------------------

def _base_phi(kind: str, params: dict):
    """Closed-form characteristic function of an unmodified catalog state."""
    if kind == "thermal":
        nb = params["nbar"]
        return lambda b: np.exp(-nb * np.abs(b) ** 2)
    if kind == "squeezed":
        sh, ch = math.sinh(params["xi"]), math.cosh(params["xi"])
        return lambda b: np.exp(-sh * sh * np.abs(b) ** 2 - ch * sh * np.real(b * b))
    if kind == "spats":
        nb = params["nbar"]
        return lambda b: (1.0 - (nb + 1.0) * np.abs(b) ** 2) * np.exp(-nb * np.abs(b) ** 2)
    if kind == "photon_vacuum_mix":
        eta = params["eta"]
        return lambda b: 1.0 - eta * np.abs(b) ** 2
    if kind in ("fock_element", "fock_mixture", "explicit_fock"):
        ws = fock_weights(kind, params)
        return lambda b: laguerre_sum(ws, np.abs(b) ** 2)
    if kind == "p_max":
        return lambda b: np.exp(0.5 * np.abs(b) ** 2)
    if kind in ("cauchy_lorentz", "cauchy_lorentz_ncl"):
        t = params["t"]

        def phi_cl(b):
            r = np.abs(b)
            out = np.ones(r.shape)
            nz = r > 0
            out[nz] = 2.0 * np.exp(t * np.log(r[nz]) - math.lgamma(t)) * kv(t, 2.0 * r[nz])
            return out

        if kind == "cauchy_lorentz":
            return phi_cl
        n_t = lorentz_normalizer(t)
        return lambda b: (phi_cl(b) - n_t) / (1.0 - n_t)
    raise ValueError(f"no closed form for {kind!r}")


def gaussian_xp(kind: str, params: dict) -> tuple[float, float] | None:
    """(lam, kap) with Phi = exp(-lam Re(beta)^2 - kap Im(beta)^2), if Phi is one."""
    if kind == "thermal":
        return params["nbar"], params["nbar"]
    if kind == "squeezed":
        sh, ch = math.sinh(params["xi"]), math.cosh(params["xi"])
        return sh * sh + ch * sh, sh * sh - ch * sh
    if kind == "fock_element" and int(params["m"]) == 0:
        return 0.0, 0.0
    if kind == "p_max":
        return -0.5, -0.5
    return None


def fock_weights(kind: str, params: dict) -> dict[int, float]:
    """Diagonal Fock weights of a fock_element (m == n) or fock_mixture spec."""
    if kind == "fock_element":
        return {int(params["m"]): 1.0}
    return {int(k[1:]): float(v) for k, v in params.items() if k.startswith("w")}


def phi(kind: str, params: dict, rotation: float = 0.0, displacement: complex = 0j):
    """Phi(beta) of a catalog state with the spec modifiers applied."""
    base = _base_phi(kind, params)
    rot = complex(math.cos(rotation), -math.sin(rotation))
    a0 = complex(displacement)

    def fn(beta):
        b = np.asarray(beta, dtype=complex)
        return np.exp(b * np.conj(a0) - np.conj(b) * a0) * base(rot * b)

    return fn


def grid_axis(extent: float, n: int) -> np.ndarray:
    return np.linspace(-extent, extent, n)


def grid_mesh(extent: float, n: int) -> np.ndarray:
    ax = grid_axis(extent, n)
    return ax[:, None] + 1j * ax[None, :]


def cf_excess(phi_fn, extent: float = 4.0, n: int = 161) -> float:
    """max |Phi| - 1 over the default classify scan grid (4, 161)."""
    return float(np.abs(phi_fn(grid_mesh(extent, n))).max() - 1.0)


def vacuum_probability(kind: str, params: dict, displacement: complex = 0j) -> float | None:
    """<0|rho|0> in closed form, or None where the benchmark has none.

    Rotations leave it unchanged.  A displaced diagonal state sum_n w_n |n><n|
    has <0|D rho D^dag|0> = sum_n w_n e^(-|a0|^2) |a0|^(2n) / n!.
    """
    if displacement != 0:
        if kind not in ("fock_element", "fock_mixture", "explicit_fock"):
            return None
        u = abs(displacement) ** 2
        return float(sum(w * math.exp(-u + n * math.log(u) - math.lgamma(n + 1))
                         for n, w in fock_weights(kind, params).items()))
    if kind == "thermal":
        return 1.0 / (1.0 + params["nbar"])
    if kind == "squeezed":
        return 1.0 / math.cosh(params["xi"])
    if kind == "photon_vacuum_mix":
        return 1.0 - params["eta"]
    if kind in ("fock_element", "fock_mixture", "explicit_fock"):
        return fock_weights(kind, params).get(0, 0.0)
    if kind in ("spats", "cauchy_lorentz_ncl"):
        return 0.0
    if kind == "cauchy_lorentz":
        return lorentz_normalizer(params["t"])
    if kind == "p_max":
        return 2.0  # 1/(1 + gamma) at gamma = -1/2
    return None


DIVERGED = "diverged"


def normal_moments(kind: str, params: dict, kmax: int,
                   displacement: complex = 0j) -> list | None:
    """<:n^k:> for k = 0..kmax in closed form, DIVERGED, or None if unknown.

    Rotations keep the photon-number diagonal, so they leave these unchanged.
    """
    ks = range(kmax + 1)
    if displacement != 0:
        if kind == "fock_element" and int(params["m"]) == 0:
            return [abs(displacement) ** (2 * k) for k in ks]
        return None
    if kind == "thermal":
        return [math.factorial(k) * params["nbar"] ** k for k in ks]
    if kind == "p_max":
        return [(-0.5) ** k * math.factorial(k) for k in ks]
    if kind == "photon_vacuum_mix":
        return [1.0] + [params["eta"] if k == 1 else 0.0 for k in ks if k >= 1]
    if kind in ("fock_element", "fock_mixture", "explicit_fock"):
        ws = fock_weights(kind, params)
        return [sum(w * math.exp(gammaln(n + 1) - gammaln(n - k + 1)) for n, w in ws.items() if n >= k)
                for k in ks]
    if kind in ("cauchy_lorentz", "cauchy_lorentz_ncl"):
        # <|alpha|^(2k)> = t B(k+1, t-k): finite only for k < t
        return DIVERGED if params["t"] <= kmax else None
    return None


def hankel_min_eig(moments: list, order: int) -> float:
    h = np.array([[moments[j + k] for k in range(order + 1)] for j in range(order + 1)], dtype=float)
    return float(np.linalg.eigvalsh(h).min())


# ---------------------------------------------------------------------------
# box-filtered distributions
# ---------------------------------------------------------------------------

def sinc2_grid(w: float, ax: np.ndarray) -> np.ndarray:
    """(w^2/pi^2) sinc^2(w x) sinc^2(w p): the filtered vacuum, via numpy.sinc."""
    s = np.sinc(w * ax / math.pi) ** 2
    return (w * w / math.pi**2) * np.outer(s, s)


def filtered_gaussian_grid(lam: float, kap: float, w: float, ax: np.ndarray,
                           center: complex = 0j) -> np.ndarray:
    """w^2 T(w (p - p0); w^2 lam) T(-w (x - x0); w^2 kap), indexed [x, p].

    The filtered density of Phi = exp(-lam Re(beta)^2 - kap Im(beta)^2),
    displaced to ``center`` (a displacement only shifts the filtered density).
    """
    tx = t_transform(-w * (ax - center.real), w * w * kap)
    tp = t_transform(w * (ax - center.imag), w * w * lam)
    return (w * w) * np.outer(tx, tp)


def filtered_grid(phi_fn, w: float, ax: np.ndarray, nodes: int = 160) -> np.ndarray:
    """(1/pi^2) Int d^2beta exp(conj(beta) alpha - beta conj(alpha)) Phi(beta) tri tri.

    Tensor Gauss-Legendre over [-w, w]^2, split at 0 where tri has its kink;
    real part, indexed [x, p].  With beta = u + iv and alpha = x + ip the
    kernel is exp(2i (u p - v x)).
    """
    zl, wl = gl_nodes(-w, 0.0, nodes)
    zr, wr = gl_nodes(0.0, w, nodes)
    z, wz = np.concatenate([zl, zr]), np.concatenate([wl, wr])
    wt = wz * (1.0 - np.abs(z) / w)
    core = phi_fn(z[:, None] + 1j * z[None, :]) * np.outer(wt, wt)  # [u, v]
    ev = np.exp(-2j * np.outer(ax, z))   # [x, v]
    eu = np.exp(2j * np.outer(z, ax))    # [u, p]
    return np.real(ev @ core.T @ eu) / math.pi**2


def regular_density(kind: str, params: dict, displacement: complex = 0j):
    """Closed-form regular P(alpha) of thermal and spats states."""
    a0 = complex(displacement)
    nb = params["nbar"]
    if kind == "thermal":
        return lambda a: np.exp(-np.abs(np.asarray(a) - a0) ** 2 / nb) / (math.pi * nb)
    if kind == "spats":
        def dens(a):
            u = np.abs(np.asarray(a) - a0) ** 2
            return ((nb + 1.0) * u - nb) * np.exp(-u / nb) / (math.pi * nb**3)
        return dens
    raise ValueError(f"no regular density for {kind!r}")
