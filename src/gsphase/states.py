"""Catalog of states and pseudo-states with their closed-form representations.

Every state is rho = D(a0) rho_c D(a0)^dag with a0 = ``spec.displacement``
and rho_c the rotated, undisplaced state, and has one shape (``State``).  A
displacement only translates the Glauber-Sudarshan P function, so the state
carries the characteristic function and the regular phase-space density of
rho (for a Fock mixture or an explicit Fock matrix, Phi is one Laguerre
recurrence per diagonal offset), and everything else of rho_c: the table of
its normally ordered moments <a^dag^r a^q>, its vacuum probability, the
coefficients of its Gaussian characteristic function when it has one, and
its truncated Fock matrix, built per cutoff.

The moment table of each kind comes from one closed form:

- thermal, squeezed, p_max and the vacuum (Gaussian Phi): the
  coefficients of exp(A u^2 + A v^2 + N u v), a finite sum;
- spats: <:n^k:> = k! nbar^(k-1) (k nbar + nbar + k);
- cauchy_lorentz: <:n^k:> = t B(k+1, t-k) for k < t, divergent from k >= t;
  cauchy_lorentz_ncl scales it by 1/(1 - N_t) and keeps the trace 1;
- fock_element, fock_mixture, photon_vacuum_mix and explicit matrices: the
  k-resummation of the matrix over all its rows.

A rotation multiplies the table by a phase; the moments of rho are the
binomial recentring of the table at a0 (``witness.normal_moment``).

Catalog kinds and parameters (JSON wire format ``{"kind": ..., "params": {...}}``):

========================  =========================================
fock_element              m, n >= 0;  |m><n| (physical iff m == n)
thermal                   nbar > 0
squeezed                  xi > 0 (quadrature noise reduced by exp(-2 xi))
spats                     nbar > 0 (single photon added to a thermal field)
photon_vacuum_mix         0 < eta <= 1 (single photon mixed with vacuum)
cauchy_lorentz            t > 0 (regular, classical, heavy-tailed density)
cauchy_lorentz_ncl        t > 0 (vacuum-free nonclassical companion)
p_max                     maximally singular pseudo-state, not physical
fock_mixture              w0, w1, ...: weights of |k><k| (sum to 1)
========================  =========================================

Optional spec modifiers implement alpha -> exp(i phi) alpha + alpha0 on the
closed forms (identity by default).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import betaln, eval_genlaguerre, factorial, gammaln, k0, k1, kv

from . import numerics
from .errors import (NoRegularFormError, ParameterError, TruncationError, TruncationWarning,
                     UnsupportedError)
from .numerics import pointwise

DEFAULT_CUTOFF = 64

#: largest accepted squeezing xi: exp(2 xi) still fits a float
MAX_SQUEEZING = 0.5 * math.log(np.finfo(float).max)

#: largest accepted spats nbar: pi nbar^3, the regular density's denominator,
#: overflows from 3.9e102
MAX_SPATS_NBAR = 1.0e100

#: largest accepted |displacement|; it caps overlap_cutoff at 889
MAX_DISPLACEMENT = 25.0


def overlap_cutoff(alpha0: complex) -> int:
    """Cutoff 64 + ceil(|a0|^2 + 8|a0|), past the Poisson weights of |alpha0>."""
    r = abs(alpha0)
    return DEFAULT_CUTOFF + math.ceil(r * r + 8.0 * r)


#: largest cutoff of ``fock_matrix``: the largest the library builds itself
MAX_CUTOFF = overlap_cutoff(MAX_DISPLACEMENT)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Catalog entry identifier plus optional phase-space modifiers."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    displacement: complex = 0j
    rotation: float = 0.0

    def to_json(self) -> str:
        obj = {"kind": self.kind, "params": {k: float(v) for k, v in sorted(self.params.items())}}
        if self.displacement != 0:
            obj["displacement"] = {"re": self.displacement.real, "im": self.displacement.imag}
        if self.rotation != 0.0:
            obj["rotation"] = self.rotation
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid state JSON: {exc}") from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParameterError("state JSON must be an object with a 'kind' field")
        disp = obj.get("displacement", {"re": 0.0, "im": 0.0})
        try:
            return cls(
                kind=obj["kind"],
                params={k: float(v) for k, v in obj.get("params", {}).items()},
                displacement=complex(disp.get("re", 0.0), disp.get("im", 0.0)),
                rotation=float(obj.get("rotation", 0.0)),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParameterError(f"invalid state JSON field: {exc}") from exc


# ---------------------------------------------------------------------------
# Fock matrices
# ---------------------------------------------------------------------------

@dataclass
class FockMatrix:
    """Truncated density-matrix coefficients rho[m, n] for m, n <= cutoff."""

    matrix: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ParameterError("Fock matrix must be square")

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0] - 1

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def is_hermitian(self, tol: float = 1.0e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


#: terms per step of the k-resummation; bounds its working memory
_RESUM_BLOCK = 4096


def resummed_coefficients(rho: np.ndarray, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """k-resummed coefficients of a truncated Fock matrix, with each sum's last term.

    d[q,r] = sum_k rho[q+k, r+k] sqrt((q+k)! (r+k)!) / (k! q! r!) for k up to
    the cutoff, q, r <= ``order`` (default: the cutoff).  Phi is
    sum_{q,r} d[q,r] (-conj b)^q b^r, the delta-derivative series has
    c[q,r] = (-1)^(q+r) d[q,r] and <a^dag^r a^q> = q! r! d[q,r].  ``last``
    holds the k = cutoff - max(q, r) term of each sum.

    Each term's exponent is 0.5 (R[k, q] + R[k, r]) - lg q! - lg r!, with the
    rising-factorial table R[k, q] = log((k+q)!/k!), the cumulative sum of
    log(k + i) for i = 1..q.  It stays small where q and r are, so the term
    is not the difference of log-factorials near k log k.
    """
    K = rho.shape[0] - 1
    o = K if order is None else min(order, K)
    lg = gammaln(np.arange(o + 1) + 1.0)
    rise = np.zeros((K + 1, o + 1))
    np.cumsum(np.log(np.add.outer(np.arange(K + 1.0), np.arange(1.0, o + 1))), axis=1,
              out=rise[:, 1:])
    pad = np.zeros((K + o + 1,) * 2, dtype=complex)  # zero past the cutoff
    pad[:K + 1, :K + 1] = rho
    # a read-only view: win[k, q, r] = rho[q+k, r+k]
    win = as_strided(pad, (K + 1, o + 1, o + 1), (sum(pad.strides), *pad.strides), writeable=False)
    d = np.zeros((o + 1, o + 1), dtype=complex)
    k0 = 0
    while k0 <= K:
        n = min(K + 1 - k0, o + 1)  # d[q, r] with q or r >= n gets no more terms
        k1 = min(k0 + max(1, _RESUM_BLOCK // (n * n)), K + 1)
        rk = rise[k0:k1, :n]
        t = win[k0:k1, :n, :n] * np.exp(0.5 * (rk[:, :, None] + rk[:, None, :])
                                         - lg[:n, None] - lg[:n])
        t[0] += d[:n, :n]  # the running sum goes first, so k is summed in order
        d[:n, :n] = np.cumsum(t, axis=0)[-1] if k1 > k0 + 1 else t[0]
        k0 = k1
    q = np.arange(o + 1)
    m = K - np.maximum.outer(q, q)  # the last k of each sum
    last = rho[q[:, None] + m, q + m] * np.exp(0.5 * (rise[m, q[:, None]] + rise[m, q])
                                               - lg[q[:, None]] - lg[q])
    return d, last


def creation_exponential(z, cutoff: int) -> np.ndarray:
    """exp(z a^dag) on the Fock space truncated at ``cutoff``, for each z.

    The truncated creation operator is nilpotent, so the Taylor series
    sum_k z^k (a^dag)^k / k! ends at k = cutoff and the result is exact.
    (a^dag)^k / k! lives on the k-th subdiagonal and is built from the one
    before by one more application of a^dag; nothing is cached, so memory
    is z.size (cutoff + 1)^2 whatever cutoffs came before.  The result has
    shape z.shape + (n, n); exp(z a) is the transpose of exp(z a^dag).
    """
    n = cutoff + 1
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (n, n), dtype=complex)
    cols = np.arange(n)
    sub = np.ones(n)  # entries (j + k, j) of (a^dag)^k / k!
    zk = np.ones(z.shape, dtype=complex)
    for k in range(n):
        if k:
            sub = sub[:-1] * np.sqrt(np.arange(k, n)) / k
            zk = zk * z
        out[..., cols[k:], cols[: n - k]] = zk[..., None] * sub
    return out


_MAX_FOCK_INDEX = 400
_FOCK_INDEX_LIMIT = f"Fock indices above {_MAX_FOCK_INDEX} are not supported"


def _fock_index(v) -> int:
    """A Fock index, an integer-valued real from 0 to _MAX_FOCK_INDEX, as int."""
    _require(isinstance(v, numbers.Real) and 0 <= v <= _MAX_FOCK_INDEX and float(v).is_integer(),
             f"Fock indices must be integers from 0 to {_MAX_FOCK_INDEX} (got {v!r})")
    return int(v)


def char_fn_fock_element(m: int, n: int, beta):
    """<n| :D(beta): |m>, the characteristic function of |m><n|.

    sqrt(lo!/hi!) z^d L_lo^(d)(|beta|^2) with lo = min(m, n), d = |m - n|,
    z = -conj(beta) for m > n and beta otherwise (Cahill & Glauber, Phys.
    Rev. 177, 1857 (1969)).  The Laguerre polynomial comes from SciPy's
    recurrence, and its modulus meets the prefactor sqrt(lo!/hi!) |beta|^d
    in log space, so the value keeps its digits for m, n up to 400 wherever
    it is a normal double.  Raises ParameterError unless m and n are integers
    from 0 to 400.
    """
    m, n = _fock_index(m), _fock_index(n)
    lo, d = min(m, n), abs(m - n)

    def element(b):
        r = np.abs(b)
        lag = eval_genlaguerre(lo, d, r * r)
        if not d:
            return lag.astype(complex)
        z = -np.conj(b) if m > n else b
        # one exponent, so neither factor underflows alone; log 0 = -inf
        # gives the exact 0 at beta = 0
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(lag)) + d * np.log(r)
        return np.sign(lag) * np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + d + 1)) + logs
                                     + 1j * d * np.angle(z))

    return pointwise(element, beta)


#: offsets times points per block of the Laguerre recurrence; bounds its working memory
_LAGUERRE_BLOCK = 1 << 15

#: c in the roundoff bound c K eps sum|rho| exp(|beta|^2/2) of ``fock_phi`` on K rows
PHI_ROUNDOFF_FACTOR = 8.0


def fock_phi(rho: np.ndarray) -> Callable:
    """Phi(beta) = sum_{m,n} rho[m,n] <n|:D(beta):|m> of a Hermitian Fock matrix.

    With x = |beta|^2 and t_n^(d) = x^(d/2) sqrt(n!/(n+d)!) L_n^(d)(x), the
    offset-d diagonal sums to S_d = sum_n rho[n+d, n] t_n^(d), and
    Phi = S_0 + sum_{d>=1} [(-conj u)^d S_d + u^d conj(S_d)], u = beta/|beta|.
    The t_n^(d) of every offset with a nonzero diagonal come from one real
    three-term recurrence in n,
    t_(n+1) = ((2n+1+d-x) t_n - sqrt(n(n+d)) t_(n-1)) / sqrt((n+1)(n+d+1)),
    started at t_0^(d) = x^(d/2) / sqrt(d!), so a K-row matrix takes K steps
    per block of points.  Every |t_n^(d)| <= exp(x/2), so roundoff stays
    below c K eps sum|rho| exp(x/2).  The Hermitian part of rho is used;
    rows and columns past the last nonzero entry cost nothing.
    """
    h = 0.5 * (rho + rho.conj().T)
    K = np.flatnonzero(np.abs(h).sum(0)).max(initial=0)
    h = h[:K + 1, :K + 1]
    # offsets with a nonzero diagonal, ascending, so the live ones at step n are a prefix
    ds = np.array([d for d in range(K + 1) if d == 0 or h.diagonal(-d).any()])
    coef = np.zeros((ds.size, K + 1), dtype=complex)  # coef[j, n] = h[n + d_j, n]
    for j, d in enumerate(ds):
        coef[j, : K + 1 - d] = h.diagonal(-d)
    live = K + 1 - ds  # steps of each offset's recurrence
    half_lg = 0.5 * gammaln(ds + 1.0)[:, None]
    dcol = ds[:, None].astype(float)

    def block(b):
        x = b.real ** 2 + b.imag ** 2
        logx = np.log(np.maximum(x, np.finfo(float).tiny))  # x^0 = 1 also at x = 0
        prev, cur = np.zeros((ds.size, b.size)), np.exp(0.5 * dcol * logx - half_lg)
        s = coef[:, :1] * cur
        for n in range(1, K + 1):
            a = int(np.count_nonzero(live > n))
            d = dcol[:a]
            nxt = ((2 * n - 1 + d - x) * cur[:a] - np.sqrt((n - 1) * (n - 1 + d)) * prev[:a]) \
                / np.sqrt(n * (n + d))
            prev, cur = cur[:a], nxt
            s[:a] += coef[:a, n:n + 1] * cur
        out = s[0]
        if ds.size > 1:
            e = np.exp(1j * dcol[1:] * np.angle(b))
            sign = np.where(ds[1:] % 2, -1.0, 1.0)[:, None]
            out += (sign * np.conj(e) * s[1:] + e * np.conj(s[1:])).sum(0)
        return out

    def phi(beta):
        barr = np.asarray(beta, dtype=complex)
        flat = barr.ravel()
        out = np.empty(flat.shape, dtype=complex)
        step = max(1, _LAGUERRE_BLOCK // ds.size)
        for i0 in range(0, flat.size, step):
            out[i0:i0 + step] = block(flat[i0:i0 + step])
        return out.reshape(barr.shape)

    return phi


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass
class State:
    """A state rho = D(a0) rho_c D(a0)^dag with a0 = ``spec.displacement``.

    ``phi_closed``, ``phi_roundoff``, ``regular_p_closed`` and
    ``atom_weight`` describe rho; every other field describes the rotated,
    undisplaced rho_c, which a displacement only translates.
    """

    spec: StateSpec
    physical: bool
    #: the characteristic function Phi(beta) of rho at an array of beta
    phi_closed: Callable
    #: order -> the table T[q, r] = <a^dag^r a^q> of rho_c for q, r <= order,
    #: cut before the first divergent diagonal order
    moments: Callable[[int], np.ndarray]
    #: rho_c[0, 0], the vacuum probability of the undisplaced state
    centred_vacuum: float
    #: n -> the Fock matrix of rho_c truncated at cutoff n
    _base_fock_builder: Callable[[int], np.ndarray]
    #: |roundoff of phi_closed(beta)| <= phi_roundoff * exp(|beta|^2/2); the
    #: catalog closed forms carry none
    phi_roundoff: float = 0.0
    #: (lam, kap) when the Phi of rho_c is the Gaussian exp(-lam x^2 - kap p^2)
    #: (x = Re beta, p = Im beta); when lam == kap, lam is the generator gamma
    #: of the singular series
    gaussian_xp: tuple[float, float] | None = None
    #: closed-form regular phase-space density of rho (None: no regular
    #: form), radially symmetric about spec.displacement
    regular_p_closed: Callable | None = None
    #: weight of an explicit point mass of rho at spec.displacement (cauchy_lorentz_ncl)
    atom_weight: float = 0.0
    #: analytic truncation loss sum_{k > K} rho_c[k, k], when a formula exists
    _tail_loss: Callable[[int], float] | None = None

    def describe(self) -> str:
        parts = [self.spec.kind]
        parts += [f"{k}={v:g}" for k, v in sorted(self.spec.params.items())]
        if self.spec.displacement != 0:
            parts.append(f"displaced by {self.spec.displacement:g}")
        if self.spec.rotation:
            parts.append(f"rotated by {self.spec.rotation:g}")
        return " ".join(parts)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _embedded(m: np.ndarray) -> Callable[[int], np.ndarray]:
    """Fock builder of a finite matrix, zero-padded or cut to each cutoff."""
    def fock(K):
        out = np.zeros((K + 1, K + 1), dtype=complex)
        n = min(K + 1, m.shape[0])
        out[:n, :n] = m[:n, :n]
        return out
    return fock


def _finite_moments(rho: np.ndarray) -> Callable[[int], np.ndarray]:
    """Moments q! r! d[q, r] of a finite Fock matrix, resummed over all its rows.

    The matrix is zero-padded to the order, so entries past its last row are
    exactly zero.  Each factorial multiplies in turn, so no intermediate
    overflows before the moment itself does.
    """
    def moments(order):
        d, _ = resummed_coefficients(_embedded(rho)(max(order, rho.shape[0] - 1)), order)
        f = factorial(np.arange(order + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            return d * f[:, None] * f
    return moments


def _gaussian(lam: float, kap: float) -> dict:
    """State fields of the centred Gaussian Phi(beta) = exp(-lam x^2 - kap p^2).

    With u = beta and v = -conj(beta), Phi = exp(A u^2 + A v^2 + N u v) for
    A = (kap - lam)/4 and N = (lam + kap)/2, so <a^dag^r a^q> is q! r! times
    the coefficient of u^r v^q: the sum over k <= min(q, r) of equal parity of
    q! r! A^(i+j) N^k / (i! j! k!), i = (r-k)/2, j = (q-k)/2.  A circular
    Gaussian (A = 0) keeps only T[q, q] = q! N^q.  A term past the float
    range is inf, and a sum of infinities of both signs nan.
    """
    def phi(beta):
        b = np.asarray(beta, dtype=complex)
        with np.errstate(over="ignore"):  # lam x^2 = inf near MAX_SQUEEZING; exp(-inf) = 0
            return np.exp(-lam * b.real ** 2 - kap * b.imag ** 2)

    a, n = (kap - lam) / 4.0, (lam + kap) / 2.0

    def moments(order):
        q = np.arange(order + 1)
        f = factorial(q)
        table = np.zeros((order + 1, order + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in q:
                j = (q[k::2] - k) // 2
                ratio = f[k::2] / f[j]  # q!/j!, finite wherever q! is
                table[k::2, k::2] += np.outer(ratio / f[k], ratio) * a ** np.add.outer(j, j) * n ** k
        return table.astype(complex)

    return {"gaussian_xp": (lam, kap), "phi_closed": phi, "moments": moments}


def _geometric_diag(nbar: float, cutoff: int) -> np.ndarray:
    q = nbar / (nbar + 1.0)
    return np.diag(q ** np.arange(cutoff + 1) / (nbar + 1.0)).astype(complex)


def _squeezed_amplitudes(xi: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes of exp(-(tanh xi / 2) a^dag^2)|vac> / sqrt(cosh xi)."""
    c = np.zeros(cutoff + 1)
    half_t = math.tanh(xi) / 2.0
    norm = 1.0 / math.sqrt(math.cosh(xi))
    for j in range(0, cutoff // 2 + 1):
        # (-tanh/2)^j sqrt((2j)!)/j!, assembled in log space
        lg = 0.5 * gammaln(2 * j + 1) - gammaln(j + 1) + j * math.log(half_t) if half_t > 0 else (-math.inf if j else 0.0)
        c[2 * j] = norm * ((-1.0) ** j) * math.exp(lg)
    return c


def _spats_diag(nbar: float, cutoff: int) -> np.ndarray:
    # k nbar^(k-1) / (nbar+1)^(k+1) through q = nbar/(nbar+1) < 1: no overflow
    k = np.arange(cutoff + 1, dtype=float)
    q = nbar / (nbar + 1.0)
    return np.diag(k * q ** np.maximum(k - 1, 0) / (nbar + 1.0) ** 2).astype(complex)


def _diagonal_moments(diag: Callable[[np.ndarray], np.ndarray],
                      top: float = math.inf) -> Callable[[int], np.ndarray]:
    """Moment table of a radial state: <:n^k:> = diag(k) on the diagonal for
    k <= order, cut before the first k >= top; inf past the float range."""
    def moments(order):
        k = np.arange(order + 1)
        with np.errstate(over="ignore"):
            return np.diag(diag(k[k < top])).astype(complex)
    return moments


def _lorentz_radial_density(t: float):
    def density(alpha):
        u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
        return (t / math.pi) * np.exp(-(1.0 + t) * np.log1p(u))
    return density


def _lorentz_moments(t: float, scale: float = 1.0) -> Callable[[int], np.ndarray]:
    """<:n^k:> = scale t B(k+1, t-k) for 0 < k < t, divergent from k >= t.

    The trace is 1: the mass t B(1, t) of cauchy_lorentz, and for
    cauchy_lorentz_ncl the density's 1/(1 - N_t) plus its point mass
    -N_t/(1 - N_t) at the centre.
    """
    return _diagonal_moments(
        lambda k: np.where(k == 0, 1.0, scale * t * np.exp(betaln(k + 1.0, t - k))), t)


#: largest integer t whose Lorentz Phi takes the upward recurrence instead of
#: kv.  It covers the small orders in use (verify's t = 1 and 3) with room:
#: on the 5,541 distinct radii of a 161^2 scan the recurrence costs 0.4 ms at
#: t = 1 and 1.1 ms at t = 20, against 2.7-4.6 ms for kv, and its error
#: against 40-digit mpmath stays below 6e-16 (kv's Phi: 5e-14 at t = 20).
#: Integers above it keep kv, so a huge t runs no loop over its order and
#: t >= 100 keeps the RangeError of its non-finite kv Phi.
_K_RECURRENCE_MAX = 20


def _lorentz_phi_recurrence(n: int, r: np.ndarray) -> np.ndarray:
    """Phi_n(r) = (2/Gamma(n)) r^n K_n(2r) at integer n >= 1 and r > 0.

    The forward recurrence K_(j+1)(x) = K_(j-1)(x) + (2j/x) K_j(x), stable for
    K (DLMF 10.29.1), times 2 r^(j+1)/j! at x = 2r reads
    Phi_(j+1) = Phi_j + r^2 Phi_(j-1) / (j (j-1)) for j >= 2, from
    Phi_1 = x K_1(x) and Phi_2 = Phi_1 + 2 r^2 K_0(x).  Every term is positive
    and Phi_j <= 1, so no step cancels or overflows, and r^n / Gamma(n) is
    never formed.
    """
    x = 2.0 * r
    cur = x * k1(x)
    if n == 1:
        return cur
    prev, cur = cur, cur + r * (r * (2.0 * k0(x)))
    for j in range(2, n):
        prev, cur = cur, cur + r * (r * prev) / (j * (j - 1))
    return cur


def _lorentz_phi(t: float):
    """Characteristic function (2/Gamma(t)) |beta|^t K_t(2|beta|).

    Radial Fourier transform of the heavy-tailed density; cross-checked by
    quadrature in the test suite.  Phi depends on |beta| only, so it is
    evaluated once per distinct radius and the values are gathered back to
    the input's shape.  An integer t in 1.._K_RECURRENCE_MAX takes
    ``_lorentz_phi_recurrence`` from k0 and k1, a quarter to a sixth of the
    cost of kv at integer order and more accurate; every other t
    (half-integer, generic, or an integer above the bound) takes kv.
    """
    lg = math.lgamma(t)
    n = int(t) if float(t).is_integer() and 1 <= t <= _K_RECURRENCE_MAX else 0

    def phi(beta):
        b = np.abs(np.asarray(beta, dtype=complex))
        radii, inv = np.unique(b, return_inverse=True)
        out = np.ones(radii.shape, dtype=complex)
        nz = radii > 0
        with np.errstate(invalid="ignore"):  # 0 * inf past kv's range: nan, refused by the scans
            if n:
                out[nz] = _lorentz_phi_recurrence(n, radii[nz])
            else:
                out[nz] = 2.0 * np.exp(t * np.log(radii[nz]) - lg) * kv(t, 2.0 * radii[nz])
        return out[inv.reshape(b.shape)]  # numpy releases differ on inv's shape

    return phi


def _lorentz_fock_diag(t: float, cutoff: int) -> np.ndarray:
    """rho[k, k] = (t/k!) Int_0^inf e^(-u) u^k (1+u)^(-1-t) du, u = |alpha|^2.

    One 16-node Gauss rule in u serves every k, on the dyadic shells
    [2^j, 2^(j+1)] down to 2^-(log2(1+t) + 2), the scale of (1+u)^(-1-t);
    above u = 1 each shell is cut into panels about 2 sqrt(u) wide, the
    width of the peak of e^(-u) u^k at u = k.  The rule reaches past
    k = max(cutoff, overlap_cutoff(MAX_DISPLACEMENT)), so up to that
    cutoff an entry does not depend on the cutoff.
    """
    top = max(cutoff, overlap_cutoff(MAX_DISPLACEMENT))
    edges = [0.0] + [2.0 ** j for j in range(-math.ceil(math.log2(1.0 + t)) - 2, 1)]
    while edges[-1] < top + 10.0 * math.sqrt(top) + 50.0:
        a, m = edges[-1], math.ceil(math.sqrt(edges[-1]) / 2.0)
        edges += [a + a * i / m for i in range(1, m + 1)]
    e = np.array(edges)[:, None]
    u, w = (v.ravel() for v in numerics.gauss_nodes_1d(e[:-1], e[1:], 16))
    k = np.arange(cutoff + 1)[:, None]
    logs = math.log(t) - u - (1.0 + t) * np.log1p(u) + k * np.log(u) - gammaln(k + 1)
    return np.diag(np.exp(logs) @ w).astype(complex)


def vacuum_overlap_normalizer(t: float) -> float:
    """N_t = Int d^2alpha P_cl(alpha; t) exp(-|alpha|^2) = rho[0, 0] of cauchy_lorentz."""
    return float(_lorentz_fock_diag(t, 0)[0, 0].real)


def make_state(spec: StateSpec) -> State:
    """Build a catalog state with every available closed form attached."""
    kind, p = spec.kind, dict(spec.params)
    _require(all(isinstance(v, numbers.Real) for v in [*p.values(), spec.rotation])
             and isinstance(spec.displacement, numbers.Complex),
             "state parameters and rotation must be real numbers and the displacement a number")
    a0 = complex(spec.displacement)
    _require(all(math.isfinite(v) for v in [*p.values(), a0.real, a0.imag, spec.rotation]),
             "state parameters, displacement and rotation must be finite")
    _require(abs(a0) <= MAX_DISPLACEMENT, f"|displacement| must be at most {MAX_DISPLACEMENT:g}")
    if kind == "thermal":
        nbar = p.get("nbar")
        _require(nbar is not None and nbar > 0, "thermal requires nbar > 0")
        st = State(
            spec=spec, physical=True, **_gaussian(nbar, nbar),
            regular_p_closed=lambda a, nb=nbar: np.exp(-np.abs(np.asarray(a, dtype=complex)) ** 2 / nb) / (math.pi * nb),
            centred_vacuum=1.0 / (nbar + 1.0),
            _base_fock_builder=lambda K, nb=nbar: _geometric_diag(nb, K),
            _tail_loss=lambda K, q=nbar / (nbar + 1.0): q ** (K + 1),
        )
    elif kind == "squeezed":
        xi = p.get("xi")
        _require(xi is not None and xi > 0, "squeezed requires xi > 0")
        _require(xi <= MAX_SQUEEZING,
                 f"squeezed requires xi <= {MAX_SQUEEZING:.6f}, above which exp(2 xi) overflows")

        def fock(K, xi=xi):
            c = _squeezed_amplitudes(xi, K)
            return np.outer(c, c).astype(complex)

        st = State(spec=spec, physical=True,
                   **_gaussian((math.exp(2 * xi) - 1.0) / 2.0, -(1.0 - math.exp(-2 * xi)) / 2.0),
                   centred_vacuum=1.0 / math.cosh(xi),
                   _base_fock_builder=fock)
    elif kind == "spats":
        nbar = p.get("nbar")
        _require(nbar is not None and nbar > 0, "spats requires nbar > 0")
        _require(nbar <= MAX_SPATS_NBAR,
                 f"spats requires nbar <= {MAX_SPATS_NBAR:g}, above which pi nbar^3 overflows")

        def phi(beta, nb=nbar):
            u = np.abs(np.asarray(beta, dtype=complex)) ** 2
            return (1.0 - (nb + 1.0) * u) * np.exp(-nb * u)

        def preg(alpha, nb=nbar):
            u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
            return ((nb + 1.0) * u - nb) * np.exp(-u / nb) / (math.pi * nb**3)

        # <:n^k:> = k! nbar^(k-1) (k nbar + nbar + k)
        moments = _diagonal_moments(
            lambda k, nb=nbar: np.exp(gammaln(k + 1.0) + k * math.log(nb)) * (k + 1.0 + k / nb))
        st = State(spec=spec, physical=True, phi_closed=phi, moments=moments,
                   regular_p_closed=preg, centred_vacuum=0.0,
                   _base_fock_builder=lambda K, nb=nbar: _spats_diag(nb, K),
                   _tail_loss=lambda K, q=nbar / (nbar + 1.0):
                       q**K * ((K + 1) * (1.0 - q) + q))
    elif kind == "photon_vacuum_mix":
        eta = p.get("eta")
        _require(eta is not None and 0 < eta <= 1, "photon_vacuum_mix requires 0 < eta <= 1")

        def phi(beta, eta=eta):
            return 1.0 - eta * np.abs(np.asarray(beta, dtype=complex)) ** 2

        rho = np.diag([1.0 - eta, eta])
        st = State(spec=spec, physical=True, phi_closed=phi, moments=_finite_moments(rho),
                   centred_vacuum=1.0 - eta, _base_fock_builder=_embedded(rho),
                   _tail_loss=lambda K, eta=eta: 0.0 if K >= 1 else eta)
    elif kind == "fock_element":
        _require("m" in p and "n" in p, "fock_element requires m, n >= 0")
        m, n = _fock_index(p["m"]), _fock_index(p["n"])
        unit = np.zeros((max(m, n) + 1,) * 2)
        unit[m, n] = 1.0
        st = State(spec=spec, physical=(m == n),
                   **(_gaussian(0.0, 0.0) if m == n == 0 else
                      {"phi_closed": lambda b, m=m, n=n: char_fn_fock_element(m, n, b),
                       "moments": _finite_moments(unit)}),
                   centred_vacuum=float(m == n == 0),
                   _base_fock_builder=_embedded(unit),
                   _tail_loss=lambda K, m=m, n=n: 0.0 if K >= max(m, n) else 1.0)
    elif kind == "fock_mixture":
        keys = [k for k in p if k.startswith("w")]
        _require(all(k[1:].isdigit() for k in keys),
                 "fock_mixture weight keys must be w0, w1, ...")
        weights = {int(k[1:]): float(p[k]) for k in keys}
        _require(bool(weights) and all(v >= 0 for v in weights.values()),
                 "fock_mixture requires non-negative weights w0, w1, ...")
        _require(abs(sum(weights.values()) - 1.0) < 1.0e-9, "fock_mixture weights must sum to 1")
        _require(max(weights) <= _MAX_FOCK_INDEX, _FOCK_INDEX_LIMIT)

        diag = np.diag([weights.get(k, 0.0) for k in range(max(weights) + 1)])
        st = State(spec=spec, physical=True, phi_closed=fock_phi(diag),
                   moments=_finite_moments(diag), centred_vacuum=weights.get(0, 0.0),
                   _base_fock_builder=_embedded(diag),
                   _tail_loss=lambda K, ws=weights: sum(v for k, v in ws.items() if k > K))
    elif kind == "cauchy_lorentz":
        t = p.get("t")
        _require(t is not None and t > 0, "cauchy_lorentz requires t > 0")
        st = State(spec=spec, physical=True, phi_closed=_lorentz_phi(t),
                   moments=_lorentz_moments(t), regular_p_closed=_lorentz_radial_density(t),
                   centred_vacuum=vacuum_overlap_normalizer(t),
                   _base_fock_builder=lambda K, t=t: _lorentz_fock_diag(t, K))
    elif kind == "cauchy_lorentz_ncl":
        t = p.get("t")
        _require(t is not None and t > 0, "cauchy_lorentz_ncl requires t > 0")
        norm = vacuum_overlap_normalizer(t)
        scale = 1.0 / (1.0 - norm)
        phi_cl = _lorentz_phi(t)
        dens = _lorentz_radial_density(t)

        def phi(beta, phi_cl=phi_cl, norm=norm, scale=scale):
            return (phi_cl(beta) - norm) * scale

        def fock(K, t=t, norm=norm, scale=scale):
            d = _lorentz_fock_diag(t, K)
            d[0, 0] -= norm
            return d * scale

        st = State(spec=spec, physical=True, phi_closed=phi, moments=_lorentz_moments(t, scale),
                   regular_p_closed=lambda a, dens=dens, scale=scale: dens(a) * scale,
                   atom_weight=-norm * scale,
                   centred_vacuum=0.0, _base_fock_builder=fock)
    elif kind == "p_max":
        st = State(
            spec=spec, physical=False, **_gaussian(-0.5, -0.5),
            centred_vacuum=2.0,
            _base_fock_builder=_pmax_fock_diag,
        )
    else:
        raise ParameterError(f"unknown state kind {kind!r}")

    if spec.displacement != 0 or spec.rotation != 0.0:
        st = _apply_modifiers(st)
    return st


def _pmax_fock_diag(cutoff: int) -> np.ndarray:
    # diagonal gamma^k/(1+gamma)^(k+1) at gamma = -1/2; not a density operator
    k = np.arange(cutoff + 1)
    return np.diag(2.0 * (-1.0) ** k).astype(complex)


def _apply_modifiers(st: State) -> State:
    """Apply alpha -> exp(i phi) alpha + alpha0 to a catalog state.

    This is where the invariants are decided.  A rotation keeps whatever
    depends only on the photon-number diagonal (the vacuum probability and
    the tail loss), multiplies the moment table T[q, r] by
    exp(i phi (q - r)), as it does rho[m, n] by exp(i phi (m - n)), and keeps
    a Gaussian characteristic function only when it is circular (lam == kap,
    the generator).  A displacement D(alpha0) only translates the P
    function: it multiplies Phi by exp(beta conj(alpha0) - conj(beta) alpha0)
    and moves the regular density and its point mass to alpha0.  Every other
    field keeps describing the rotated, undisplaced state (``State``).
    """
    phi0, a0 = st.spec.rotation, complex(st.spec.displacement)
    base_phi, base_p, builder = st.phi_closed, st.regular_p_closed, st._base_fock_builder
    if phi0:
        rot = np.exp(-1j * phi0)
        base_moments = st.moments

        def fock(K):
            ph = np.exp(1j * phi0 * np.arange(K + 1))
            return builder(K) * np.outer(ph, ph.conj())

        def moments(order):
            table = base_moments(order)
            q = np.arange(table.shape[0])
            with np.errstate(invalid="ignore"):  # inf * (1 + 0j) has a nan imaginary part
                return table * np.exp(1j * phi0 * np.subtract.outer(q, q))

        circular = st.gaussian_xp is not None and st.gaussian_xp[0] == st.gaussian_xp[1]
        st = replace(st, gaussian_xp=st.gaussian_xp if circular else None, moments=moments,
                     phi_closed=lambda b: base_phi(rot * np.asarray(b, dtype=complex)),
                     regular_p_closed=None if base_p is None else
                     lambda a: base_p(rot * np.asarray(a, dtype=complex)),
                     _base_fock_builder=fock)
    if a0 == 0:
        return st
    phi_c, p_c = st.phi_closed, st.regular_p_closed

    def phi_closed(beta):
        b = np.asarray(beta, dtype=complex)
        return np.exp(b * np.conj(a0) - np.conj(b) * a0) * phi_c(b)

    return replace(st, phi_closed=phi_closed, regular_p_closed=None if p_c is None else
                   lambda a: p_c(np.asarray(a, dtype=complex) - a0))


def from_fock_matrix(matrix, *, physical: bool = True) -> State:
    """A state defined by an explicit Hermitian Fock matrix of at most 401 rows.

    Phi is the Laguerre sum of ``fock_phi`` over the whole matrix.  Evaluating
    it raises TruncationError when the matrix of a physical state misses
    more than 1e-6 of the trace.  ``phi_roundoff`` carries the roundoff
    bound of the recurrence.
    """
    fm = FockMatrix(matrix)
    _require(fm.cutoff <= _MAX_FOCK_INDEX, _FOCK_INDEX_LIMIT)
    _require(fm.is_hermitian(1.0e-9), "explicit Fock matrix must be Hermitian")
    loss = max(0.0, 1.0 - fm.trace()) if physical else 0.0
    laguerre = fock_phi(fm.matrix)

    def phi(beta):
        if loss > 1.0e-6:
            raise TruncationError(f"Fock route needs truncation loss < 1e-6; got {loss:.3e}")
        return laguerre(beta)

    return State(spec=StateSpec(kind="explicit_fock"), physical=physical, phi_closed=phi,
                 moments=_finite_moments(fm.matrix),
                 phi_roundoff=PHI_ROUNDOFF_FACTOR * fm.matrix.shape[0] * np.finfo(float).eps
                 * float(np.abs(fm.matrix).sum()),
                 centred_vacuum=float(fm.matrix[0, 0].real),
                 _base_fock_builder=_embedded(fm.matrix))


def fock_matrix(state: State, cutoff: int = DEFAULT_CUTOFF) -> FockMatrix:
    """Truncated Fock matrix with its reported truncation loss.

    Physical states report loss = 1 - trace of the truncation; a loss above
    1e-6 triggers a TruncationWarning.  The p_max pseudo-state is exempt
    from the loss accounting (its diagonal is not summable).  Raises
    ParameterError, before anything is built, unless the cutoff is an
    integer from 0 to ``MAX_CUTOFF`` (889), and UnsupportedError for a
    displaced state, whose builder gives the Fock matrix of rho_c only.
    """
    _require(isinstance(cutoff, numbers.Integral) and 0 <= cutoff <= MAX_CUTOFF,
             f"cutoff must be an integer from 0 to {MAX_CUTOFF} (got {cutoff!r})")
    if state.spec.displacement != 0:
        raise UnsupportedError("no Fock construction for a displaced state")
    rho = state._base_fock_builder(cutoff)
    if not state.physical:
        loss = 0.0
    elif state._tail_loss is not None:
        loss = float(state._tail_loss(cutoff))
    else:
        loss = max(0.0, 1.0 - float(np.real(np.trace(rho))))
    if state.physical and loss > 1.0e-6:
        warnings.warn(
            f"Fock truncation loss {loss:.3e} at cutoff {cutoff} for {state.describe()}",
            TruncationWarning, stacklevel=2,
        )
    return FockMatrix(rho, truncation_loss=loss)


def regular_p(state: State, alpha):
    """Closed-form regular part of the phase-space density.

    For ``cauchy_lorentz_ncl`` this is the continuous part only; the point
    mass at the displacement is reported separately in ``state.atom_weight``.
    """
    if state.regular_p_closed is None:
        raise NoRegularFormError(
            f"state kind {state.spec.kind!r} has no regular phase-space density"
        )
    return pointwise(lambda a: np.real(np.real_if_close(state.regular_p_closed(a), tol=1000)),
                     alpha)
