"""Catalog of states and pseudo-states with their closed-form representations.

Every state is rho = D(a0) R(phi) rho_u R(phi)^dag D(a0)^dag with
a0 = ``spec.displacement``, R(phi) the rotation alpha -> exp(i phi) alpha at
phi = ``spec.rotation``, and rho_u the unrotated, undisplaced state, and has
one shape (``State``).  Every field a state stores describes rho_u: its
characteristic function Phi_u (for a Fock mixture or an explicit Fock
matrix, one Laguerre recurrence per diagonal offset), its regular
phase-space density about the origin, the table of its normally ordered
moments <a^dag^r a^q>, the coefficients of its Gaussian characteristic
function when it has one, and its truncated Fock matrix, built per cutoff,
whose [0, 0] entry is its vacuum weight.  The rotated, undisplaced
rho_c = R(phi) rho_u R(phi)^dag is derived from them: Phi_c(beta) =
Phi_u(exp(-i phi) beta), and the moment table and the Fock matrix both take
the one phase exp(i phi (q - r)) on entry [q, r] (``State.phi_centred``,
``State.moments``, ``State.fock``, ``State.gaussian_xp``).  A displacement
only translates the Glauber-Sudarshan P function: the Phi of rho is Phi_c
times the displacement phase, and its density rho_c's at alpha - a0
(``State.phi_closed``, ``State.regular_p_closed``).  A radial state is
invariant under a rotation, so it takes phi = 0 everywhere.

Most kinds are members of three families, each built by one constructor:

- the generator family exp(gamma d_alpha d_alpha*) delta(alpha)
  (``_generator``): thermal at gamma = nbar, the vacuum at 0 and p_max at
  -1/2, with Gaussian Phi, the geometric Fock diagonal and its tail;
- finite Fock matrices (``_finite``): fock_element other than the vacuum,
  fock_mixture, photon_vacuum_mix and explicit matrices, whose moments are
  the k-resummation of the matrix over all its rows;
- the Lorentz pair (``_lorentz``): cauchy_lorentz, with
  <:n^k:> = t B(k+1, t-k) for k < t, divergent from k >= t, and
  cauchy_lorentz_ncl, which drops its vacuum weight N_t and scales by
  1/(1 - N_t).

squeezed (a Gaussian, exp(A u^2 + A v^2 + N u v)) and spats
(<:n^k:> = k! nbar^(k-1) (k nbar + nbar + k)) are built on their own.  The
moments of rho are the binomial recentring of rho_c's table at a0
(``witness.normal_moment``).

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

The optional spec modifiers, ``rotation`` and ``displacement``, give
alpha -> exp(i phi) alpha + a0 (identity by default).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import betaln, eval_genlaguerre, factorial, gammaln, k0, k1, kv, xlogy

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
        params, disp = obj.get("params", {}), obj.get("displacement", {})
        _require(isinstance(params, dict) and all(map(_is_number, params.values())),
                 "state JSON field 'params' must be an object of numbers, as {\"nbar\": 0.5}")
        _require(isinstance(disp, dict) and set(disp) <= {"re", "im"}
                 and all(map(_is_number, disp.values())),
                 "state JSON field 'displacement' must be an object {\"re\": number, "
                 "\"im\": number}")
        _require(_is_number(obj.get("rotation", 0.0)), "state JSON field 'rotation' must be a number")
        try:
            return cls(kind=obj["kind"], params={k: float(v) for k, v in params.items()},
                       displacement=complex(disp.get("re", 0.0), disp.get("im", 0.0)),
                       rotation=float(obj.get("rotation", 0.0)))
        except OverflowError as exc:  # an integer literal past the float range
            raise ParameterError(f"state JSON numbers must fit a float: {exc}") from exc


# ---------------------------------------------------------------------------
# Fock matrices
# ---------------------------------------------------------------------------

@dataclass
class FockMatrix:
    """Truncated density-matrix coefficients rho[m, n] for m, n <= cutoff."""

    matrix: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        try:
            self.matrix = np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError) as exc:  # a ragged or non-numeric input
            raise ParameterError(f"Fock matrix must be a numeric array: {exc}") from exc
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1] \
                or not self.matrix.size:
            raise ParameterError("Fock matrix must be square, with at least one row")

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
        x = np.abs(b) ** 2
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
    """A state rho = D(a0) R(phi) rho_u R(phi)^dag D(a0)^dag.

    a0 = ``spec.displacement`` and phi = ``spec.rotation``; R(phi) maps
    alpha -> exp(i phi) alpha.  Every stored field describes the unrotated,
    undisplaced rho_u; ``atom_weight`` and ``phi_roundoff`` hold for rho,
    rho_c and rho_u alike.  The rotated, undisplaced rho_c =
    R(phi) rho_u R(phi)^dag, which a displacement only translates, is
    derived here, and only here: its Phi (``phi_centred``), its moment
    table (``moments``), its Fock matrix (``fock``) and its Gaussian pair
    (``gaussian_xp``).  So are the Phi and the regular density of rho,
    ``phi_closed`` and ``regular_p_closed``.  A radial state takes the
    rotation 0 everywhere: a rotation leaves it as it is.
    """

    spec: StateSpec
    physical: bool
    #: the characteristic function Phi_u(beta) of rho_u at an array of beta
    phi_unrotated: Callable
    #: order -> the table T[q, r] = <a^dag^r a^q> of rho_u for q, r <= order,
    #: cut before the first divergent diagonal order
    moments_unrotated: Callable[[int], np.ndarray]
    #: n -> the Fock matrix of rho_u truncated at cutoff n; its [0, 0] entry,
    #: the vacuum weight of rho_u and rho_c, does not depend on n
    _base_fock_builder: Callable[[int], np.ndarray]
    #: |roundoff of phi_unrotated(beta)| <= phi_roundoff * exp(|beta|^2/2);
    #: the catalog closed forms carry none
    phi_roundoff: float = 0.0
    #: (lam, kap) when Phi_u is the Gaussian exp(-lam x^2 - kap p^2)
    #: (x = Re beta, p = Im beta); when lam == kap, lam is the generator gamma
    #: of the singular series
    _xp: tuple[float, float] | None = None
    #: closed-form regular phase-space density of rho_u (None: no regular
    #: form), radially symmetric about the origin, so rho_c's too
    regular_p_centred: Callable | None = None
    #: weight of an explicit point mass at the centre (cauchy_lorentz_ncl)
    atom_weight: float = 0.0
    #: True when Phi_u depends on |beta| alone: rho_u is diagonal in Fock
    #: space (thermal, vacuum, p_max, spats, photon_vacuum_mix, fock_element
    #: with m == n, fock_mixture, both Lorentz kinds, a diagonal explicit
    #: matrix).  Then rho_c = rho_u, and a displacement keeps ``radial``
    #: too.  The scans and the numeric filter then evaluate Phi_c once per
    #: distinct |beta| of one quadrant of their meshes
    #: (``numerics.radial_orbits``).
    radial: bool = False
    #: analytic truncation loss sum_{k > K} rho_u[k, k], when a formula
    #: exists; a rotation keeps the diagonal, so it is rho_c's too
    _tail_loss: Callable[[int], float] | None = None

    @property
    def _rotation(self) -> float:
        """The phi of rho_c = R(phi) rho_u R(phi)^dag: 0 for a radial state."""
        return 0.0 if self.radial else self.spec.rotation

    def _rotated(self, table: np.ndarray) -> np.ndarray:
        """A [q, r] table of rho_u times exp(i phi (q - r)): rho_c's.

        The one rotation formula: a -> exp(i phi) a multiplies the moment
        <a^dag^r a^q> and the Fock entry rho[q, r] alike, and leaves the
        diagonal exactly as it is.  At phi = 0 the table is returned as it is.
        """
        phi, q = self._rotation, np.arange(table.shape[0])
        if not phi:
            return table
        with np.errstate(invalid="ignore"):  # inf * (1 + 0j) has a nan imaginary part
            return table * np.exp(1j * phi * np.subtract.outer(q, q))

    @property
    def phi_centred(self) -> Callable:
        """The characteristic function Phi_c(beta) = Phi_u(exp(-i phi) beta)
        of rho_c at an array of beta: ``phi_unrotated`` itself at phi = 0."""
        phi_u, rot = self.phi_unrotated, np.exp(-1j * self._rotation)
        return (lambda b: phi_u(rot * np.asarray(b, dtype=complex))) if self._rotation else phi_u

    def moments(self, order: int) -> np.ndarray:
        """The table T[q, r] = <a^dag^r a^q> of rho_c for q, r <= order, cut
        before the first divergent diagonal order."""
        return self._rotated(self.moments_unrotated(order))

    def fock(self, cutoff: int) -> np.ndarray:
        """The Fock matrix of rho_c truncated at ``cutoff``; its [0, 0] entry,
        the vacuum weight of rho_c, does not depend on the cutoff."""
        return self._rotated(self._base_fock_builder(cutoff))

    @property
    def gaussian_xp(self) -> tuple[float, float] | None:
        """(lam, kap) when Phi_c is the Gaussian exp(-lam x^2 - kap p^2);
        None when rho_u has none or a rotation tilts its axes."""
        return None if self._rotation else self._xp

    @property
    def phi_closed(self) -> Callable:
        """The characteristic function Phi(beta) of rho at an array of beta:
        ``phi_centred`` times ``_displacement_phase``, itself at a0 = 0."""
        a0, phi_c = complex(self.spec.displacement), self.phi_centred
        if a0 == 0:
            return phi_c

        def phi(beta):
            b = np.asarray(beta, dtype=complex)
            return _displacement_phase(a0, b) * phi_c(b)

        return phi

    @property
    def regular_p_closed(self) -> Callable | None:
        """The regular density of rho, ``regular_p_centred`` at alpha - a0
        (None when rho_u has no regular form)."""
        a0, p_c = complex(self.spec.displacement), self.regular_p_centred
        if a0 == 0 or p_c is None:
            return p_c
        return lambda a: p_c(np.asarray(a, dtype=complex) - a0)

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


def _is_number(v, kind: type = numbers.Real) -> bool:
    """True for a number of ``kind`` that is not a bool (True is a numbers.Real)."""
    return isinstance(v, kind) and not isinstance(v, bool)


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
            if lam == kap:  # circular: a function of |beta| alone, as every radial Phi
                return np.exp(-lam * np.abs(b) ** 2)
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

    return {"_xp": (lam, kap), "phi_unrotated": phi, "moments_unrotated": moments,
            "radial": lam == kap}


def _generator(spec: StateSpec, gamma: float, *, physical: bool = True, **fields) -> State:
    """A member of the generator family exp(gamma d_alpha d_alpha*) delta(alpha).

    Phi = exp(-gamma |beta|^2), and rho_u is diag(q^k / (1 + gamma)) with
    q = gamma / (1 + gamma): thermal at gamma = nbar, the vacuum at 0 and
    the p_max pseudo-state at -1/2.  The tail past cutoff K is q^(K+1).
    """
    q = gamma / (1.0 + gamma)

    def fock(K):
        return np.diag(q ** np.arange(K + 1) / (1.0 + gamma)).astype(complex)

    return State(spec=spec, physical=physical, **_gaussian(gamma, gamma),
                 _base_fock_builder=fock, _tail_loss=lambda K: q ** (K + 1), **fields)


def _finite(spec: StateSpec, rho: np.ndarray, *, physical: bool = True,
            phi: Callable | None = None, **fields) -> State:
    """A state whose rho_u is the finite Fock matrix ``rho``.

    Its moments, Fock builder and ``radial`` all come from ``rho``, and so
    does Phi_u (``fock_phi``) unless ``phi`` gives a closed form.
    """
    return State(spec=spec, physical=physical, phi_unrotated=fock_phi(rho) if phi is None else phi,
                 moments_unrotated=_finite_moments(rho),
                 radial=bool(np.count_nonzero(rho) == np.count_nonzero(rho.diagonal())),
                 _base_fock_builder=_embedded(rho), **fields)


def _squeezed_amplitudes(xi: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes of exp(-(tanh xi / 2) a^dag^2)|vac> / sqrt(cosh xi).

    c[2j] = (-tanh/2)^j sqrt((2j)!)/j!, assembled in log space; xlogy keeps
    c = e_0 where tanh xi / 2 underflows to 0.
    """
    c = np.zeros(cutoff + 1)
    j = np.arange(cutoff // 2 + 1)
    lg = 0.5 * gammaln(2 * j + 1) - gammaln(j + 1) + xlogy(j, math.tanh(xi) / 2.0)
    c[::2] = 1.0 / math.sqrt(math.cosh(xi)) * np.where(j % 2, -1.0, 1.0) * np.exp(lg)
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
    quadrature in the test suite.  An integer t in 1.._K_RECURRENCE_MAX
    takes ``_lorentz_phi_recurrence`` from k0 and k1, a quarter to a sixth
    of the cost of kv at integer order and more accurate; every other t
    (half-integer, generic, or an integer above the bound) takes kv.
    """
    lg = math.lgamma(t)
    n = int(t) if float(t).is_integer() and 1 <= t <= _K_RECURRENCE_MAX else 0

    def phi(beta):
        r = np.abs(np.asarray(beta, dtype=complex))
        out = np.ones(r.shape, dtype=complex)
        nz = r > 0
        with np.errstate(invalid="ignore"):  # 0 * inf past kv's range: nan, refused by the scans
            if n:
                out[nz] = _lorentz_phi_recurrence(n, r[nz])
            else:
                out[nz] = 2.0 * np.exp(t * np.log(r[nz]) - lg) * kv(t, 2.0 * r[nz])
        return out

    return phi


def _lorentz_fock_rule(t: float) -> Callable[[int], np.ndarray]:
    """K -> diag(rho[k, k]) for k <= K of cauchy_lorentz, from one rule.

    rho[k, k] = (t/k!) Int_0^inf e^(-u) u^k (1+u)^(-1-t) du, u = |alpha|^2.
    One 16-node Gauss rule in u serves every k, on the dyadic shells
    [2^j, 2^(j+1)] down to 2^-(log2(1+t) + 2), the scale of (1+u)^(-1-t);
    above u = 1 each shell is cut into panels about 2 sqrt(u) wide, the
    width of the peak of e^(-u) u^k at u = k.  The rule reaches past
    k = overlap_cutoff(MAX_DISPLACEMENT) = ``MAX_CUTOFF``, the largest
    cutoff built, so it is built once per state, with the k-free part
    log t - u - (1 + t) log1p u of each exponent.  The vacuum weight N_t =
    rho[0, 0] is that rule's k = 0 sum on its own, and it is the [0, 0]
    entry at every cutoff: the one product over all k rounds its first row
    differently as the row count changes.
    """
    edges = [0.0] + [2.0 ** j for j in range(-math.ceil(math.log2(1.0 + t)) - 2, 1)]
    while edges[-1] < MAX_CUTOFF + 10.0 * math.sqrt(MAX_CUTOFF) + 50.0:
        a, m = edges[-1], math.ceil(math.sqrt(edges[-1]) / 2.0)
        edges += [a + a * i / m for i in range(1, m + 1)]
    e = np.array(edges)[:, None]
    u, w = (v.ravel() for v in numerics.gauss_nodes_1d(e[:-1], e[1:], 16))
    base, log_u = math.log(t) - u - (1.0 + t) * np.log1p(u), np.log(u)
    vacuum = float(np.exp(base) @ w)

    def fock(K):
        k = np.arange(K + 1)[:, None]
        d = np.exp(base + k * log_u - gammaln(k + 1)) @ w
        d[0] = vacuum
        return np.diag(d).astype(complex)

    return fock


def _lorentz(spec: StateSpec, t: float, *, vacuum_free: bool) -> State:
    """cauchy_lorentz, or with ``vacuum_free`` its companion cauchy_lorentz_ncl.

    The companion takes N_t = rho[0, 0] off the Lorentz state, as a point
    mass -N_t at the centre, and rescales by 1/(1 - N_t) to keep the trace.
    """
    diag = _lorentz_fock_rule(t)
    norm = float(diag(0)[0, 0].real)
    drop, scale = (norm, 1.0 / (1.0 - norm)) if vacuum_free else (0.0, 1.0)
    phi_cl, dens = _lorentz_phi(t), _lorentz_radial_density(t)

    def fock(K):
        d = diag(K)
        d[0, 0] -= drop
        return d * scale

    return State(spec=spec, physical=True, phi_unrotated=lambda b: (phi_cl(b) - drop) * scale,
                 moments_unrotated=_lorentz_moments(t, scale), radial=True,
                 regular_p_centred=lambda a: dens(a) * scale,
                 atom_weight=0.0 - drop * scale,  # +0.0, not -0.0, without a point mass
                 _base_fock_builder=fock)


def make_state(spec: StateSpec) -> State:
    """Build a catalog state with every available closed form attached."""
    kind, p = spec.kind, dict(spec.params)
    _require(all(map(_is_number, [*p.values(), spec.rotation]))
             and _is_number(spec.displacement, numbers.Complex),
             "state parameters and rotation must be real numbers and the displacement a number "
             "(not bools)")
    a0 = complex(spec.displacement)
    _require(all(math.isfinite(v) for v in [*p.values(), a0.real, a0.imag, spec.rotation]),
             "state parameters, displacement and rotation must be finite")
    _require(abs(a0) <= MAX_DISPLACEMENT, f"|displacement| must be at most {MAX_DISPLACEMENT:g}")
    if kind == "thermal":
        nbar = p.get("nbar")
        _require(nbar is not None and nbar > 0, "thermal requires nbar > 0")
        return _generator(spec, nbar, regular_p_centred=lambda a: np.exp(
            -np.abs(np.asarray(a, dtype=complex)) ** 2 / nbar) / (math.pi * nbar))
    elif kind == "squeezed":
        xi = p.get("xi")
        _require(xi is not None and xi > 0, "squeezed requires xi > 0")
        _require(xi <= MAX_SQUEEZING,
                 f"squeezed requires xi <= {MAX_SQUEEZING:.6f}, above which exp(2 xi) overflows")

        def fock(K, xi=xi):
            c = _squeezed_amplitudes(xi, K)
            return np.outer(c, c).astype(complex)

        return State(spec=spec, physical=True,
                     **_gaussian((math.exp(2 * xi) - 1.0) / 2.0, -(1.0 - math.exp(-2 * xi)) / 2.0),
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
        return State(spec=spec, physical=True, phi_unrotated=phi, moments_unrotated=moments,
                     radial=True, regular_p_centred=preg,
                     _base_fock_builder=lambda K, nb=nbar: _spats_diag(nb, K),
                     _tail_loss=lambda K, q=nbar / (nbar + 1.0):
                         q**K * ((K + 1) * (1.0 - q) + q))
    elif kind == "photon_vacuum_mix":
        eta = p.get("eta")
        _require(eta is not None and 0 < eta <= 1, "photon_vacuum_mix requires 0 < eta <= 1")
        return _finite(spec, np.diag([1.0 - eta, eta]),
                       phi=lambda b: 1.0 - eta * np.abs(np.asarray(b, dtype=complex)) ** 2)
    elif kind == "fock_element":
        _require("m" in p and "n" in p, "fock_element requires m, n >= 0")
        m, n = _fock_index(p["m"]), _fock_index(p["n"])
        if m == n == 0:
            return _generator(spec, 0.0)
        unit = np.zeros((max(m, n) + 1,) * 2)
        unit[m, n] = 1.0
        return _finite(spec, unit, physical=m == n, phi=lambda b: char_fn_fock_element(m, n, b))
    elif kind == "fock_mixture":
        keys = [k for k in p if k.startswith("w")]
        _require(all(k[1:].isdigit() for k in keys),
                 "fock_mixture weight keys must be w0, w1, ...")
        weights = {int(k[1:]): float(p[k]) for k in keys}
        _require(bool(weights) and all(v >= 0 for v in weights.values()),
                 "fock_mixture requires non-negative weights w0, w1, ...")
        _require(abs(sum(weights.values()) - 1.0) < 1.0e-9, "fock_mixture weights must sum to 1")
        _require(max(weights) <= _MAX_FOCK_INDEX, _FOCK_INDEX_LIMIT)

        return _finite(spec, np.diag([weights.get(k, 0.0) for k in range(max(weights) + 1)]))
    elif kind in ("cauchy_lorentz", "cauchy_lorentz_ncl"):
        t = p.get("t")
        _require(t is not None and t > 0, f"{kind} requires t > 0")
        return _lorentz(spec, t, vacuum_free=kind == "cauchy_lorentz_ncl")
    elif kind == "p_max":
        return _generator(spec, -0.5, physical=False)
    else:
        raise ParameterError(f"unknown state kind {kind!r}")


def _displacement_phase(a0: complex, beta: np.ndarray) -> np.ndarray:
    """exp(beta conj(a0) - conj(beta) a0) = exp(-2i Im(a0) x) exp(2i Re(a0) p).

    With beta = x + i p the phase separates, and it is formed as that product
    of two exps at every input.  On a tensor mesh (``numerics.mesh_axes``)
    each exp is taken once per row or column and the phase is their outer
    product, element for element the same product, so a mesh and its points
    one at a time give the same bits.
    """
    def row(c, t):
        return np.exp(1j * (c * t))

    cx, cp = -2.0 * a0.imag, 2.0 * a0.real
    axes = numerics.mesh_axes(beta)
    if axes is not None:
        return np.outer(row(cx, axes[0]), row(cp, axes[1]))
    return row(cx, beta.real) * row(cp, beta.imag)


def from_fock_matrix(matrix, *, physical: bool = True) -> State:
    """A state defined by an explicit Hermitian Fock matrix of at most 401 rows.

    Phi is the Laguerre sum of ``fock_phi`` over the whole matrix.  Evaluating
    it raises TruncationError when the matrix of a physical state misses
    more than 1e-6 of the trace.  ``phi_roundoff`` carries the roundoff
    bound of the recurrence.  Raises ParameterError for a matrix that is
    empty, ragged, not numeric, not square, larger than 401 rows, not
    finite or not Hermitian.
    """
    fm = FockMatrix(matrix)
    _require(fm.cutoff <= _MAX_FOCK_INDEX, _FOCK_INDEX_LIMIT)
    _require(bool(np.all(np.isfinite(fm.matrix))), "explicit Fock matrix must be finite")
    _require(fm.is_hermitian(1.0e-9), "explicit Fock matrix must be Hermitian")
    loss = max(0.0, 1.0 - fm.trace()) if physical else 0.0
    laguerre = fock_phi(fm.matrix)

    def phi(beta):
        if loss > 1.0e-6:
            raise TruncationError(f"Fock route needs truncation loss < 1e-6; got {loss:.3e}")
        return laguerre(beta)

    return _finite(StateSpec(kind="explicit_fock"), fm.matrix, physical=physical, phi=phi,
                   phi_roundoff=PHI_ROUNDOFF_FACTOR * fm.matrix.shape[0] * np.finfo(float).eps
                   * float(np.abs(fm.matrix).sum()))


def fock_matrix(state: State, cutoff: int = DEFAULT_CUTOFF) -> FockMatrix:
    """Truncated Fock matrix with its reported truncation loss.

    The matrix is ``State.fock``: rho_u's, rotated to rho_c.  Physical
    states report the weight of rho_c past the cutoff, which a rotation
    leaves as rho_u's: the analytic tail for the generator family and
    spats, 1 - trace of the truncation for every other kind.  A loss above
    1e-6 triggers a TruncationWarning.  The p_max pseudo-state is exempt
    from the loss accounting (its diagonal is not summable).  Raises
    ParameterError, before anything is built, unless the cutoff is an
    integer from 0 to ``MAX_CUTOFF`` (889), and UnsupportedError for a
    displaced state, whose ``State.fock`` is the Fock matrix of rho_c only.
    """
    _require(isinstance(cutoff, numbers.Integral) and 0 <= cutoff <= MAX_CUTOFF,
             f"cutoff must be an integer from 0 to {MAX_CUTOFF} (got {cutoff!r})")
    if state.spec.displacement != 0:
        raise UnsupportedError("no Fock construction for a displaced state")
    rho = state.fock(cutoff)
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
    p = state.regular_p_closed
    if p is None:
        raise NoRegularFormError(
            f"state kind {state.spec.kind!r} has no regular phase-space density"
        )
    return pointwise(lambda a: np.real(np.real_if_close(p(a), tol=1000)), alpha)
