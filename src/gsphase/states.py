"""Catalog of states and pseudo-states with their closed-form representations.

Each catalog entry carries whatever closed forms exist: a characteristic
function, a regular phase-space density, Gaussian characteristic-function
coefficients, a diagonal-generator parameter for the singular series, and a
lazily built truncated Fock matrix.

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
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
from scipy.special import gammaln, kv

from . import numerics
from .errors import NoRegularFormError, ParameterError, TruncationWarning, UnsupportedError
from .numerics import as_complex

DEFAULT_CUTOFF = 64

#: largest accepted |displacement|; it caps overlap_cutoff at 889
MAX_DISPLACEMENT = 25.0


def overlap_cutoff(alpha0: complex) -> int:
    """Cutoff 64 + ceil(|a0|^2 + 8|a0|), past the Poisson weights of |alpha0>."""
    r = abs(alpha0)
    return DEFAULT_CUTOFF + math.ceil(r * r + 8.0 * r)


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

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())


def resummed_coefficients(rho: np.ndarray, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """k-resummed coefficients of a truncated Fock matrix, with each sum's last term.

    d[q,r] = sum_k rho[q+k, r+k] sqrt((q+k)! (r+k)!) / (k! q! r!) for k up to
    the cutoff, q, r <= ``order`` (default: the cutoff).  Phi is
    sum_{q,r} d[q,r] (-conj b)^q b^r, the delta-derivative series has
    c[q,r] = (-1)^(q+r) d[q,r] and <a^dag^r a^q> = q! r! d[q,r].  ``last``
    holds the k = cutoff - max(q, r) term of each sum.
    """
    K = rho.shape[0] - 1
    o = K if order is None else min(order, K)
    lg = gammaln(np.arange(K + 1) + 1.0)
    d = np.zeros((o + 1, o + 1), dtype=complex)
    last = np.zeros_like(d)
    for k in range(K + 1):
        n = min(K + 1 - k, o + 1)
        logs = (0.5 * (lg[k:k + n, None] + lg[None, k:k + n]) - lg[k]
                - lg[:n, None] - lg[None, :n])
        last[:n, :n] = rho[k:k + n, k:k + n] * np.exp(logs)
        d[:n, :n] += last[:n, :n]
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


def char_fn_fock_element(m: int, n: int, beta):
    """<n| :D(beta): |m>, the characteristic function of |m><n|.

    Finite sum over k <= min(m, n) with factorials handled through
    log-gamma, stable for m, n up to a few hundred.
    """
    if m < 0 or n < 0:
        raise ParameterError("Fock indices must be non-negative")
    if m > _MAX_FOCK_INDEX or n > _MAX_FOCK_INDEX:
        raise ParameterError(_FOCK_INDEX_LIMIT)
    b = as_complex(beta)
    scalar = not isinstance(b, np.ndarray)
    barr = np.asarray([b] if scalar else b, dtype=complex)
    out = np.zeros(barr.shape, dtype=complex)
    half = 0.5 * (gammaln(m + 1) + gammaln(n + 1))
    nb = -np.conj(barr)
    for k in range(min(m, n) + 1):
        logmag = half - gammaln(k + 1) - gammaln(m - k + 1) - gammaln(n - k + 1)
        out += math.exp(logmag) * barr ** (n - k) * nb ** (m - k)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass
class State:
    spec: StateSpec
    physical: bool
    #: exp(-lam x^2 - kap p^2) coefficients of the characteristic function,
    #: when it is a centered Gaussian (x = Re beta, p = Im beta)
    gaussian_xp: tuple[float, float] | None = None
    #: diagonal-generator parameter of the singular series, when it exists
    generator_gamma: float | None = None
    #: closed-form characteristic function (None: Fock-sum route applies)
    phi_closed: Callable | None = None
    #: closed-form regular phase-space density (None: no regular form),
    #: radially symmetric about spec.displacement
    regular_p_closed: Callable | None = None
    #: weight of an explicit point mass at spec.displacement (cauchy_lorentz_ncl)
    atom_weight: float = 0.0
    #: exact vacuum probability; known for every state that is not displaced
    exact_vacuum_probability: float | None = None
    #: the rotated, undisplaced state rho_c of a displaced state
    #: rho = D(a0) rho_c D(a0)^dag (None: the state is not displaced)
    centred: State | None = None
    _base_fock_builder: Callable[[int], np.ndarray] | None = None
    #: analytic truncation loss sum_{k > K} rho[k, k], when a formula exists
    _tail_loss: Callable[[int], float] | None = None
    _fock_cache: dict = field(default_factory=dict, repr=False)

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


def _lorentz_radial_density(t: float):
    def density(alpha):
        u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
        return (t / math.pi) * (1.0 + u) ** (-(1.0 + t))
    return density


def _lorentz_phi(t: float):
    """Characteristic function (2/Gamma(t)) |beta|^t K_t(2|beta|).

    Radial Fourier transform of the heavy-tailed density; cross-checked by
    quadrature in the test suite.  Phi depends on |beta| only, so kv runs
    once per distinct radius and the values are gathered back to the
    input's shape.
    """
    lg = math.lgamma(t)

    def phi(beta):
        b = np.abs(np.asarray(beta, dtype=complex))
        radii, inv = np.unique(b, return_inverse=True)
        out = np.ones(radii.shape, dtype=complex)
        nz = radii > 0
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
    a0 = complex(spec.displacement)
    _require(all(math.isfinite(v) for v in [*p.values(), a0.real, a0.imag, spec.rotation]),
             "state parameters, displacement and rotation must be finite")
    _require(abs(a0) <= MAX_DISPLACEMENT, f"|displacement| must be at most {MAX_DISPLACEMENT:g}")
    if kind == "thermal":
        nbar = p.get("nbar")
        _require(nbar is not None and nbar > 0, "thermal requires nbar > 0")
        st = State(
            spec=spec, physical=True,
            gaussian_xp=(nbar, nbar), generator_gamma=nbar,
            phi_closed=lambda b, nb=nbar: np.exp(-nb * np.abs(np.asarray(b, dtype=complex)) ** 2),
            regular_p_closed=lambda a, nb=nbar: np.exp(-np.abs(np.asarray(a, dtype=complex)) ** 2 / nb) / (math.pi * nb),
            exact_vacuum_probability=1.0 / (nbar + 1.0),
            _base_fock_builder=lambda K, nb=nbar: _geometric_diag(nb, K),
            _tail_loss=lambda K, q=nbar / (nbar + 1.0): q ** (K + 1),
        )
    elif kind == "squeezed":
        xi = p.get("xi")
        _require(xi is not None and xi > 0, "squeezed requires xi > 0")
        lam = (math.exp(2 * xi) - 1.0) / 2.0
        kap = -(1.0 - math.exp(-2 * xi)) / 2.0
        sh, ch = math.sinh(xi), math.cosh(xi)

        def phi(beta, sh=sh, ch=ch):
            b = np.asarray(beta, dtype=complex)
            return np.exp(-sh * sh * np.abs(b) ** 2 - ch * sh * (b**2 + np.conj(b) ** 2) / 2.0)

        def fock(K, xi=xi):
            c = _squeezed_amplitudes(xi, K)
            return np.outer(c, c).astype(complex)

        st = State(spec=spec, physical=True, gaussian_xp=(lam, kap), phi_closed=phi,
                   exact_vacuum_probability=1.0 / math.cosh(xi),
                   _base_fock_builder=fock)
    elif kind == "spats":
        nbar = p.get("nbar")
        _require(nbar is not None and nbar > 0, "spats requires nbar > 0")

        def phi(beta, nb=nbar):
            u = np.abs(np.asarray(beta, dtype=complex)) ** 2
            return (1.0 - (nb + 1.0) * u) * np.exp(-nb * u)

        def preg(alpha, nb=nbar):
            u = np.abs(np.asarray(alpha, dtype=complex)) ** 2
            return ((nb + 1.0) * u - nb) * np.exp(-u / nb) / (math.pi * nb**3)

        st = State(spec=spec, physical=True, phi_closed=phi, regular_p_closed=preg,
                   exact_vacuum_probability=0.0,
                   _base_fock_builder=lambda K, nb=nbar: _spats_diag(nb, K),
                   _tail_loss=lambda K, q=nbar / (nbar + 1.0):
                       q**K * ((K + 1) * (1.0 - q) + q))
    elif kind == "photon_vacuum_mix":
        eta = p.get("eta")
        _require(eta is not None and 0 < eta <= 1, "photon_vacuum_mix requires 0 < eta <= 1")

        def phi(beta, eta=eta):
            return 1.0 - eta * np.abs(np.asarray(beta, dtype=complex)) ** 2

        st = State(spec=spec, physical=True, phi_closed=phi, exact_vacuum_probability=1.0 - eta,
                   _base_fock_builder=_embedded(np.diag([1.0 - eta, eta])),
                   _tail_loss=lambda K, eta=eta: 0.0 if K >= 1 else eta)
    elif kind == "fock_element":
        m, n = int(p.get("m", -1)), int(p.get("n", -1))
        _require(m >= 0 and n >= 0, "fock_element requires m, n >= 0")
        _require(max(m, n) <= _MAX_FOCK_INDEX, _FOCK_INDEX_LIMIT)
        unit = np.zeros((max(m, n) + 1,) * 2)
        unit[m, n] = 1.0
        st = State(spec=spec, physical=(m == n),
                   phi_closed=lambda b, m=m, n=n: char_fn_fock_element(m, n, b),
                   gaussian_xp=(0.0, 0.0) if m == n == 0 else None,
                   generator_gamma=0.0 if m == n == 0 else None,
                   exact_vacuum_probability=float(m == n == 0),
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

        def phi(beta, terms=[(int(k[1:]), p[k]) for k in sorted(keys)]):
            out = np.zeros(np.shape(beta), dtype=complex)
            for k, wgt in terms:
                out += wgt * char_fn_fock_element(k, k, beta)
            return out

        st = State(spec=spec, physical=True, phi_closed=phi,
                   exact_vacuum_probability=weights.get(0, 0.0),
                   _base_fock_builder=_embedded(np.diag([weights.get(k, 0.0)
                                                         for k in range(max(weights) + 1)])),
                   _tail_loss=lambda K, ws=weights: sum(v for k, v in ws.items() if k > K))
    elif kind == "cauchy_lorentz":
        t = p.get("t")
        _require(t is not None and t > 0, "cauchy_lorentz requires t > 0")
        st = State(spec=spec, physical=True, phi_closed=_lorentz_phi(t),
                   regular_p_closed=_lorentz_radial_density(t),
                   exact_vacuum_probability=vacuum_overlap_normalizer(t),
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

        st = State(spec=spec, physical=True, phi_closed=phi,
                   regular_p_closed=lambda a, dens=dens, scale=scale: dens(a) * scale,
                   atom_weight=-norm * scale,
                   exact_vacuum_probability=0.0, _base_fock_builder=fock)
    elif kind == "p_max":
        st = State(
            spec=spec, physical=False,
            gaussian_xp=(-0.5, -0.5), generator_gamma=-0.5,
            phi_closed=lambda b: np.exp(0.5 * np.abs(np.asarray(b, dtype=complex)) ** 2),
            exact_vacuum_probability=2.0,
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
    depends only on the photon-number diagonal (the exact vacuum probability,
    the tail loss and the generator) and keeps a Gaussian characteristic
    function only when it is circular (lam == kap).  A displacement keeps
    only Phi and the regular density, radially symmetric about alpha0; the
    rotated state stays as ``centred``, and there is no displaced Fock matrix.
    """
    phi0, a0 = st.spec.rotation, complex(st.spec.displacement)
    base_phi, base_p, builder = st.phi_closed, st.regular_p_closed, st._base_fock_builder
    if phi0:
        rot = np.exp(-1j * phi0)

        def fock(K):
            ph = np.exp(1j * phi0 * np.arange(K + 1))
            return builder(K) * np.outer(ph, ph.conj())

        circular = st.gaussian_xp is not None and st.gaussian_xp[0] == st.gaussian_xp[1]
        st = replace(st, gaussian_xp=st.gaussian_xp if circular else None,
                     phi_closed=lambda b: base_phi(rot * np.asarray(b, dtype=complex)),
                     regular_p_closed=None if base_p is None else
                     lambda a: base_p(rot * np.asarray(a, dtype=complex)),
                     _base_fock_builder=fock, _fock_cache={})
    if a0 == 0:
        return st
    phi_c, p_c = st.phi_closed, st.regular_p_closed

    def phi_closed(beta):
        b = np.asarray(beta, dtype=complex)
        return np.exp(b * np.conj(a0) - np.conj(b) * a0) * phi_c(b)

    return State(spec=st.spec, physical=st.physical, phi_closed=phi_closed,
                 regular_p_closed=None if p_c is None else
                 lambda a: p_c(np.asarray(a, dtype=complex) - a0),
                 atom_weight=st.atom_weight,
                 centred=replace(st, spec=replace(st.spec, displacement=0j)))


def displaced_vacuum_probability(state: State) -> float:
    """<vac|rho|vac> = <-a0|rho_c|-a0> of a displaced rho = D(a0) rho_c D(a0)^dag.

    The centred Fock matrix is summed to overlap_cutoff(a0), past the Poisson
    weights of <n|-a0> = exp(-|a0|^2/2) (-a0)^n / sqrt(n!).
    """
    a0 = complex(state.spec.displacement)
    n = np.arange(overlap_cutoff(a0) + 1)
    amp = np.exp(-0.5 * abs(a0) ** 2 + n * np.log(-a0) - 0.5 * gammaln(n + 1))
    return float(np.real(np.conj(amp) @ state.centred._base_fock_builder(n[-1]) @ amp))


def from_fock_matrix(matrix, *, physical: bool = True) -> State:
    """Escape hatch: a state defined by an explicit truncated Fock matrix."""
    fm = FockMatrix(np.asarray(matrix, dtype=complex))
    if not fm.is_hermitian(1.0e-9):
        raise ParameterError("explicit Fock matrix must be Hermitian")
    return State(spec=StateSpec(kind="explicit_fock"), physical=physical,
                 exact_vacuum_probability=float(fm.matrix[0, 0].real),
                 _base_fock_builder=_embedded(fm.matrix))


def fock_matrix(state: State, cutoff: int = DEFAULT_CUTOFF) -> FockMatrix:
    """Truncated Fock matrix with its reported truncation loss.

    Physical states report loss = 1 - trace of the truncation; a loss above
    1e-6 triggers a TruncationWarning.  The p_max pseudo-state is exempt
    from the loss accounting (its diagonal is not summable).
    """
    if cutoff < 0:
        raise ParameterError("cutoff must be >= 0")
    if cutoff in state._fock_cache:
        return state._fock_cache[cutoff]
    if state._base_fock_builder is None:
        what = f"kind {state.spec.kind!r}" if state.centred is None else "a displaced state"
        raise UnsupportedError(f"no Fock construction for {what}")
    rho = state._base_fock_builder(cutoff)
    if not state.physical:
        loss = 0.0
    elif state._tail_loss is not None:
        loss = float(state._tail_loss(cutoff))
    else:
        loss = max(0.0, 1.0 - float(np.real(np.trace(rho))))
    fm = FockMatrix(rho, truncation_loss=loss)
    if state.physical and loss > 1.0e-6:
        warnings.warn(
            f"Fock truncation loss {loss:.3e} at cutoff {cutoff} for {state.describe()}",
            TruncationWarning, stacklevel=2,
        )
    # compute-then-publish: the cache is only written once the value is complete
    state._fock_cache[cutoff] = fm
    return fm


def regular_p(state: State, alpha):
    """Closed-form regular part of the phase-space density.

    For ``cauchy_lorentz_ncl`` this is the continuous part only; the point
    mass at the displacement is reported separately in ``state.atom_weight``.
    """
    if state.regular_p_closed is None:
        raise NoRegularFormError(
            f"state kind {state.spec.kind!r} has no regular phase-space density"
        )
    a = as_complex(alpha)
    scalar = np.isscalar(a) or isinstance(a, complex)
    vals = state.regular_p_closed(np.asarray([a]) if scalar else a)
    vals = np.real_if_close(vals, tol=1000)
    return float(np.real(vals[0])) if scalar else np.real(vals)
