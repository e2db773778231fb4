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
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np
from scipy.special import gammaln, kv

from . import numerics
from .errors import NoRegularFormError, ParameterError, TruncationWarning, UnsupportedError
from .numerics import PhaseGrid, Radial, as_complex, power_table, quad2d

DEFAULT_CUTOFF = 64


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


@lru_cache(maxsize=4)
def _creation_powers(cutoff: int) -> np.ndarray:
    """(a^dag)^k / k! for k = 0..cutoff, by repeated matrix multiplication."""
    n = cutoff + 1
    adag = np.diag(np.sqrt(np.arange(1.0, n)), -1)
    powers = np.empty((n, n, n))
    powers[0] = np.eye(n)
    for k in range(1, n):
        powers[k] = powers[k - 1] @ adag / k
    powers.setflags(write=False)
    return powers


def creation_exponential(z, cutoff: int) -> np.ndarray:
    """exp(z a^dag) on the Fock space truncated at ``cutoff``, for each z.

    The truncated creation operator is nilpotent, so the Taylor series
    sum_k z^k (a^dag)^k / k! ends at k = cutoff and the result is exact.
    The matrix powers are built once per cutoff and contracted with the
    powers of every z at once; the result has shape z.shape + (n, n).
    exp(z a) is the transpose of exp(z a^dag).
    """
    zk = power_table(z, cutoff + 1)
    powers = _creation_powers(cutoff)
    return (np.tensordot(zk.real, powers, axes=(-1, 0))
            + 1j * np.tensordot(zk.imag, powers, axes=(-1, 0)))


def displacement_matrix(alpha0: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha0)|n> on the truncated Fock space.

    Normal-ordered form exp(-|alpha0|^2/2) exp(alpha0 a^dag) exp(-conj(alpha0) a),
    exact on the truncated space.
    """
    e_plus = creation_exponential(alpha0, cutoff)
    e_minus = creation_exponential(-np.conj(alpha0), cutoff).T
    return math.exp(-0.5 * abs(alpha0) ** 2) * (e_plus @ e_minus)


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
    #: closed-form regular phase-space density (None: no regular form)
    regular_p_closed: Callable | None = None
    #: weight of an explicit point mass at the origin (cauchy_lorentz_ncl)
    atom_weight: float = 0.0
    #: normalizer of the vacuum-free construction, when applicable
    vacuum_overlap_norm: float | None = None
    #: exact vacuum probability when known in closed form
    exact_vacuum_probability: float | None = None
    _base_fock_builder: Callable[[int], np.ndarray] | None = None
    #: analytic truncation loss sum_{k > K} rho[k, k], when a formula exists
    _tail_loss: Callable[[int], float] | None = None
    _fock_cache: dict = field(default_factory=dict, repr=False)
    _explicit_fock: FockMatrix | None = None

    @property
    def is_modified(self) -> bool:
        return self.spec.displacement != 0 or self.spec.rotation != 0.0

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


def _geometric_diag(nbar: float, cutoff: int) -> np.ndarray:
    k = np.arange(cutoff + 1)
    q = nbar / (nbar + 1.0)
    d = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    np.fill_diagonal(d, (q**k) / (nbar + 1.0))
    return d


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
    k = np.arange(cutoff + 1, dtype=float)
    vals = np.zeros(cutoff + 1)
    vals[1:] = k[1:] * nbar ** (k[1:] - 1) / (nbar + 1.0) ** (k[1:] + 1)
    d = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    np.fill_diagonal(d, vals)
    return d


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
    d = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(cutoff + 1):
        def f(alpha, k=k):
            u = np.abs(alpha) ** 2
            return (t / math.pi) * (1.0 + u) ** (-(1.0 + t)) * np.exp(-u + k * np.log(np.maximum(u, 1e-300)) - gammaln(k + 1))
        d[k, k] = quad2d(f, Radial(), tol=1.0e-12).real
    return d


def vacuum_overlap_normalizer(t: float) -> float:
    """N_t = Int d^2alpha P_cl(alpha; t) exp(-|alpha|^2), by 2-D quadrature."""
    def f(alpha):
        u = np.abs(alpha) ** 2
        return (t / math.pi) * (1.0 + u) ** (-(1.0 + t)) * np.exp(-u)
    return quad2d(f, Radial(), tol=1.0e-12).real


def make_state(spec: StateSpec) -> State:
    """Build a catalog state with every available closed form attached."""
    kind, p = spec.kind, dict(spec.params)
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

        def fock(K, eta=eta):
            d = np.zeros((K + 1, K + 1), dtype=complex)
            d[0, 0] = 1.0 - eta
            if K >= 1:
                d[1, 1] = eta
            return d

        st = State(spec=spec, physical=True, phi_closed=phi,
                   exact_vacuum_probability=1.0 - eta, _base_fock_builder=fock,
                   _tail_loss=lambda K, eta=eta: 0.0 if K >= 1 else eta)
    elif kind == "fock_element":
        m, n = int(p.get("m", -1)), int(p.get("n", -1))
        _require(m >= 0 and n >= 0, "fock_element requires m, n >= 0")

        def fock(K, m=m, n=n):
            d = np.zeros((K + 1, K + 1), dtype=complex)
            if m <= K and n <= K:
                d[m, n] = 1.0
            return d

        st = State(spec=spec, physical=(m == n),
                   gaussian_xp=(0.0, 0.0) if m == n == 0 else None,
                   generator_gamma=0.0 if m == n == 0 else None,
                   exact_vacuum_probability=(1.0 if m == n == 0 else 0.0) if m == n else None,
                   _base_fock_builder=fock,
                   _tail_loss=lambda K, m=m, n=n: 0.0 if K >= max(m, n) else 1.0)
    elif kind == "fock_mixture":
        keys = [k for k in p if k.startswith("w")]
        _require(all(k[1:].isdigit() for k in keys),
                 "fock_mixture weight keys must be w0, w1, ...")
        weights = {int(k[1:]): float(p[k]) for k in keys}
        _require(bool(weights) and all(v >= 0 for v in weights.values()),
                 "fock_mixture requires non-negative weights w0, w1, ...")
        _require(abs(sum(weights.values()) - 1.0) < 1.0e-9, "fock_mixture weights must sum to 1")

        def fock(K, weights=weights):
            d = np.zeros((K + 1, K + 1), dtype=complex)
            for k, v in weights.items():
                if k <= K:
                    d[k, k] = v
            return d

        st = State(spec=spec, physical=True,
                   exact_vacuum_probability=weights.get(0, 0.0), _base_fock_builder=fock,
                   _tail_loss=lambda K, ws=weights: sum(v for k, v in ws.items() if k > K))
    elif kind == "cauchy_lorentz":
        t = p.get("t")
        _require(t is not None and t > 0, "cauchy_lorentz requires t > 0")
        st = State(spec=spec, physical=True, phi_closed=_lorentz_phi(t),
                   regular_p_closed=_lorentz_radial_density(t),
                   _base_fock_builder=lambda K, t=t: _lorentz_fock_diag(t, K))
        st.exact_vacuum_probability = vacuum_overlap_normalizer(t)
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
                   atom_weight=-norm * scale, vacuum_overlap_norm=norm,
                   exact_vacuum_probability=0.0, _base_fock_builder=fock)
    elif kind == "p_max":
        st = State(
            spec=spec, physical=False,
            gaussian_xp=(-0.5, -0.5), generator_gamma=-0.5,
            phi_closed=lambda b: np.exp(0.5 * np.abs(np.asarray(b, dtype=complex)) ** 2),
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
    d = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    np.fill_diagonal(d, 2.0 * (-1.0) ** k)
    return d


def _apply_modifiers(st: State) -> State:
    """Wrap the closed forms with alpha -> exp(i phi) alpha + alpha0."""
    phi0 = st.spec.rotation
    a0 = st.spec.displacement
    rot = np.exp(-1j * phi0)
    base_phi = st.phi_closed
    base_p = st.regular_p_closed

    phi_closed = None
    if base_phi is not None:
        def phi_closed(beta, base=base_phi, rot=rot, a0=a0):
            b = np.asarray(beta, dtype=complex)
            return np.exp(b * np.conj(a0) - np.conj(b) * a0) * base(rot * b)

    regular_p = None
    if base_p is not None:
        def regular_p(alpha, base=base_p, rot=rot, a0=a0):
            a = np.asarray(alpha, dtype=complex)
            return base(rot * (a - a0))

    base_builder = st._base_fock_builder

    def fock(K, builder=base_builder, phi0=phi0, a0=a0):
        if builder is None:
            raise UnsupportedError("no Fock construction for this state")
        pad = int(math.ceil(4.0 * abs(a0) ** 2 + 10)) if a0 != 0 else 0
        rho = builder(K + pad)
        if phi0:
            idx = np.arange(rho.shape[0])
            ph = np.exp(1j * phi0 * idx)
            rho = rho * np.outer(ph, ph.conj())
        if a0 != 0:
            d = displacement_matrix(a0, K + pad)
            rho = d @ rho @ d.conj().T
        return rho[: K + 1, : K + 1]

    return replace(
        st,
        gaussian_xp=None,
        generator_gamma=None,
        phi_closed=phi_closed,
        regular_p_closed=regular_p,
        exact_vacuum_probability=None,
        _base_fock_builder=fock,
        _tail_loss=None,
        _fock_cache={},
    )


def from_fock_matrix(matrix, *, physical: bool = True) -> State:
    """Escape hatch: a state defined by an explicit truncated Fock matrix."""
    fm = FockMatrix(np.asarray(matrix, dtype=complex))
    if not fm.is_hermitian(1.0e-9):
        raise ParameterError("explicit Fock matrix must be Hermitian")
    loss = max(0.0, 1.0 - fm.trace())
    fm.truncation_loss = loss
    st = State(spec=StateSpec(kind="explicit_fock"), physical=physical,
               exact_vacuum_probability=float(fm.matrix[0, 0].real))
    st._explicit_fock = fm
    return st


def fock_matrix(state: State, cutoff: int = DEFAULT_CUTOFF) -> FockMatrix:
    """Truncated Fock matrix with its reported truncation loss.

    Physical states report loss = 1 - trace of the truncation; a loss above
    1e-6 triggers a TruncationWarning.  The p_max pseudo-state is exempt
    from the loss accounting (its diagonal is not summable).
    """
    if cutoff < 0:
        raise ParameterError("cutoff must be >= 0")
    if state._explicit_fock is not None:
        m = state._explicit_fock.matrix
        if cutoff + 1 >= m.shape[0]:
            out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
            out[: m.shape[0], : m.shape[0]] = m
        else:
            out = m[: cutoff + 1, : cutoff + 1]
        return FockMatrix(out, truncation_loss=max(0.0, 1.0 - float(np.real(np.trace(out)))))
    if cutoff in state._fock_cache:
        return state._fock_cache[cutoff]
    if state._base_fock_builder is None:
        raise UnsupportedError(f"no Fock construction for kind {state.spec.kind!r}")
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
    mass at the origin is reported separately in ``state.atom_weight``.
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
