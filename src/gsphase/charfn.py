"""Characteristic functions, their growth bounds, and classicality scans.

The characteristic function of a state is the expectation of the normally
ordered displacement operator; it equals the forward Fourier transform of
the phase-space density in the convention of :mod:`gsphase.numerics`.

Modulus bounds implemented here:

* quantum growth bound |Phi(beta)| <= exp(+|beta|^2/2) for every physical
  state (the widely printed form with a negative exponent is a sign
  erratum; the positive exponent is forced by |<unitary>| <= 1 together
  with the normal-ordering prefactor exp(|beta|^2/2));
* classicality bound |Phi(beta)| <= 1 for every classical state, so any
  excess above 1 certifies nonclassicality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError, TruncationError
from .numerics import PhaseGrid, as_complex, power_table
from .states import State, fock_matrix

_MAX_FOCK_INDEX = 400

#: points per matrix product in the Fock route; bounds its working memory
_FOCK_CHUNK = 4096


# ---------------------------------------------------------------------------
# Fock basis elements
# ---------------------------------------------------------------------------

def char_fn_fock_element(m: int, n: int, beta):
    """<n| :D(beta): |m>, the characteristic function of |m><n|.

    Finite sum over k <= min(m, n) with factorials handled through
    log-gamma, stable for m, n up to a few hundred.
    """
    if m < 0 or n < 0:
        raise ParameterError("Fock indices must be non-negative")
    if m > _MAX_FOCK_INDEX or n > _MAX_FOCK_INDEX:
        raise ParameterError(f"Fock indices above {_MAX_FOCK_INDEX} are not supported")
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


def _fock_route(state: State, barr: np.ndarray, cutoff: int) -> np.ndarray:
    fm = fock_matrix(state, cutoff)
    if state.physical and fm.truncation_loss > 1.0e-6:
        raise TruncationError(
            f"Fock route needs truncation loss < 1e-6; got {fm.truncation_loss:.3e}"
        )
    # an exactly finite-rank matrix gives the exact polynomial at any beta;
    # only genuine truncations of infinite-rank states carry the band limit
    tail = np.abs(fm.matrix[-2:, :]).max() + np.abs(fm.matrix[:, -2:]).max() if fm.cutoff >= 2 else 1.0
    exact_rank = tail == 0.0 and fm.truncation_loss <= 1.0e-12
    if not exact_rank:
        band = math.sqrt(cutoff) / 3.0
        if np.any(np.abs(barr) > band):
            raise TruncationError(
                f"Fock route is valid for |beta| <= sqrt(cutoff)/3 = {band:.3g}"
            )
    rho = fm.matrix
    K = fm.cutoff
    # Phi = sum_{q,r} d[q,r] (-conj b)^q b^r with the k-resummed coefficients
    # d[q,r] = sum_k rho[q+k, r+k] sqrt((q+k)! (r+k)!) / (k! q! r!)
    lg = gammaln(np.arange(K + 1) + 1.0)
    d = np.zeros((K + 1, K + 1), dtype=complex)
    for k in range(K + 1):
        n = K + 1 - k
        logs = (0.5 * (lg[k:, None] + lg[None, k:]) - lg[k]
                - lg[:n, None] - lg[None, :n])
        d[:n, :n] += rho[k:, k:] * np.exp(logs)
    # an exactly finite-rank matrix leaves a small polynomial
    rows = np.flatnonzero(np.any(d != 0, axis=1))
    cols = np.flatnonzero(np.any(d != 0, axis=0))
    d = d[: rows[-1] + 1 if rows.size else 0, : cols[-1] + 1 if cols.size else 0]
    flat = barr.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i0 in range(0, flat.size, _FOCK_CHUNK):
        b = flat[i0:i0 + _FOCK_CHUNK]
        out[i0:i0 + _FOCK_CHUNK] = ((power_table(-np.conj(b), d.shape[0]) @ d)
                                    * power_table(b, d.shape[1])).sum(1)
    return out.reshape(barr.shape)


def char_fn(state: State, beta, *, cutoff: int | None = None):
    """Characteristic function of a catalog state.

    Uses the closed form when one exists, otherwise the Fock expansion
    sum_{m,n} rho[m,n] <n|:D(beta):|m> at the given cutoff (default 64).
    """
    b = as_complex(beta)
    scalar = not isinstance(b, np.ndarray)
    barr = np.asarray([b] if scalar else b, dtype=complex)
    if state.phi_closed is not None:
        out = np.asarray(state.phi_closed(barr), dtype=complex)
    elif state.spec.kind in ("fock_element", "fock_mixture"):
        base = barr * np.exp(-1j * state.spec.rotation)
        if state.spec.kind == "fock_element":
            m, n = int(state.spec.params["m"]), int(state.spec.params["n"])
            out = np.asarray(char_fn_fock_element(m, n, base), dtype=complex)
        else:
            out = np.zeros(barr.shape, dtype=complex)
            for key, wgt in sorted(state.spec.params.items()):
                k = int(key[1:])
                out += wgt * np.asarray(char_fn_fock_element(k, k, base), dtype=complex)
        a0 = state.spec.displacement
        if a0 != 0:
            out = out * np.exp(barr * np.conj(a0) - np.conj(barr) * a0)
    else:
        out = _fock_route(state, barr, cutoff or 64)
    return complex(out.reshape(-1)[0]) if scalar else out


def char_fn_s(state: State, beta, s: float):
    """Ordering-parametrized characteristic function exp(-(1-s)|b|^2/2) Phi(b).

    s = 1 is the identity; s = 0 and s = -1 give the symmetric and
    antinormal orderings.  Values outside [-1, 1] are accepted.
    """
    b = as_complex(beta)
    scalar = not isinstance(b, np.ndarray)
    barr = np.asarray([b] if scalar else b, dtype=complex)
    damp = np.exp(-0.5 * (1.0 - s) * np.abs(barr) ** 2)
    out = damp * np.asarray(char_fn(state, barr), dtype=complex)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Result of a grid scan: extremal value and where it was attained."""

    value: float
    location: complex


def _argmax_lexicographic(values: np.ndarray, mesh: np.ndarray) -> complex:
    # row-major argmax; numpy returns the first flat index, which is the
    # lexicographically smallest (x, p) among exact ties
    idx = int(np.argmax(values))
    return complex(mesh.ravel()[idx])


def quantum_bound_check(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| exp(-|beta|^2/2).

    For every physical state the result is <= 1 (up to grid rounding);
    report-only, no exception is raised on violation.
    """
    mesh = grid.mesh()
    vals = np.abs(char_fn(state, mesh)) * np.exp(-0.5 * np.abs(mesh) ** 2)
    return ScanReport(float(vals.max()), _argmax_lexicographic(vals, mesh))


def classicality_violation(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| - 1 and its location.

    A positive value certifies nonclassicality; a non-positive value on a
    finite grid is inconclusive.
    """
    mesh = grid.mesh()
    vals = np.abs(char_fn(state, mesh)) - 1.0
    return ScanReport(float(vals.max()), _argmax_lexicographic(vals, mesh))
