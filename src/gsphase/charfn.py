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

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .numerics import PhaseGrid, as_complex
# char_fn_fock_element lives with the catalog and stays importable from here
from .states import State, char_fn_fock_element  # noqa: F401


def char_fn(state: State, beta):
    """Characteristic function of a state: the Phi it carries from construction.

    A closed form for each catalog kind; for a Fock mixture or an explicit
    Fock matrix the Laguerre sum of ``states.fock_phi`` over every row,
    which for a physical matrix missing more than 1e-6 of its trace raises
    TruncationError.
    """
    b = as_complex(beta)
    scalar = not isinstance(b, np.ndarray)
    barr = np.asarray([b] if scalar else b, dtype=complex)
    out = np.asarray(state.phi_closed(barr), dtype=complex)
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


def _scan_modulus(state: State, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """The scan mesh and |Phi| on it; RangeError when Phi is not finite at a node."""
    mesh = grid.mesh()
    mod = np.abs(char_fn(state, mesh))
    bad = int(np.count_nonzero(~np.isfinite(mod)))
    if bad:
        raise RangeError(
            f"Phi of {state.describe()} is not finite at {bad} of {mod.size} nodes of the scan grid"
        )
    return mesh, mod


def quantum_bound_check(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| exp(-|beta|^2/2).

    For every physical state the result is <= 1 (up to grid rounding);
    report-only, no exception is raised on violation.  Raises RangeError
    when Phi is not finite at some node.
    """
    mesh, mod = _scan_modulus(state, grid)
    vals = mod * np.exp(-0.5 * np.abs(mesh) ** 2)
    return ScanReport(float(vals.max()), _argmax_lexicographic(vals, mesh))


def classicality_violation(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| - 1 and its location.

    A positive value certifies nonclassicality; a non-positive value on a
    finite grid is inconclusive.  Raises RangeError when Phi is not finite
    at some node: a nan maximum would read as no excess.
    """
    mesh, mod = _scan_modulus(state, grid)
    vals = mod - 1.0
    return ScanReport(float(vals.max()), _argmax_lexicographic(vals, mesh))
