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
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, RangeError
from .numerics import PhaseGrid, check_grid, mirror_quadrant, pointwise, radial_orbits
# char_fn_fock_element lives with the catalog and stays importable from here
from .states import State, char_fn_fock_element  # noqa: F401


def char_fn(state: State, beta):
    """Characteristic function of a state: the Phi it carries from construction.

    A closed form for each catalog kind; for a Fock mixture or an explicit
    Fock matrix the Laguerre sum of ``states.fock_phi`` over every row,
    which for a physical matrix missing more than 1e-6 of its trace raises
    TruncationError.
    """
    return pointwise(lambda b: np.asarray(state.phi_closed(b), dtype=complex), beta)


def char_fn_centred(state: State, beta):
    """Characteristic function Phi_c of the undisplaced state rho_c.

    ``char_fn`` without the displacement phase, which has modulus 1: the
    scans read |Phi| = |Phi_c| from it, and the numeric filter filters
    rho_c and translates the result.  Equal to ``char_fn`` at a0 = 0.
    """
    return pointwise(lambda b: np.asarray(state.phi_centred(b), dtype=complex), beta)


def char_fn_s(state: State, beta, s: float):
    """Ordering-parametrized characteristic function exp(-(1-s)|b|^2/2) Phi(b).

    s = 1 is the identity; s = 0 and s = -1 give the symmetric and
    antinormal orderings.  Values outside [-1, 1] are accepted; an s that is
    not a finite real raises ParameterError.
    """
    if not (isinstance(s, numbers.Real) and math.isfinite(s)):
        raise ParameterError(f"the ordering parameter s must be a finite real (got {s!r})")
    return pointwise(lambda b: np.exp(-0.5 * (1.0 - s) * np.abs(b) ** 2) * char_fn(state, b),
                     beta)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Result of a grid scan: extremal value and where it was attained."""

    value: float
    location: complex


def _argmax_lexicographic(values: np.ndarray, mesh: np.ndarray) -> complex:
    """The node of the largest value, the lexicographically smallest (x, p)
    among exact ties: numpy's argmax returns the first row-major index.

    A radial scan's values are exact mirror images in x and in p and equal
    under the x <-> p swap (``_scan``), so its location is at x <= 0,
    p <= 0; any other state's ties are decided by roundoff.
    """
    idx = int(np.argmax(values))
    return complex(mesh.ravel()[idx])


#: scan grids whose meshes and orbits are kept
SCAN_CACHE_SIZE = 4


@lru_cache(maxsize=SCAN_CACHE_SIZE)
def _scan_mesh(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan mesh of a grid, and the distinct radii of its non-negative
    quadrant with their gather index.

    ``grid.mesh()`` and the ``numerics.radial_orbits`` of its quadrant
    mesh[N // 2:, N // 2:]: radii[inverse] is |quadrant| bit for bit (3,002
    radii for the 6,561 quadrant nodes of 4,161).  None depends on a state,
    so the last ``SCAN_CACHE_SIZE`` grids are kept, read-only, and only the
    first scan of a grid pays for them.
    """
    mesh = grid.mesh()
    half = grid.resolution // 2
    radii, inverse = radial_orbits(mesh[half:, half:])
    for arr in (mesh, radii, inverse):
        arr.flags.writeable = False
    return mesh, radii, inverse


def _scan(state: State, grid: PhaseGrid, excess) -> ScanReport:
    """Max over the scan mesh of excess(|Phi(beta)|, |beta|) and its first location.

    A displacement multiplies Phi by a phase of modulus 1, so |Phi| is read
    from the centred Phi_c (``char_fn_centred``) and no phase is formed.
    For a radial rho_c, displaced or not, Phi_c is evaluated once per
    distinct |beta| of the cached non-negative quadrant, the excess is
    gathered onto the quadrant and mirrored out to the mesh
    (``numerics.mirror_quadrant``): mirror nodes and x <-> p swaps carry
    bit-identical values, and the location is at x <= 0, p <= 0.  Any other
    state is evaluated at every node.  Raises RangeError when Phi is not
    finite at some node, counted over the whole mesh: a nan maximum would
    read as no excess, and ParameterError for a grid that is not a
    ``PhaseGrid``.
    """
    mesh, radii, inverse = _scan_mesh(check_grid(grid))
    mod = np.abs(char_fn_centred(state, radii if state.radial else mesh))
    bad_at = ~np.isfinite(mod)
    if bad_at.any():
        if state.radial:
            bad_at = mirror_quadrant(bad_at[inverse], grid.resolution)
        raise RangeError(f"Phi of {state.describe()} is not finite at "
                         f"{int(np.count_nonzero(bad_at))} of {mesh.size} nodes of the scan grid")
    if state.radial:
        vals = mirror_quadrant(excess(mod, radii)[inverse], grid.resolution)
    else:
        vals = excess(mod, np.abs(mesh))
    return ScanReport(float(vals.max()), _argmax_lexicographic(vals, mesh))


def quantum_bound_check(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| exp(-|beta|^2/2).

    For every physical state the result is <= 1 (up to grid rounding);
    report-only, no exception is raised on violation.  Raises RangeError
    when Phi is not finite at some node, and ParameterError for a grid that
    is not a ``PhaseGrid``.
    """
    return _scan(state, grid, lambda mod, r: mod * np.exp(-0.5 * r ** 2))


def classicality_violation(state: State, grid: PhaseGrid) -> ScanReport:
    """Max over the grid of |Phi(beta)| - 1 and its location.

    A positive value certifies nonclassicality; a non-positive value on a
    finite grid is inconclusive.  Raises RangeError when Phi is not finite
    at some node, and ParameterError for a grid that is not a ``PhaseGrid``.
    """
    return _scan(state, grid, lambda mod, r: mod - 1.0)
