"""Phase-space calculus for Glauber-Sudarshan distributions.

Subpackages by task: :mod:`gsphase.numerics` (phase-plane grids, Fourier
convention, quadrature, complex error function), :mod:`gsphase.states`
(the state catalog), :mod:`gsphase.charfn` (characteristic functions and
bounds), :mod:`gsphase.deltaseries` (singular delta-derivative series),
:mod:`gsphase.filters` (regularized distributions), :mod:`gsphase.witness`
(nonclassicality criteria), and :mod:`gsphase.acceptance` (the verification
suite behind ``gsphase verify``).
"""

from .charfn import char_fn, char_fn_fock_element, char_fn_s
from .deltaseries import (
    DeltaSeries,
    TaylorField,
    classify_generator,
    exp_laplace_series,
    fock_diagonal,
    pair,
    s_transform,
    series_from_fock,
)
from .filters import (
    box_autocorrelation,
    filtered_p,
    filtered_p_gaussian,
    filtered_p_gaussian_grid,
    filtered_p_numeric,
    sinc2_kernel,
    tri,
    tri_gaussian_ft,
)
from .numerics import (
    PhaseField,
    PhaseGrid,
    erf_complex,
    erfcx_complex,
    fourier_forward,
    fourier_inverse,
    quad2d,
)
from .states import FockMatrix, State, StateSpec, fock_matrix, from_fock_matrix, make_state, regular_p
from .witness import (
    DIVERGED,
    NonclassicalityReport,
    admissible_check,
    analytic_divergence_demo,
    classify,
    moment_matrix_test,
    negativity_scan,
    normal_moment,
    pmax_pairing_bound,
    radius_estimate,
    vacuum_probability,
)

__version__ = "0.1.0"

__all__ = [
    "DIVERGED",
    "DeltaSeries",
    "FockMatrix",
    "NonclassicalityReport",
    "PhaseField",
    "PhaseGrid",
    "State",
    "StateSpec",
    "TaylorField",
    "admissible_check",
    "analytic_divergence_demo",
    "box_autocorrelation",
    "char_fn",
    "char_fn_fock_element",
    "char_fn_s",
    "classify",
    "classify_generator",
    "erf_complex",
    "erfcx_complex",
    "exp_laplace_series",
    "filtered_p",
    "filtered_p_gaussian",
    "filtered_p_gaussian_grid",
    "filtered_p_numeric",
    "fock_diagonal",
    "fock_matrix",
    "fourier_forward",
    "fourier_inverse",
    "from_fock_matrix",
    "make_state",
    "moment_matrix_test",
    "negativity_scan",
    "normal_moment",
    "pair",
    "pmax_pairing_bound",
    "quad2d",
    "radius_estimate",
    "regular_p",
    "s_transform",
    "series_from_fock",
    "sinc2_kernel",
    "tri",
    "tri_gaussian_ft",
    "vacuum_probability",
]
