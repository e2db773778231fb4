"""Bad sizes, orders, constants and points fail with a typed error.

Each case is an input that once slipped through: it allocated terabytes,
built a state other than the one it reported, divided by zero, or raised
numpy's or Python's own exception.  Every one must now raise a
``GsphaseError`` subclass before any work is done.
"""

import math

import pytest

from gsphase.charfn import char_fn_fock_element
from gsphase.deltaseries import TaylorField, exp_laplace_series, fock_diagonal, series_from_fock
from gsphase.errors import GsphaseError
from gsphase.filters import (filtered_p_gaussian_grid, tri, tri_gaussian_ft,
                             tri_gaussian_ft_line_integral)
from gsphase.numerics import PhaseGrid, erf_complex, erfcx_complex, radial_integral
from gsphase.states import StateSpec, fock_matrix, make_state
from gsphase.witness import (
    admissible_check,
    analytic_divergence_demo,
    normal_moment,
    pmax_pairing_bound,
    radius_estimate,
    radius_estimate_bound,
)


def _thermal():
    return make_state(StateSpec("thermal", {"nbar": 0.5}))


REFUSALS = {
    # sizes and Fock indices, before anything is allocated
    "fock_matrix cutoff 10**6": lambda: fock_matrix(_thermal(), 10**6),
    "fock_matrix cutoff 890": lambda: fock_matrix(_thermal(), 890),
    "fock_matrix cutoff 2.5": lambda: fock_matrix(_thermal(), 2.5),
    "fock_element m=n=1.5": lambda: make_state(StateSpec.from_json(
        '{"kind": "fock_element", "params": {"m": 1.5, "n": 1.5}}')),
    "char_fn_fock_element m=1.5": lambda: char_fn_fock_element(1.5, 1, 0.5),
    # orders
    "normal_moment order 1.5": lambda: normal_moment(_thermal(), 1.5),
    "fock_diagonal k_max 2.5": lambda: fock_diagonal(exp_laplace_series(-0.5, 400), 2.5),
    "exp_laplace_series order 2.5": lambda: exp_laplace_series(0.5, 2.5),
    "exp_laplace_series gamma nan": lambda: exp_laplace_series(math.nan, 3),
    "series_from_fock order 2.5": lambda: series_from_fock(fock_matrix(_thermal(), 64), 2.5),
    "radius_estimate order 0": lambda: radius_estimate(0.5, [0]),
    "radius_estimate_bound order 0": lambda: radius_estimate_bound(0.5, 0),
    "admissible_check order 2.5": lambda: admissible_check(TaylorField.constant(), 0.5, 2.5),
    "analytic_divergence_demo terms 2.5": lambda: analytic_divergence_demo(0.5, 2.5),
    # admissibility constants
    "pmax_pairing_bound 'x'": lambda: pmax_pairing_bound("x"),
    "admissible_check C 'x'": lambda: admissible_check(TaylorField.constant(), "x", 4),
    "radius_estimate C 'x'": lambda: radius_estimate("x", [5]),
    "analytic_divergence_demo C nan": lambda: analytic_divergence_demo(math.nan, 5),
    # points of the evaluators that take no state
    "erf_complex None": lambda: erf_complex(None),
    "erfcx_complex None": lambda: erfcx_complex(None),
    "erf_complex 'abc'": lambda: erf_complex("abc"),
    "tri 'abc'": lambda: tri("abc"),
    "tri complex": lambda: tri(0.5j),
    "tri_gaussian_ft y 'abc'": lambda: tri_gaussian_ft("abc", 0.5),
    "tri_gaussian_ft y complex": lambda: tri_gaussian_ft([0.5j], 0.5),
    "tri_gaussian_ft g nan": lambda: tri_gaussian_ft(0.5, math.nan),
    "tri_gaussian_ft g 'x'": lambda: tri_gaussian_ft(0.5, "x"),
    "tri_gaussian_ft_line_integral g nan": lambda: tri_gaussian_ft_line_integral(math.nan),
    "tri_gaussian_ft_line_integral g 'x'": lambda: tri_gaussian_ft_line_integral("x"),
    "radial_integral nan integrand": lambda: radial_integral(lambda r: r * math.nan),
    "filtered_p_gaussian_grid centre 'x'": lambda: filtered_p_gaussian_grid(
        (0.5, 0.5), 2.0, PhaseGrid(2.0, 5), centre="x"),
    "filtered_p_gaussian_grid centre nan": lambda: filtered_p_gaussian_grid(
        (0.5, 0.5), 2.0, PhaseGrid(2.0, 5), centre=complex(math.nan, 0.0)),
    # state parameters and modifiers given through the Python API
    "make_state nbar 'x'": lambda: make_state(StateSpec("thermal", {"nbar": "x"})),
    "make_state rotation 'x'": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                            rotation="x")),
    "make_state displacement 'x'": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                                displacement="x")),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_input_raises_a_typed_error(call):
    with pytest.raises(GsphaseError):
        call()
