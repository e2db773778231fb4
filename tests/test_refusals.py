"""Bad sizes, orders, constants and points fail with a typed error.

Each case is an input that once slipped through: it allocated terabytes,
built a state other than the one it reported, divided by zero, or raised
numpy's or Python's own exception.  Every one must now raise a
``GsphaseError`` subclass before any work is done.
"""

import math
import os

import numpy as np
import pytest

from gsphase.charfn import (char_fn_fock_element, char_fn_s, classicality_violation,
                            quantum_bound_check)
from gsphase.deltaseries import TaylorField, exp_laplace_series, fock_diagonal, series_from_fock
from gsphase.errors import GsphaseError
from gsphase.filters import (filtered_p, filtered_p_gaussian_grid, filtered_p_numeric, tri,
                             tri_gaussian_ft, tri_gaussian_ft_line_integral)
from gsphase.numerics import (PhaseField, PhaseGrid, erf_complex, erfcx_complex,
                              fourier_forward, fourier_inverse, radial_integral, write_field_csv)
from gsphase.states import StateSpec, fock_matrix, from_fock_matrix, make_state
from gsphase.witness import (
    admissible_check,
    analytic_divergence_demo,
    classify,
    normal_moment,
    pmax_pairing_bound,
    radius_estimate,
    radius_estimate_bound,
)


def _thermal():
    return make_state(StateSpec("thermal", {"nbar": 0.5}))


def _spats():
    return make_state(StateSpec("spats", {"nbar": 1.3}))


def _gaussian_field(side):
    return PhaseField(side=side, fn=lambda a: np.exp(-np.abs(a) ** 2))


REFUSALS = {
    # sizes and Fock indices, before anything is allocated
    "fock_matrix cutoff 10**6": lambda: fock_matrix(_thermal(), 10**6),
    "fock_matrix cutoff 890": lambda: fock_matrix(_thermal(), 890),
    "fock_matrix cutoff 2.5": lambda: fock_matrix(_thermal(), 2.5),
    "fock_element m=n=1.5": lambda: make_state(StateSpec.from_json(
        '{"kind": "fock_element", "params": {"m": 1.5, "n": 1.5}}')),
    "char_fn_fock_element m=1.5": lambda: char_fn_fock_element(1.5, 1, 0.5),
    # the ordering parameter of char_fn_s
    "char_fn_s s nan": lambda: char_fn_s(_thermal(), 0.5, math.nan),
    "char_fn_s s 'x'": lambda: char_fn_s(_thermal(), 0.5, "x"),
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
    # grids that are not a PhaseGrid, on both filter routes, the scans, the
    # transforms, the CSV writer and the battery; classify's default grid is
    # for None alone
    "filtered_p grid None": lambda: filtered_p(_spats(), 2.0, None),
    "filtered_p grid tuple (Gaussian route)": lambda: filtered_p(_thermal(), 2.0, (4.0, 321)),
    "filtered_p_numeric grid tuple": lambda: filtered_p_numeric(_spats(), 2.0, (4.0, 321)),
    "filtered_p_numeric grid 'x'": lambda: filtered_p_numeric(_spats(), 2.0, "4,321"),
    "filtered_p_gaussian_grid grid None": lambda: filtered_p_gaussian_grid(
        (0.5, 0.5), 2.0, None),
    "filtered_p_gaussian_grid grid 'x'": lambda: filtered_p_gaussian_grid(
        (0.5, 0.5), 2.0, "4,321"),
    "classicality_violation grid None": lambda: classicality_violation(_thermal(), None),
    "classicality_violation grid tuple": lambda: classicality_violation(_thermal(), (4.0, 161)),
    "quantum_bound_check grid 'x'": lambda: quantum_bound_check(_thermal(), "4,161"),
    "fourier_forward grid tuple": lambda: fourier_forward(_gaussian_field("alpha"),
                                                          grid=(6.0, 33)),
    "fourier_forward out_grid 'x'": lambda: fourier_forward(_gaussian_field("alpha"),
                                                            out_grid="x"),
    "fourier_inverse grid tuple": lambda: fourier_inverse(_gaussian_field("beta"),
                                                          grid=(6.0, 33)),
    "write_field_csv grid tuple": lambda: write_field_csv(os.devnull, (4.0, 5),
                                                          np.zeros((5, 5))),
    "PhaseField.sampled_on grid tuple": lambda: _gaussian_field("alpha").sampled_on((4.0, 5)),
    "classify grid tuple": lambda: classify(_spats(), grid=(4.0, 321)),
    "classify grid 0": lambda: classify(_spats(), grid=0),
    "classify beta_grid 'x'": lambda: classify(_spats(), beta_grid="4,161"),
    "classify state None": lambda: classify(None),
    # explicit Fock matrices that are empty, ragged, not numeric or not finite
    "from_fock_matrix empty": lambda: from_fock_matrix(np.zeros((0, 0))),
    "from_fock_matrix 'abc'": lambda: from_fock_matrix("abc"),
    "from_fock_matrix ragged": lambda: from_fock_matrix([[1.0], [0.0, 1.0]]),
    "from_fock_matrix nan": lambda: from_fock_matrix([[math.nan]]),
    "from_fock_matrix inf": lambda: from_fock_matrix([[math.inf]]),
    # state parameters and modifiers given through the Python API
    "make_state nbar 'x'": lambda: make_state(StateSpec("thermal", {"nbar": "x"})),
    "make_state rotation 'x'": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                            rotation="x")),
    "make_state displacement 'x'": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                                displacement="x")),
    # booleans, which are numbers.Real, and state JSON fields of the wrong shape
    "make_state nbar True": lambda: make_state(StateSpec("thermal", {"nbar": True})),
    "make_state rotation True": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                             rotation=True)),
    "make_state displacement True": lambda: make_state(StateSpec("thermal", {"nbar": 0.5},
                                                                 displacement=True)),
    "state JSON displacement list": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": [0.5, 0.5]}'),
    "state JSON displacement string": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": "0.5"}'),
    "state JSON displacement key 'x'": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": {"x": 0.5}}'),
    "state JSON params list": lambda: StateSpec.from_json('{"kind": "thermal", "params": [1]}'),
    "state JSON nbar true": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": true}}'),
    "state JSON rotation true": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": 0.5}, "rotation": true}'),
    "state JSON nbar 10**400": lambda: StateSpec.from_json(
        '{"kind": "thermal", "params": {"nbar": 1' + "0" * 400 + '}}'),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_input_raises_a_typed_error(call):
    with pytest.raises(GsphaseError):
        call()


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_fock_matrix_is_refused_as_such(entry):
    # a non-finite entry is the fault, not a failed Hermitian check
    with pytest.raises(GsphaseError, match="must be finite"):
        from_fock_matrix([[0.5, 0.0], [0.0, entry]])
