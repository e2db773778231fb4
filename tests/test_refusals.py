"""Bad sizes, orders, constants and points fail with a typed error.

Each case is an input that once slipped through: it allocated terabytes,
built a state other than the one it reported, divided by zero, ran a bool
as 1 or 0, or raised numpy's or Python's own exception.  Every one must now
raise a ``GsphaseError`` subclass before any work is done.  Every numeric
argument passes ``errors.check_number``, whose rule the ``NUMBER_REFUSALS``
pin as ``ParameterError``: a bool, a non-finite value, a Python int past
the float range, and a size one past its cap, refused before anything is
built.
"""

import math
import os

import numpy as np
import pytest

from gsphase.charfn import (char_fn_fock_element, char_fn_s, classicality_violation,
                            quantum_bound_check)
from gsphase.deltaseries import (TaylorField, classify_generator, exp_laplace_series,
                                 fock_diagonal, pair, s_transform, series_from_fock)
from gsphase.errors import GsphaseError, ParameterError, check_number
from gsphase.filters import (box_autocorrelation, filtered_p, filtered_p_gaussian_grid,
                             filtered_p_numeric, tri, tri_gaussian_ft,
                             tri_gaussian_ft_line_integral)
from gsphase.numerics import (MAX_GAUSS_NODES, Cartesian, PhaseField, PhaseGrid, erf_complex,
                              erfcx_complex, fourier_forward, fourier_inverse, gauss_nodes_1d,
                              quad2d, radial_integral, write_field_csv)
from gsphase.states import (MAX_CUTOFF, StateSpec, creation_exponential, fock_matrix,
                            from_fock_matrix, make_state, resummed_coefficients)
from gsphase.witness import (
    MAX_DEMO_TERMS,
    MAX_MOMENT_ORDER,
    MAX_RADIUS_ORDER,
    admissible_check,
    analytic_divergence_demo,
    classify,
    moment_matrix_test,
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
    # booleans at every other numeric argument: each once ran as 1 or 0
    "classify w True": lambda: classify(_thermal(), w=True),
    "fock_matrix cutoff True": lambda: fock_matrix(_thermal(), True),
    "fock_diagonal k_max True": lambda: fock_diagonal(exp_laplace_series(-0.5, 400), True),
    "char_fn_s s True": lambda: char_fn_s(_thermal(), 0.5, True),
    "char_fn_fock_element m True": lambda: char_fn_fock_element(True, 1, 0.5),
    "exp_laplace_series gamma True": lambda: exp_laplace_series(True, 3),
    "exp_laplace_series order True": lambda: exp_laplace_series(0.5, True),
    "tri_gaussian_ft g True": lambda: tri_gaussian_ft(0.5, True),
    "admissible_check C False": lambda: admissible_check(TaylorField.constant(), False, 4),
    "admissible_check order True": lambda: admissible_check(TaylorField.constant(), 0.5, True),
    "box_autocorrelation w True": lambda: box_autocorrelation(0.5, True),
    "PhaseGrid extent True": lambda: PhaseGrid(True, 5),
    "tri True": lambda: tri(True),
    "tri np.True_": lambda: tri(np.True_),
    "tri [True, False]": lambda: tri([True, False]),
}

NUMBER_REFUSALS = {
    # a Python int past the float range, once a bare OverflowError
    "classify w 10**400": lambda: classify(_thermal(), w=10**400),
    "make_state nbar 10**400": lambda: make_state(StateSpec("thermal", {"nbar": 10**400})),
    # each size one past its cap, refused before anything is built
    "fock_diagonal k_max 401": lambda: fock_diagonal(exp_laplace_series(-0.5, 400), 401),
    "normal_moment order past the cap": lambda: normal_moment(_thermal(), MAX_MOMENT_ORDER + 1),
    "moment_matrix_test order past the cap": lambda: moment_matrix_test(
        _thermal(), MAX_MOMENT_ORDER // 2 + 1),
    "classify moment_order past the cap": lambda: classify(
        _thermal(), moment_order=MAX_MOMENT_ORDER // 2 + 1),
    "radius_estimate order past the cap": lambda: radius_estimate(0.9, [5, MAX_RADIUS_ORDER + 1]),
    "analytic_divergence_demo n_terms past the cap": lambda: analytic_divergence_demo(
        0.5, MAX_DEMO_TERMS + 1),
    # TaylorField constructors and indices
    "displaced_gaussian width_sq 0": lambda: TaylorField.displaced_gaussian(1.0, 0.0),
    "displaced_gaussian center inf": lambda: TaylorField.displaced_gaussian(math.inf, 1.0),
    "displaced_gaussian amplitude nan": lambda: TaylorField.displaced_gaussian(
        1.0, 1.0, amplitude=math.nan),
    "from_exp_quadratic c nan": lambda: TaylorField.from_exp_quadratic(math.nan),
    "constant value inf": lambda: TaylorField.constant(math.inf),
    "alternating theta 'x'": lambda: TaylorField.alternating(0.5, "x"),
    "vacuum_projector_symbol k -1": lambda: TaylorField.vacuum_projector_symbol(-1),
    "vacuum_projector_symbol k 1.5": lambda: TaylorField.vacuum_projector_symbol(1.5),
    "vacuum_projector_symbol k past max_order": lambda: pair(
        exp_laplace_series(-0.5, 400), TaylorField.vacuum_projector_symbol(401)),
    "from_exp_quadratic max_order -1": lambda: TaylorField.from_exp_quadratic(-1.0, -1),
    "constant max_order 2.5": lambda: TaylorField.constant(1.0, 2.5),
    "vacuum_projector_symbol max_order True": lambda: TaylorField.vacuum_projector_symbol(
        0, True),
    "TaylorField.coefficient index -1": lambda: TaylorField.from_exp_quadratic(-1.0).coefficient(
        -1, 0),
    # the other public numeric arguments
    "s_transform s True": lambda: s_transform(exp_laplace_series(0.5, 3), True),
    "classify_generator gamma 'x'": lambda: classify_generator("x"),
    "quad2d tol nan": lambda: quad2d(lambda a: np.ones(a.shape), Cartesian.square(1.0),
                                     tol=math.nan),
    "fourier_forward boundary_tol nan": lambda: fourier_forward(
        _gaussian_field("alpha"), grid=PhaseGrid(6.0, 33), boundary_tol=math.nan),
    # the lower-level builders: node counts, cutoffs, orders and domains
    "gauss_nodes_1d n True": lambda: gauss_nodes_1d(0.0, 1.0, True),
    "gauss_nodes_1d n 0": lambda: gauss_nodes_1d(0.0, 1.0, 0),
    "gauss_nodes_1d n 2.5": lambda: gauss_nodes_1d(0.0, 1.0, 2.5),
    "gauss_nodes_1d n past the cap": lambda: gauss_nodes_1d(0.0, 1.0, MAX_GAUSS_NODES + 1),
    "creation_exponential cutoff True": lambda: creation_exponential(0.5, True),
    "creation_exponential cutoff -1": lambda: creation_exponential(0.5, -1),
    "creation_exponential cutoff past the cap": lambda: creation_exponential(0.5, MAX_CUTOFF + 1),
    "resummed_coefficients order True": lambda: resummed_coefficients(np.eye(3), True),
    "resummed_coefficients order -1": lambda: resummed_coefficients(np.eye(3), -1),
    "State.moments order True": lambda: _thermal().moments(True),
    "State.moments order 2.5": lambda: _thermal().moments(2.5),
    "State.moments order past the cap": lambda: _thermal().moments(MAX_MOMENT_ORDER + 1),
    "State.fock cutoff True": lambda: _thermal().fock(True),
    "State.fock cutoff -1": lambda: _spats().fock(-1),
    "State.fock cutoff past the cap": lambda: _thermal().fock(MAX_CUTOFF + 1),
    "Cartesian.square nan": lambda: Cartesian.square(math.nan),
    "Cartesian.square 0": lambda: Cartesian.square(0.0),
    "Cartesian xmax inf": lambda: Cartesian(-1.0, math.inf, -1.0, 1.0),
    "Cartesian pmin 'x'": lambda: Cartesian(-1.0, 1.0, "x", 1.0),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_input_raises_a_typed_error(call):
    with pytest.raises(GsphaseError):
        call()


@pytest.mark.parametrize("call", NUMBER_REFUSALS.values(), ids=NUMBER_REFUSALS.keys())
def test_bad_number_raises_a_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", [lambda f: f.coefficients(6),
                                  lambda f: admissible_check(f, 0.5, 6)],
                         ids=["coefficients", "admissible_check"])
def test_order_past_max_order_builds_no_index_table(call, monkeypatch):
    f = TaylorField.from_exp_quadratic(-1.0, max_order=5)

    def no_table(*args, **kwargs):
        raise AssertionError("an index table was built before the order was checked")

    monkeypatch.setattr(np, "arange", no_table)
    with pytest.raises(ParameterError, match="at most 5"):
        call(f)


class TestCheckNumber:
    @pytest.mark.parametrize("value,bounds,message", [
        (0.0, dict(low=0, above=True), "w must be finite and positive (got 0.0)"),
        (-1, dict(low=0), "w must be finite and >= 0 (got -1)"),
        (1.0, dict(low=0, high=1, below=True), "w must be finite and >= 0 and below 1 (got 1.0)"),
        (401, dict(low=0, high=400, integer=True), "w must be an integer >= 0 and at most 400"),
        (2.0, dict(integer=True), "w must be an integer (got 2.0)"),
        (math.nan, {}, "w must be finite (got nan)"),
        (True, {}, "(got True)"),
        (False, dict(integer=True), "(got False)"),
        (np.True_, {}, "(got np.True_)"),
        (10**400, {}, "w must be finite (got 1000"),
        (10**400, dict(integer=True), "w must be an integer (got 1000"),
        ("1", {}, "(got '1')"),
        (None, {}, "(got None)"),
        (0.5 + 0j, {}, "(got (0.5+0j))"),
    ])
    def test_refusal_names_the_argument_and_its_bounds(self, value, bounds, message):
        with pytest.raises(ParameterError) as got:
            check_number(value, "w", **bounds)
        assert message in str(got.value)

    @pytest.mark.parametrize("value,bounds", [
        (0.5, dict(low=0, above=True)), (0, dict(low=0)), (np.int64(400), dict(high=400)),
        (np.float32(-2.5), {}), (2, dict(integer=True, low=2, high=2)),
        (0.0, dict(low=0, high=1, below=True)),
    ])
    def test_accepted_value_is_returned_as_it_is(self, value, bounds):
        assert check_number(value, "w", **bounds) is value


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_fock_matrix_is_refused_as_such(entry):
    # a non-finite entry is the fault, not a failed Hermitian check
    with pytest.raises(GsphaseError, match="must be finite"):
        from_fock_matrix([[0.5, 0.0], [0.0, entry]])
