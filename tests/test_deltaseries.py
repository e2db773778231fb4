"""Tests for the singular delta-derivative series calculus."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from gsphase.deltaseries import (
    _CANCEL_FACTOR,
    _CANCEL_TOLERANCE,
    _EPS,
    _RATIO_LIMIT,
    _RATIO_WINDOW,
    _TAIL_TOLERANCE,
    DeltaSeries,
    PairingResult,
    TaylorField,
    classify_generator,
    exp_laplace_series,
    fock_diagonal,
    pair,
    s_transform,
    series_from_fock,
)
from gsphase.errors import DivergenceError, ParameterError, TruncationWarning, UnsupportedError
from gsphase.numerics import Cartesian, quad2d
from gsphase.states import StateSpec, fock_matrix, make_state

RNG = np.random.default_rng(7)


class TestSeriesFromFock:
    def test_photon_vacuum_mix(self):
        st = make_state(StateSpec("photon_vacuum_mix", {"eta": 0.7}))
        ser = series_from_fock(fock_matrix(st, 20), order_cutoff=6)
        assert ser.coefficient(0, 0) == pytest.approx(1.0)
        assert ser.coefficient(1, 1) == pytest.approx(0.7)
        for q in range(2, 7):
            assert abs(ser.coefficient(q, q)) < 1e-15

    def test_vacuum_is_pure_point_mass(self):
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}))
        ser = series_from_fock(fock_matrix(st, 10), order_cutoff=5)
        assert ser.coefficient(0, 0) == pytest.approx(1.0)
        assert sum(abs(v) for k, v in ser.coeffs.items() if k != (0, 0)) == 0.0

    def test_thermal_matches_generator_coefficients(self):
        nbar = 0.5
        st = make_state(StateSpec("thermal", {"nbar": nbar}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ser = series_from_fock(fock_matrix(st, 120), order_cutoff=30)
        gen = exp_laplace_series(nbar, 30)
        worst = 0.0
        for n in range(31):
            worst = max(worst, abs(ser.coefficient(n, n) - gen.coefficient(n, n)))
        assert worst < 1e-8
        off = max(abs(ser.coefficient(q, r)) for q in range(8) for r in range(8) if q != r)
        assert off < 1e-14

    def test_hermitian_symmetry_random_matrix(self):
        n = 12
        raw = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        h = raw + raw.conj().T
        h = h / np.trace(h).real
        from gsphase.states import FockMatrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a random matrix has no decaying k-tail
            ser = series_from_fock(FockMatrix(h), order_cutoff=8)
        for q in range(9):
            for r in range(9):
                assert ser.coefficient(q, r) == pytest.approx(
                    np.conj(ser.coefficient(r, q)), abs=1e-14)

    def test_matches_per_coefficient_k_sum(self):
        # reference: each c[q,r] summed over k on its own, as a plain loop
        n = 10
        raw = np.random.default_rng(11).normal(size=(n, n, 2)) @ np.array([1.0, 1.0j])
        rho = raw + raw.conj().T
        from gsphase.states import FockMatrix
        with pytest.warns(TruncationWarning, match="k-tail"):
            ser = series_from_fock(FockMatrix(rho), order_cutoff=6)
        lg = gammaln(np.arange(n) + 1.0)
        for q in range(7):
            for r in range(7):
                ks = np.arange(n - max(q, r))
                logs = 0.5 * (lg[q + ks] + lg[r + ks]) - lg[ks] - lg[q] - lg[r]
                ref = (-1.0) ** (q + r) * np.sum(rho[q + ks, r + ks] * np.exp(logs))
                assert ser.coefficient(q, r) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_normalization_is_trace(self):
        st = make_state(StateSpec("fock_mixture", {"w0": 0.25, "w1": 0.75}))
        ser = series_from_fock(fock_matrix(st, 12), order_cutoff=6)
        assert ser.coefficient(0, 0) == pytest.approx(1.0, abs=1e-14)


class TestExpLaplace:
    def test_zero_gamma_is_identity(self):
        ser = exp_laplace_series(0.0, 10)
        assert ser.coefficient(0, 0) == 1.0
        assert ser.coefficient(1, 1) == 0.0
        assert pair(ser, TaylorField.from_exp_quadratic(-2.0)).value == 1.0

    def test_max_singular_coefficients(self):
        ser = exp_laplace_series(-0.5, 10)
        for n in range(11):
            assert ser.coefficient(n, n) == pytest.approx(
                (-0.5) ** n / math.factorial(n), rel=1e-15)
        assert ser.coefficient(1, 2) == 0.0

    def test_json_roundtrip(self):
        ser = exp_laplace_series(-0.5, 40)
        back = DeltaSeries.from_json(ser.to_json())
        assert back.generator == -0.5 and back.order == 40
        finite = DeltaSeries(coeffs={(0, 0): 1.0, (1, 1): 0.7 + 0j}, order=2)
        back2 = DeltaSeries.from_json(finite.to_json())
        assert back2.coeffs == finite.coeffs


class TestPairing:
    def test_max_singular_with_gaussian(self):
        # sum (1/2)^n = 2; oracle: (1/pi) Int exp(-|b|^2/2) d^2b = 2
        ser = exp_laplace_series(-0.5, 200)
        val = pair(ser, TaylorField.from_exp_quadratic(-1.0)).value
        assert val == pytest.approx(2.0, rel=1e-14)
        oracle = quad2d(
            lambda b: np.exp(0.5 * np.abs(b) ** 2) * np.exp(-np.abs(b) ** 2) / math.pi,
            Cartesian.square(8.0), tol=1e-11,
        ).real
        assert val == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("nbar,sigma_sq", [(0.25, 1.0), (0.5, 1.0), (0.5, 2.0), (1.0, 4.0)])
    def test_thermal_duality(self, nbar, sigma_sq):
        # singular-series pairing equals the regular-density integral
        ser = exp_laplace_series(nbar, 400)
        f = TaylorField.from_exp_quadratic(-1.0 / sigma_sq)
        val = pair(ser, f).value
        assert val == pytest.approx(sigma_sq / (sigma_sq + nbar), rel=1e-12)
        oracle = quad2d(
            lambda a: np.exp(-np.abs(a) ** 2 / nbar) / (math.pi * nbar)
            * np.exp(-np.abs(a) ** 2 / sigma_sq),
            Cartesian.square(8.0), tol=1e-12,
        ).real
        assert abs(val - oracle) < 1e-8

    def test_point_mass_pairing_returns_value_at_origin(self):
        ser = DeltaSeries(coeffs={(0, 0): 1.0 + 0j}, order=0)
        f = TaylorField.from_exp_quadratic(-0.7)
        assert pair(ser, f).value == 1.0  # F(0)

    @pytest.mark.parametrize("gamma,exact", [(0.5, 0.75), (2.0, 3.0)])
    def test_generator_series_stops_at_its_order(self, gamma, exact):
        # order 2 against exp(-|alpha|^2): the terms are (-gamma)^n for n <= 2;
        # the all-orders sums are 1/(1 + gamma) and divergent
        res = pair(exp_laplace_series(gamma, 2), TaylorField.from_exp_quadratic(-1.0))
        assert res.value == pytest.approx(exact, rel=1e-15)
        assert res.convergence_ratio == 0.0

    def test_divergence_policy(self):
        # thermal gamma=2 against a width-1 Gaussian: term ratio 2
        ser = exp_laplace_series(2.0, 400)
        with pytest.raises(DivergenceError):
            pair(ser, TaylorField.from_exp_quadratic(-1.0))

    def test_displaced_gaussian_heat_formula(self):
        # generator pairing resums to the smoothed bump value at the origin
        gamma, a, s = 0.5, 4.0, 1.0
        ser = exp_laplace_series(gamma, 400)
        bump = TaylorField.displaced_gaussian(a, s)
        val = pair(ser, bump).value
        expected = (s / (s + gamma)) * math.exp(-a * a / (s + gamma))
        assert val == pytest.approx(expected, rel=1e-9)

    def test_locality_finite_vs_generator(self):
        # a far bump leaves finite series essentially unchanged but shifts
        # the all-orders generator pairing by its smoothed leak-in value
        gamma, a, s = 0.5, 5.0, 1.0
        base = TaylorField.from_exp_quadratic(-1.0)
        bump = TaylorField.displaced_gaussian(a, s)
        finite = DeltaSeries(coeffs={(0, 0): 1.0, (1, 1): 0.7 + 0j}, order=2)
        delta_finite = abs(pair(finite, base.perturbed(bump)).value
                           - pair(finite, base).value)
        gen = exp_laplace_series(gamma, 400)
        delta_gen = abs(pair(gen, base.perturbed(bump)).value - pair(gen, base).value)
        leak = (s / (s + gamma)) * math.exp(-a * a / (s + gamma))
        assert delta_finite < 1e-9
        assert delta_gen == pytest.approx(leak, rel=1e-4)
        assert delta_gen > 100 * delta_finite


def reference_pair(series: DeltaSeries, test_fn: TaylorField) -> PairingResult:
    """The diagonal pairing of a generator series as a loop over n, one term
    at a time: the reference the array pass must match bit for bit."""
    gamma = series.generator
    log_ag = math.log(abs(gamma))
    sign_g = math.copysign(1.0, gamma)
    total = abs_sum = 0.0
    ratios: list[float] = []
    last_mag = 0.0
    tail = 0.0
    last = min(series.order, test_fn.max_order)
    for n in range(last + 1):
        s, lg = test_fn.diag_log(np.array([n]))
        s_a, log_a = float(s[0]), float(lg[0])
        if s_a == 0.0:
            tail = 0.0
            continue
        logmag = n * log_ag - gammaln(n + 1) + log_a
        if logmag > 230.0:
            raise DivergenceError("diagonal pairing terms grow without bound")
        mag = math.exp(logmag)
        total += s_a * (sign_g**n) * mag
        abs_sum += mag
        if last_mag > 0.0:
            ratios.append(mag / last_mag)
            ratios = ratios[-_RATIO_WINDOW:]
        last_mag = tail = mag
        if mag < 1.0e-18 * max(abs(total), 1.0e-300) and n > 2:
            break
    cut_off = last == test_fn.max_order
    if cut_off and len(ratios) == _RATIO_WINDOW and min(ratios) >= _RATIO_LIMIT:
        raise DivergenceError(
            f"diagonal pairing fails the ratio policy (last ratios >= {_RATIO_LIMIT})")
    if cut_off and tail > _TAIL_TOLERANCE * abs(total):
        raise DivergenceError(
            f"diagonal pairing is cut off at order {test_fn.max_order} while its last "
            f"term is {tail:.3e} against a sum of {abs(total):.3e}")
    if _CANCEL_FACTOR * _EPS * abs_sum > _CANCEL_TOLERANCE * abs(total):
        raise DivergenceError(
            f"diagonal pairing terms cancel: sum |term| = {abs_sum:.3e} against a sum "
            f"of {abs(total):.3e}, below its rounding")
    ratio = last_mag / abs(total) if cut_off and total != 0 else 0.0
    return PairingResult(complex(total), float(ratio))


def _outcome(fn, series, test_fn):
    try:
        res = fn(series, test_fn)
    except DivergenceError as exc:
        return "refused", str(exc)
    return res.value, res.convergence_ratio


#: every TaylorField constructor, at parameters where pairings converge,
#: diverge, cancel and are cut off
FIELDS = {
    "exp-1": lambda: TaylorField.from_exp_quadratic(-1.0),
    "exp-0.25": lambda: TaylorField.from_exp_quadratic(-0.25),
    "exp+0.3": lambda: TaylorField.from_exp_quadratic(0.3),
    "exp0": lambda: TaylorField.from_exp_quadratic(0.0),
    "constant": lambda: TaylorField.constant(1.0),
    "constant-2.5": lambda: TaylorField.constant(-2.5),
    "constant0": lambda: TaylorField.constant(0.0),
    "symbol0": lambda: TaylorField.vacuum_projector_symbol(0),
    "symbol3": lambda: TaylorField.vacuum_projector_symbol(3),
    "symbol10-1000": lambda: TaylorField.vacuum_projector_symbol(10, max_order=1000),
    "symbol60": lambda: TaylorField.vacuum_projector_symbol(60),
    "alternating": lambda: TaylorField.alternating(0.6, 0.9),
    "alternating-2000": lambda: TaylorField.alternating(0.6, 0.999, max_order=2000),
    "bump": lambda: TaylorField.displaced_gaussian(4.0, 1.0),
    "bump-negative": lambda: TaylorField.displaced_gaussian(0.7, 1.3, amplitude=-2.0),
    "perturbed": lambda: TaylorField.from_exp_quadratic(-1.0).perturbed(
        TaylorField.displaced_gaussian(5.0, 1.0)),
    "perturbed-cancel": lambda: TaylorField.constant(1.0).perturbed(
        TaylorField.from_exp_quadratic(-0.5)),
}


class TestArrayPairing:
    """The one-pass diagonal pairing is the term-by-term loop, bit for bit."""

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_bit_identical_to_the_loop(self, name):
        f = FIELDS[name]()
        seen = set()
        for gamma in (-0.999, -0.9, -0.5, -0.3, 0.25, 0.5, 0.9, 0.999, 2.0, 5.0):
            for order in (2, 5, 400, 1000):
                series = exp_laplace_series(gamma, order)
                got = _outcome(pair, series, f)
                want = _outcome(reference_pair, series, f)
                assert got == want, (gamma, order)
                seen.add(got[0] == "refused")
        assert False in seen

    @pytest.mark.parametrize("gamma,field,match", [
        (5.0, TaylorField.from_exp_quadratic(-1.0), "grow without bound"),
        (0.999, TaylorField.from_exp_quadratic(-1.0), "ratio policy"),
        (-0.9, TaylorField.vacuum_projector_symbol(10), "cut off at order 400"),
        (0.3, TaylorField.vacuum_projector_symbol(60), "terms cancel"),
    ], ids=["overflow", "ratio", "tail", "cancellation"])
    def test_each_policy_refuses_as_the_loop_does(self, gamma, field, match):
        series = exp_laplace_series(gamma, 400)
        with pytest.raises(DivergenceError, match=match) as got:
            pair(series, field)
        with pytest.raises(DivergenceError) as want:
            reference_pair(series, field)
        assert str(got.value) == str(want.value)

    def test_overflow_past_the_break_is_not_reached(self):
        # a[n,n] = (-0.01)^n n! + 1e-40 (-100)^n n! against gamma = 0.5: the
        # terms fall below 1e-18 of the sum at n = 8, and the second part's
        # 1e-40 50^n passes 1e100 only from n = 83 on
        series = exp_laplace_series(0.5, 400)
        f = TaylorField.from_exp_quadratic(-0.01, max_order=400).perturbed(
            TaylorField.displaced_gaussian(0.0, 0.01, amplitude=1e-40))
        s_a, log_a = f.diag_log(np.arange(401))
        assert (np.arange(401) * math.log(0.5) - gammaln(np.arange(1, 402)) + log_a).max() > 230
        got = pair(series, f)
        assert got.value == reference_pair(series, f).value
        assert got.value == pytest.approx(1.0 / (1.0 + 0.005), rel=1e-15)

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_finite_series_reads_the_table_as_the_accessor(self, name):
        f = FIELDS[name]()
        rng = np.random.default_rng(5)
        for order in (0, 3, 11):
            coeffs = {(int(q), int(r)): complex(*rng.normal(size=2))
                      for q, r in rng.integers(0, order + 1, size=(20, 2))}
            want = 0.0 + 0.0j
            for (q, r), c in coeffs.items():
                want += c * (-1.0) ** (q + r) * f.coefficient(q, r)
            assert pair(DeltaSeries(coeffs=coeffs, order=order), f).value == want

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_table_matches_the_scalar_accessor(self, name):
        f = FIELDS[name]()
        table = f.coefficients(12)
        assert table.shape == (13, 13)
        for m in range(13):
            for n in range(13):
                assert table[m, n] == f.coefficient(m, n)

    def test_bump_table_against_the_double_sum(self):
        # a[m, n] = A e^(-x) sum_j C(m, j) C(n, j) j! (-1/s)^j (a/s)^(m+n-2j),
        # the generating function's double sum that the Laguerre form
        # collects, summed exactly: in floats its alternating terms lose
        # 1.6e-12 relative at a = -1.5, s = 0.5, where the table loses 2.9e-15
        for a, s, amp in ((0.7, 1.3, -2.0), (-1.5, 0.5, 1.0), (0.0, 2.0, 1.0)):
            table = TaylorField.displaced_gaussian(a, s, amplitude=amp).coefficients(12)
            fa, fs = Fraction(a), Fraction(s)
            for m in range(13):
                for n in range(13):
                    ref = sum(math.comb(m, j) * math.comb(n, j) * math.factorial(j)
                              * (-1 / fs) ** j * (fa / fs) ** (m + n - 2 * j)
                              for j in range(min(m, n) + 1))
                    assert table[m, n] == pytest.approx(
                        amp * math.exp(-a * a / s) * float(ref), rel=1e-13, abs=1e-300)

    def test_bump_table_at_order_400_stays_finite_in_memory_and_sign(self):
        # the entries pass the float range past order ~170, as inf, never nan
        table = TaylorField.displaced_gaussian(2.0, 1.0).coefficients(400)
        assert not np.isnan(table).any()
        assert np.isinf(table).any() and np.isfinite(table[:40, :40]).all()

    def test_orders_past_max_order_are_refused(self):
        f = TaylorField.from_exp_quadratic(-1.0, max_order=5)
        with pytest.raises(ParameterError):
            f.coefficient(6, 0)
        with pytest.raises(ParameterError):
            f.coefficients(6)


class TestPairingRefusals:
    """A diagonal pairing is returned accurately or refused, never wrong."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    def test_thermal_symbols_right_or_refused(self, gamma):
        # <k|rho|k> of the thermal state with nbar = gamma; at gamma = 0.3,
        # k = 60 the unguarded sum gave 5.46e-37 for 4.75e-39
        series = exp_laplace_series(gamma, 400)
        returned = refused = 0
        for k in range(61):
            exact = gamma**k / (1.0 + gamma) ** (k + 1)
            try:
                value = pair(series, TaylorField.vacuum_projector_symbol(k)).value
            except DivergenceError:
                refused += 1
                continue
            returned += 1
            assert abs(value - exact) <= 1e-8 * exact, k
        assert returned >= 3 and refused >= 20

    @pytest.mark.parametrize("gamma,k,match", [(0.3, 60, "terms cancel"),
                                               (0.9, 8, "cut off")])
    def test_seen_failures_are_refused(self, gamma, k, match):
        with pytest.raises(DivergenceError, match=match):
            pair(exp_laplace_series(gamma, 400), TaylorField.vacuum_projector_symbol(k))

    def test_cut_off_same_sign_sum(self):
        # every term is positive, so only the cut-off at order 400 is wrong:
        # the last term is 3.7e-10 of the sum
        series = exp_laplace_series(-0.9, 400)
        exact = 0.9**10 / 0.1**11
        with pytest.raises(DivergenceError, match="cut off at order 400"):
            pair(series, TaylorField.vacuum_projector_symbol(10))
        longer = pair(exp_laplace_series(-0.9, 1000),
                      TaylorField.vacuum_projector_symbol(10, max_order=1000))
        assert longer.value == pytest.approx(exact, rel=1e-12)

    def test_max_singular_symbols_to_k_100(self):
        # the terms of 2 (-1)^k share one sign, so nothing cancels
        series = exp_laplace_series(-0.5, 400)
        for k in range(101):
            value = pair(series, TaylorField.vacuum_projector_symbol(k)).value
            assert value == pytest.approx(2.0 * (-1) ** k, rel=1e-12), k

    def test_fock_diagonal_at_gamma_0_9_is_refused(self):
        # k = 8 came out 2.7 times too large with routes_agree True
        with pytest.raises(DivergenceError):
            fock_diagonal(exp_laplace_series(0.9, 400), 8)


class TestFockDiagonal:
    def test_max_singular_both_routes(self):
        rep = fock_diagonal(exp_laplace_series(-0.5, 400), 5)
        assert rep.pairing[0] == pytest.approx(2.0, abs=1e-9)
        assert rep.transform_oracle[0] == pytest.approx(2.0, abs=1e-7)
        assert rep.routes_agree
        np.testing.assert_allclose(rep.pairing, [2, -2, 2, -2, 2, -2], atol=1e-8)

    def test_thermal_half_matches_geometric_distribution(self):
        rep = fock_diagonal(exp_laplace_series(0.5, 400), 6)
        expected = [2.0 / 3.0 ** (k + 1) for k in range(7)]
        np.testing.assert_allclose(rep.pairing, expected, atol=1e-10)
        assert rep.routes_agree

    def test_identity_series(self):
        rep = fock_diagonal(exp_laplace_series(0.0, 10), 3)
        np.testing.assert_allclose(rep.pairing, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_divergence_for_large_generator(self):
        with pytest.raises(DivergenceError):
            fock_diagonal(exp_laplace_series(1.0, 400), 2)

    def test_reference_mismatch_is_flagged_not_asserted(self):
        rep = fock_diagonal(exp_laplace_series(-0.5, 400), 3)
        assert rep.reference_closed_form is not None
        assert rep.reference_matches is False
        # both independent routes stand together against the reference
        assert rep.routes_agree

    def test_non_generator_rejected(self):
        with pytest.raises(UnsupportedError):
            fock_diagonal(DeltaSeries(coeffs={(0, 0): 1.0}, order=0), 2)


class TestSTransform:
    def test_pmax_symmetric_ordering_is_point_mass(self):
        res = s_transform(exp_laplace_series(-0.5, 50), 0.0)
        assert res.series.generator == pytest.approx(0.0)
        assert res.regular_dual is None

    def test_pmax_antinormal_is_regular_gaussian(self):
        res = s_transform(exp_laplace_series(-0.5, 50), -1.0)
        assert res.series.generator == pytest.approx(0.5)
        assert res.regular_dual is not None
        alphas = RNG.uniform(-1, 1, 10) + 1j * RNG.uniform(-1, 1, 10)
        expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(alphas) ** 2)
        np.testing.assert_allclose(res.regular_dual(alphas), expected, rtol=1e-13)

    def test_identity_at_s_one(self):
        res = s_transform(exp_laplace_series(0.5, 30), 1.0)
        assert res.series.generator == pytest.approx(0.5)

    def test_dual_matches_thermal_density(self):
        # thermal generator at s=1 already has the regular dual of its nbar
        res = s_transform(exp_laplace_series(0.5, 30), 1.0)
        assert res.regular_dual is not None
        assert res.regular_dual(0j) == pytest.approx(1.0 / (math.pi * 0.5), rel=1e-13)


class TestGeneratorClassification:
    def test_identity(self):
        assert classify_generator(0.0).label == "identity"

    def test_smoothing_direction_has_dual(self):
        cls = classify_generator(0.5)
        assert cls.label == "contractive"
        assert cls.has_regular_dual
        assert cls.multiplier_bounded

    def test_singular_direction(self):
        cls = classify_generator(-0.5)
        assert cls.label == "expansive"
        assert not cls.has_regular_dual
        assert not cls.multiplier_bounded
        assert max(cls.sample_multipliers) > 1.0


class TestDualityInvariant:
    @pytest.mark.parametrize("nbar", [0.25, 0.5, 1.0])
    def test_pairing_level_duality(self, nbar):
        # the singular series and the regular Gaussian density agree on all
        # pairings with admissible Gaussians of width above the threshold
        for sigma_sq in (2.0, 4.0):
            if sigma_sq <= nbar:
                continue
            ser = exp_laplace_series(nbar, 400)
            val = pair(ser, TaylorField.from_exp_quadratic(-1.0 / sigma_sq)).value
            reg = quad2d(
                lambda a: np.exp(-np.abs(a) ** 2 / nbar) / (math.pi * nbar)
                * np.exp(-np.abs(a) ** 2 / sigma_sq),
                Cartesian.square(9.0), tol=1e-12,
            ).real
            assert abs(val - reg) < 1e-8
