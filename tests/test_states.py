"""Tests for the state catalog: Fock matrices, regular densities, modifiers."""

import math
import warnings

import numpy as np
import pytest

from gsphase.errors import NoRegularFormError, ParameterError, TruncationWarning
from gsphase.numerics import Cartesian, PhasePoint, Radial, gauss_nodes_1d, quad2d
from gsphase.states import (
    StateSpec,
    creation_exponential,
    displacement_matrix,
    fock_matrix,
    from_fock_matrix,
    make_state,
    regular_p,
    vacuum_overlap_normalizer,
)

PHYSICAL_CATALOG = [
    StateSpec("thermal", {"nbar": 0.5}),
    StateSpec("thermal", {"nbar": 2.0}),
    StateSpec("squeezed", {"xi": 1.0}),
    StateSpec("spats", {"nbar": 1.0}),
    StateSpec("photon_vacuum_mix", {"eta": 0.7}),
    StateSpec("fock_element", {"m": 1, "n": 1}),
    StateSpec("fock_mixture", {"w0": 0.5, "w2": 0.5}),
    StateSpec("cauchy_lorentz", {"t": 3.0}),
    StateSpec("cauchy_lorentz_ncl", {"t": 3.0}),
]


class TestMakeState:
    def test_thermal_diagonal_geometric(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        with pytest.warns(TruncationWarning):
            fm = fock_matrix(st, 10)
        # 1/(nbar+1) * (nbar/(nbar+1))^m = 2/3^(m+1)
        for m in range(11):
            assert fm.matrix[m, m].real == pytest.approx(2.0 / 3.0 ** (m + 1), abs=1e-15)

    def test_thermal_truncation_loss_geometric_tail(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        fm = fock_matrix(st, 40)
        assert fm.truncation_loss == pytest.approx((1.0 / 3.0) ** 41, rel=1e-10)
        assert fm.truncation_loss < 1e-19

    def test_mix_eta_one_is_single_photon(self):
        st = make_state(StateSpec("photon_vacuum_mix", {"eta": 1.0}))
        fm = fock_matrix(st, 5)
        expected = np.zeros((6, 6))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(fm.matrix, expected)

    def test_squeezed_odd_diagonals_vanish(self):
        st = make_state(StateSpec("squeezed", {"xi": 0.9}))
        with pytest.warns(TruncationWarning):
            fm = fock_matrix(st, 21)
        diag = np.real(np.diag(fm.matrix))
        assert np.all(diag[1::2] == 0.0)
        assert diag[0] > 0

    def test_ncl_normalizer_against_1d_oracle(self):
        # N_t = t Int_0^inf e^{-u} (1+u)^{-(t+1)} du
        t = 3.0
        n2d = vacuum_overlap_normalizer(t)
        u, w = gauss_nodes_1d(0.0, 60.0, 400)
        oracle = t * float(np.sum(w * np.exp(-u) * (1.0 + u) ** (-(t + 1.0))))
        assert abs(n2d - oracle) < 1e-8

    def test_ncl_no_vacuum_component(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 3.0}))
        with pytest.warns(TruncationWarning):
            fm = fock_matrix(st, 8)
        assert abs(fm.matrix[0, 0]) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            make_state(StateSpec("thermal", {"nbar": -1.0}))
        with pytest.raises(ParameterError):
            make_state(StateSpec("photon_vacuum_mix", {"eta": 0.0}))
        with pytest.raises(ParameterError):
            make_state(StateSpec("squeezed", {"xi": -0.2}))
        with pytest.raises(ParameterError):
            make_state(StateSpec("cauchy_lorentz", {"t": 0.0}))
        with pytest.raises(ParameterError):
            make_state(StateSpec("no_such_state"))

    def test_spec_json_roundtrip(self):
        spec = StateSpec("squeezed", {"xi": 1.4}, displacement=0.5 - 0.25j, rotation=0.3)
        back = StateSpec.from_json(spec.to_json())
        assert back == spec
        with pytest.raises(ParameterError):
            StateSpec.from_json("not json")


class TestFockMatrixInvariants:
    @pytest.mark.parametrize("spec", PHYSICAL_CATALOG, ids=lambda s: s.kind + str(sorted(s.params.items())))
    def test_hermitian_and_positive(self, spec):
        st = make_state(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fm = fock_matrix(st, 48)
        assert fm.is_hermitian(1e-12)
        assert fm.min_eigenvalue() >= -1e-10
        assert st.physical

    def test_pmax_flagged_nonphysical(self):
        st = make_state(StateSpec("p_max"))
        assert not st.physical
        fm = fock_matrix(st, 6)
        np.testing.assert_allclose(np.real(np.diag(fm.matrix)),
                                   [2, -2, 2, -2, 2, -2, 2])

    def test_truncation_warning_fires(self):
        st = make_state(StateSpec("thermal", {"nbar": 5.0}))
        with pytest.warns(TruncationWarning):
            fock_matrix(st, 10)


class TestRegularP:
    def test_spats_negative_at_origin(self):
        st = make_state(StateSpec("spats", {"nbar": 1.0}))
        assert regular_p(st, 0j) == pytest.approx(-1.0 / math.pi, rel=1e-14)

    def test_thermal_at_origin(self):
        st = make_state(StateSpec("thermal", {"nbar": 0.5}))
        assert regular_p(st, PhasePoint(0.0, 0.0)) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_lorentz_value(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 1.0}))
        assert regular_p(st, 1.0 + 0j) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)

    def test_no_regular_form(self):
        for kind, params in [("fock_element", {"m": 1, "n": 1}),
                             ("squeezed", {"xi": 1.0}),
                             ("p_max", {}),
                             ("photon_vacuum_mix", {"eta": 0.5})]:
            with pytest.raises(NoRegularFormError):
                regular_p(make_state(StateSpec(kind, params)), 0j)

    @pytest.mark.parametrize("spec", [
        StateSpec("spats", {"nbar": 1.0}),
        StateSpec("thermal", {"nbar": 0.5}),
        StateSpec("cauchy_lorentz", {"t": 3.0}),
    ], ids=lambda s: s.kind)
    def test_normalization(self, spec):
        st = make_state(spec)
        res = quad2d(lambda a: st.regular_p_closed(a), Radial(), tol=1e-10)
        assert abs(res.real - 1.0) < 1e-6

    def test_ncl_atom_plus_regular_sums_to_one(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 3.0}))
        res = quad2d(lambda a: st.regular_p_closed(a), Radial(), tol=1e-10)
        assert abs(res.real + st.atom_weight - 1.0) < 1e-6
        assert st.atom_weight < 0

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
    def test_spats_vacuum_probability_vanishes(self, nbar):
        st = make_state(StateSpec("spats", {"nbar": nbar}))
        res = quad2d(
            lambda a: st.regular_p_closed(a) * np.exp(-np.abs(a) ** 2),
            Cartesian.square(9.0), tol=1e-12,
        )
        assert abs(res.real) < 1e-8


class TestModifiers:
    def test_displaced_vacuum_fock_and_vacuum_overlap(self):
        a0 = 0.6 - 0.3j
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=a0))
        fm = fock_matrix(st, 24)
        # <vac|rho|vac> of a coherent state is exp(-|a0|^2)
        assert fm.matrix[0, 0].real == pytest.approx(math.exp(-abs(a0) ** 2), abs=1e-12)
        # Poissonian diagonal
        for k in range(5):
            expect = math.exp(-abs(a0) ** 2) * abs(a0) ** (2 * k) / math.factorial(k)
            assert fm.matrix[k, k].real == pytest.approx(expect, abs=1e-12)

    def test_rotation_phases_fock(self):
        st = make_state(StateSpec("squeezed", {"xi": 0.5}, rotation=0.7))
        base = make_state(StateSpec("squeezed", {"xi": 0.5}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fm, fm0 = fock_matrix(st, 16), fock_matrix(base, 16)
        idx = np.arange(17)
        phase = np.exp(1j * 0.7 * (idx[:, None] - idx[None, :]))
        np.testing.assert_allclose(fm.matrix, fm0.matrix * phase, atol=1e-12)

    def test_creation_exponential_matches_expm(self):
        from scipy.linalg import expm
        cutoff = 6
        adag = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), -1)
        zs = np.array([[0.0, 0.7 - 0.4j], [-1.5 + 2.0j, 3.0j]])
        out = creation_exponential(zs, cutoff)
        assert out.shape == (2, 2, cutoff + 1, cutoff + 1)
        for idx in np.ndindex(zs.shape):
            np.testing.assert_allclose(out[idx], expm(zs[idx] * adag), rtol=0, atol=1e-13)
        np.testing.assert_allclose(creation_exponential(0.7 - 0.4j, cutoff), out[0, 1],
                                   rtol=0, atol=1e-15)

    def test_displacement_matrix_matches_expm(self):
        from scipy.linalg import expm
        a0, cutoff = 0.8 + 0.3j, 6
        adag = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), -1)
        expected = (math.exp(-0.5 * abs(a0) ** 2)
                    * expm(a0 * adag) @ expm(-np.conj(a0) * adag.T))
        np.testing.assert_allclose(displacement_matrix(a0, cutoff), expected, atol=1e-13)

    def test_displaced_regular_density_shifts(self):
        st0 = make_state(StateSpec("thermal", {"nbar": 0.5}))
        st = make_state(StateSpec("thermal", {"nbar": 0.5}, displacement=1.0 + 0.5j))
        assert regular_p(st, 1.0 + 0.5j) == pytest.approx(regular_p(st0, 0j), rel=1e-12)


class TestExplicitFock:
    def test_superposition_state(self):
        # (|0> + |2>)/sqrt(2)
        m = np.zeros((5, 5), dtype=complex)
        m[0, 0] = m[2, 2] = m[0, 2] = m[2, 0] = 0.5
        st = from_fock_matrix(m)
        fm = fock_matrix(st, 4)
        assert fm.trace() == pytest.approx(1.0)
        assert fm.is_hermitian()

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ParameterError):
            from_fock_matrix(m)
