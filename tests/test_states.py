"""Tests for the state catalog: Fock matrices, regular densities, modifiers."""

import json
import math
import pathlib
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from gsphase import states
from gsphase.charfn import char_fn
from gsphase.errors import NoRegularFormError, ParameterError, TruncationWarning, UnsupportedError
from gsphase.numerics import Cartesian, PhaseGrid, gauss_nodes_1d, quad2d, radial_integral
from gsphase.states import (
    MAX_DISPLACEMENT,
    MAX_SPATS_NBAR,
    MAX_SQUEEZING,
    StateSpec,
    creation_exponential,
    fock_matrix,
    from_fock_matrix,
    make_state,
    overlap_cutoff,
    regular_p,
    resummed_coefficients,
)
from gsphase.witness import classify, vacuum_probability

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
        n2d = vacuum_probability(make_state(StateSpec("cauchy_lorentz", {"t": t})))
        u, w = gauss_nodes_1d(0.0, 60.0, 400)
        oracle = t * float(np.sum(w * np.exp(-u) * (1.0 + u) ** (-(t + 1.0))))
        assert abs(n2d - oracle) < 1e-8

    @pytest.mark.parametrize("t", [1.0, 1.9, 3.0, 5.5])
    def test_lorentz_fock_diagonal_against_1d_quadrature(self, t):
        # rho[k, k] = (t/k!) Int_0^inf e^{-u} u^k (1+u)^{-1-t} du, by scipy quad
        def oracle(k):
            def f(u):
                return math.exp(math.log(t) - u + k * math.log(u) - math.lgamma(k + 1)
                                - (1.0 + t) * math.log1p(u))
            edges = [p for p in (1.0, k - 5 * math.sqrt(k), k, k + 5 * math.sqrt(k)) if p > 0]
            top = k + 30 * math.sqrt(k + 1) + 60
            return quad(f, 0.0, top, points=sorted(set(edges)), epsabs=0.0, epsrel=1e-13, limit=200)[0]

        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            diag = np.real(np.diag(fock_matrix(st, 128).matrix))
        np.testing.assert_allclose(diag, [oracle(k) for k in range(129)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [0.3, 50.0, 1000.0])
    def test_normalizer_resolves_every_tail_exponent(self, t):
        # t (1+u)^(-1-t) falls off on the scale u ~ 1/(1+t)
        edges = [0.0] + [2.0 ** j / (1.0 + t) for j in range(12)] + [math.inf]
        oracle = sum(quad(lambda u: t * math.exp(-u - (1.0 + t) * math.log1p(u)), a, b,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))
        st = make_state(StateSpec("cauchy_lorentz", {"t": t}))
        assert vacuum_probability(st) == pytest.approx(oracle, rel=1e-12)

    def test_lorentz_truncation_loss_at_the_default_cutoff(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 3.0}))
        with pytest.warns(TruncationWarning):
            fm = fock_matrix(st, 64)
        assert fm.truncation_loss == pytest.approx(3.810e-6, rel=1e-3)

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

    @pytest.mark.parametrize("spec", [
        StateSpec("thermal", {"nbar": math.inf}),
        StateSpec("cauchy_lorentz", {"t": math.inf}),
        StateSpec("squeezed", {"xi": math.nan}),
        StateSpec("thermal", {"nbar": 0.5}, displacement=complex(math.nan, 0.0)),
        StateSpec("thermal", {"nbar": 0.5}, displacement=complex(0.0, math.inf)),
        StateSpec("thermal", {"nbar": 0.5}, rotation=math.nan),
    ], ids=["nbar-inf", "t-inf", "xi-nan", "displacement-nan", "displacement-inf", "rotation-nan"])
    def test_rejects_non_finite_input(self, spec):
        with pytest.raises(ParameterError, match="finite"):
            make_state(spec)

    @pytest.mark.parametrize("a0", [25.5, 60.0, 1e200])
    def test_rejects_displacement_beyond_the_overlap_cap(self, a0):
        with pytest.raises(ParameterError, match="displacement"):
            make_state(StateSpec("thermal", {"nbar": 0.5}, displacement=a0))

    def test_largest_displacement_keeps_the_overlap_cutoff_bounded(self):
        assert overlap_cutoff(MAX_DISPLACEMENT) == 889
        st = make_state(StateSpec("thermal", {"nbar": 2.0}, displacement=MAX_DISPLACEMENT))
        assert vacuum_probability(st) == pytest.approx(math.exp(-MAX_DISPLACEMENT**2 / 3.0) / 3.0,
                                                       rel=1e-12)

    @pytest.mark.parametrize("xi", [float(np.nextafter(MAX_SQUEEZING, math.inf)), 400.0, 800.0, 1e300])
    def test_rejects_squeezing_whose_exponential_overflows(self, xi):
        with pytest.raises(ParameterError, match=r"exp\(2 xi\) overflows"):
            make_state(StateSpec("squeezed", {"xi": xi}))

    def test_largest_squeezing_is_accepted(self):
        lam, kap = make_state(StateSpec("squeezed", {"xi": MAX_SQUEEZING})).gaussian_xp
        assert math.isfinite(lam) and kap == -0.5

    @pytest.mark.parametrize("nbar", [float(np.nextafter(MAX_SPATS_NBAR, math.inf)), 1e103, 1e200])
    def test_rejects_spats_nbar_whose_cube_overflows(self, nbar):
        with pytest.raises(ParameterError, match=r"pi nbar\^3 overflows"):
            make_state(StateSpec("spats", {"nbar": nbar}))
        with pytest.raises(ParameterError, match=r"pi nbar\^3 overflows"):
            make_state(StateSpec("spats", {"nbar": nbar}, displacement=0.5))

    def test_largest_spats_nbar_is_accepted(self):
        st = make_state(StateSpec("spats", {"nbar": MAX_SPATS_NBAR}))
        u = np.array([0.0, 1.0, MAX_SPATS_NBAR])
        density = np.real(st.regular_p_closed(np.sqrt(u)))
        assert np.all(np.isfinite(density)) and density[0] < 0 < density[2]
        with pytest.warns(TruncationWarning):  # the weight sits near |nbar>
            fm = fock_matrix(st, 8)
        assert np.all(np.isfinite(fm.matrix))

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
        assert np.linalg.eigvalsh(fm.matrix).min() >= -1e-10
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
        assert regular_p(st, 0j) == pytest.approx(2.0 / math.pi, rel=1e-14)

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
        assert abs(radial_integral(st.regular_p_closed) - 1.0) < 1e-6

    def test_ncl_atom_plus_regular_sums_to_one(self):
        st = make_state(StateSpec("cauchy_lorentz_ncl", {"t": 3.0}))
        assert abs(radial_integral(st.regular_p_closed) + st.atom_weight - 1.0) < 1e-6
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
    def test_displaced_vacuum_overlap(self):
        # <vac|rho|vac> of a coherent state is exp(-|a0|^2)
        a0 = 0.6 - 0.3j
        st = make_state(StateSpec("fock_element", {"m": 0, "n": 0}, displacement=a0))
        assert vacuum_probability(st) == pytest.approx(math.exp(-abs(a0) ** 2), rel=1e-14)

    @pytest.mark.parametrize("rotation", [0.0, 0.9])
    def test_displaced_state_has_no_fock_matrix(self, rotation):
        st = make_state(StateSpec("squeezed", {"xi": 0.5}, displacement=0.4, rotation=rotation))
        with pytest.raises(UnsupportedError, match="displaced state"):
            fock_matrix(st, 8)

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

    @pytest.mark.parametrize("cutoff", [1, 40, 140])
    def test_creation_exponential_entries_at_large_cutoff(self, cutoff):
        # <m| exp(z a^dag) |j> = z^(m-j) sqrt(m!/j!) / (m-j)! for m >= j, else 0
        z = 1.3 - 0.6j
        out = creation_exponential(z, cutoff)
        m, j = np.indices(out.shape)
        k = np.maximum(m - j, 0)
        logmag = 0.5 * (gammaln(m + 1) - gammaln(j + 1)) - gammaln(k + 1)
        expected = np.where(m >= j, np.exp(logmag) * z ** k, 0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)

    def test_displaced_regular_density_shifts(self):
        st0 = make_state(StateSpec("thermal", {"nbar": 0.5}))
        st = make_state(StateSpec("thermal", {"nbar": 0.5}, displacement=1.0 + 0.5j))
        assert regular_p(st, 1.0 + 0.5j) == pytest.approx(regular_p(st0, 0j), rel=1e-12)


CATALOG = PHYSICAL_CATALOG + [
    StateSpec("fock_element", {"m": 0, "n": 0}),
    StateSpec("fock_element", {"m": 0, "n": 2}),
    StateSpec("cauchy_lorentz", {"t": 1.9}),
    StateSpec("p_max"),
]


def _spec_id(spec):
    return "-".join([spec.kind] + [f"{k}{v:g}" for k, v in sorted(spec.params.items())])


MODIFIERS = {
    "none": {},
    "rotation": {"rotation": 0.9},
    "displacement": {"displacement": 0.4 - 0.3j},
    "both": {"rotation": 0.9, "displacement": 0.4 - 0.3j},
}


#: kinds whose centred state is diagonal in Fock space at every parameter
DIAGONAL_KINDS = {"thermal", "spats", "photon_vacuum_mix", "fock_mixture", "cauchy_lorentz",
                  "cauchy_lorentz_ncl", "p_max"}


class TestModifierInvariants:
    """Every invariant a modified state keeps must still hold for it."""

    @pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
    @pytest.mark.parametrize("spec", CATALOG, ids=_spec_id)
    def test_radial_truth_table(self, spec, mod):
        # radial: rho_c diagonal in Fock space, whatever the rotation and the
        # displacement; squeezed and |0><2| are not
        st = make_state(replace(spec, **mod))
        diagonal = spec.kind in DIAGONAL_KINDS or (
            spec.kind == "fock_element" and spec.params["m"] == spec.params["n"])
        assert st.radial is diagonal
        if not st.radial:
            return
        mesh = PhaseGrid(extent=4.0, resolution=161).mesh()
        phi = st.phi_centred(mesh)
        assert np.all(np.abs(phi - st.phi_centred(np.abs(mesh)))
                      <= 1e-15 * np.maximum(1.0, np.abs(phi)))
        # a rotation and a displacement leave the Phi_c of a radial state as it is
        np.testing.assert_array_equal(phi, make_state(spec).phi_centred(mesh))

    @pytest.mark.parametrize("matrix,radial", [
        (np.diag([0.5, 0.2, 0.3]), True),
        (np.array([[0.5, 0.1], [0.1, 0.5]]), False),
    ], ids=["diagonal", "coherence"])
    def test_explicit_state_is_radial_when_diagonal(self, matrix, radial):
        assert from_fock_matrix(matrix).radial is radial

    @pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
    @pytest.mark.parametrize("spec", CATALOG, ids=_spec_id)
    def test_gaussian_coefficients_match_closed_form(self, spec, mod):
        st = make_state(replace(spec, **mod))
        if st.gaussian_xp is None:
            return
        # gaussian_xp describes the undisplaced state; a displacement a0
        # multiplies its Phi by exp(beta conj(a0) - conj(beta) a0)
        lam, kap = st.gaussian_xp
        a0 = st.spec.displacement
        mesh = PhaseGrid(extent=2.0, resolution=31).mesh()
        np.testing.assert_allclose(st.phi_closed(mesh),
                                   np.exp(-lam * mesh.real**2 - kap * mesh.imag**2)
                                   * np.exp(mesh * np.conj(a0) - np.conj(mesh) * a0),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
    @pytest.mark.parametrize("spec", CATALOG, ids=_spec_id)
    def test_exact_vacuum_probability_matches_fock_matrix(self, spec, mod):
        # the centred twin's vacuum probability is rho_c[0, 0], bit for bit
        twin = make_state(replace(spec, **{**mod, "displacement": 0j}))
        with warnings.catch_warnings():
            # entry [0, 0] does not depend on the cutoff
            warnings.simplefilter("ignore", TruncationWarning)
            rho00 = fock_matrix(twin, 12).matrix[0, 0]
        assert vacuum_probability(twin) == rho00.real

    @pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
    @pytest.mark.parametrize("spec", CATALOG, ids=_spec_id)
    def test_every_state_carries_its_phi(self, spec, mod):
        st = make_state(replace(spec, **mod))
        betas = np.array([[0j, 0.3 - 0.2j], [-1.1j, 0.8]])
        phi = np.asarray(st.phi_closed(betas))
        assert phi.shape == betas.shape and np.all(np.isfinite(phi))

    @pytest.mark.parametrize("spec", [
        StateSpec("thermal", {"nbar": 0.5}),
        StateSpec("spats", {"nbar": 1.0}),
        StateSpec("cauchy_lorentz", {"t": 3.0}),
        StateSpec("cauchy_lorentz_ncl", {"t": 3.0}),
    ], ids=_spec_id)
    def test_a_displacement_in_the_spec_alone_moves_the_state(self, spec):
        # every stored field describes rho_c, so a state moved by its spec
        # alone is make_state's at that displacement, density included
        a0 = 1.0 + 0.5j
        st = make_state(spec)
        moved = replace(st, spec=replace(st.spec, displacement=a0))
        built = make_state(replace(spec, displacement=a0))
        points = np.array([a0, 0j, 0.3 - 1.2j, 2.0 + 0.7j])
        np.testing.assert_array_equal(regular_p(moved, points), regular_p(built, points))
        np.testing.assert_array_equal(char_fn(moved, points), char_fn(built, points))
        assert vacuum_probability(moved) == vacuum_probability(built)

    @staticmethod
    def _assert_same_state(st, twin):
        """Phi, moments, Fock matrix and Gaussian pair equal, bit for bit."""
        mesh = PhaseGrid(extent=3.0, resolution=31).mesh()
        np.testing.assert_array_equal(char_fn(st, mesh), char_fn(twin, mesh))
        np.testing.assert_array_equal(st.moments(4), twin.moments(4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            np.testing.assert_array_equal(fock_matrix(st, 12).matrix,
                                          fock_matrix(twin, 12).matrix)
        assert st.gaussian_xp == twin.gaussian_xp

    @pytest.mark.parametrize("spec", [
        StateSpec("squeezed", {"xi": 1.0}),
        StateSpec("fock_element", {"m": 1, "n": 3}),
        StateSpec("thermal", {"nbar": 0.5}),
    ], ids=_spec_id)
    def test_a_rotation_in_the_spec_alone_turns_the_state(self, spec):
        # every stored field describes rho_u, so a state turned by its spec
        # alone is make_state's at that rotation
        st = make_state(spec)
        turned = replace(st, spec=replace(st.spec, rotation=0.7))
        built = make_state(replace(spec, rotation=0.7))
        self._assert_same_state(turned, built)
        if spec.kind == "squeezed":  # the report reads the rotated state too
            assert classify(turned).to_dict() == classify(built).to_dict()

    def test_a_rotation_set_back_to_zero_unturns_the_state(self):
        spec = StateSpec("squeezed", {"xi": 1.0})
        st = make_state(replace(spec, rotation=0.7))
        self._assert_same_state(replace(st, spec=replace(st.spec, rotation=0.0)),
                                make_state(spec))

    @pytest.mark.parametrize("rotation", [0.7, 2.9, -1.3])
    @pytest.mark.parametrize("xi", [0.3, 1.0, 1.4])
    def test_a_rotation_keeps_the_fock_diagonal_exactly(self, xi, rotation):
        # exp(i phi (m - n)) is exactly 1 on the diagonal
        spec = StateSpec("squeezed", {"xi": xi})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # xi = 1.4 loses 6.5e-5
            turned = fock_matrix(make_state(replace(spec, rotation=rotation)), 64).matrix
            still = fock_matrix(make_state(spec), 64).matrix
        np.testing.assert_array_equal(np.diag(turned), np.diag(still))

    def test_only_the_states_module_reads_private_state_fields(self):
        # the frame of a state (rotation and displacement) is decided in
        # states.py alone; every other module goes through State's accessors
        private = re.compile(r"\.(_base_fock_builder|_tail_loss|_xp)\b")
        src = pathlib.Path(states.__file__).parent
        readers = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                   if path.name != "states.py"
                   for i, line in enumerate(path.read_text().splitlines(), 1)
                   if private.search(line)]
        assert readers == []

    @pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
    @pytest.mark.parametrize("spec", CATALOG, ids=_spec_id)
    def test_every_state_carries_its_moments(self, spec, mod):
        # the table describes the undisplaced state, so a displaced state's
        # table equals its undisplaced twin's; T[0, 0] = Phi(0)
        st = make_state(replace(spec, **mod))
        table = st.moments(4)
        twin = make_state(replace(spec, **{**mod, "displacement": 0j}))
        np.testing.assert_array_equal(table, twin.moments(4))
        n = table.shape[0]
        assert 1 <= n <= 5 and table.shape == (n, n) and np.all(np.isfinite(table))
        assert table[0, 0] == pytest.approx(st.phi_closed(np.zeros(1))[0], abs=1e-12)
        if spec.kind.startswith("cauchy_lorentz"):  # cut before the first k >= t
            assert n == math.ceil(spec.params["t"])
        else:
            assert n == 5

    @pytest.mark.parametrize("physical", [True, False])
    def test_explicit_state_carries_its_phi(self, physical):
        st = from_fock_matrix(np.diag([0.25, 0.5, 0.25]), physical=physical)
        phi = np.asarray(st.phi_closed(np.array([0j, 0.3 - 0.2j])))
        assert phi.shape == (2,) and phi[0] == pytest.approx(1.0, abs=1e-15)

    def test_rotated_heavy_tail_classify_builds_no_fock_matrix(self):
        st = make_state(StateSpec("cauchy_lorentz", {"t": 1.9}, rotation=0.9))
        builder, calls = st._base_fock_builder, []
        st._base_fock_builder = lambda K: calls.append(K) or builder(K)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            classify(st)
        assert calls == [0]  # the vacuum weight rho_c[0, 0] alone

    @pytest.mark.parametrize("make", [
        lambda: from_fock_matrix(np.diag([0.5, 0.2, 0.3])),
        lambda: make_state(StateSpec("fock_mixture", {"w1": 0.4, "w3": 0.6}, rotation=0.9)),
        lambda: make_state(StateSpec("squeezed", {"xi": 1.0}, rotation=0.7)),
    ], ids=["explicit", "rotated-fock_mixture", "rotated-squeezed"])
    def test_classify_builds_no_fock_matrix(self, make, monkeypatch):
        # every moment table comes from State.moments, not from a Fock
        # cutoff; the builder is read once, at cutoff 0, for the vacuum weight
        st, calls = make(), []
        builder = st._base_fock_builder
        st._base_fock_builder = lambda K: calls.append(K) or builder(K)
        monkeypatch.setattr(states, "fock_matrix",
                            lambda s, K: calls.append(K) or fock_matrix(s, K))
        classify(st, grid=PhaseGrid(2.0, 21))
        assert calls == [0]


#: the catalog states whose rho_c is diagonal in Fock space
RADIAL_CATALOG = [s for s in CATALOG if make_state(s).radial]


class TestStateFamilies:
    """The catalog is built from its families, and their invariants hold."""

    @pytest.mark.parametrize("spec,gamma", [
        (StateSpec("thermal", {"nbar": 0.5}), 0.5),
        (StateSpec("thermal", {"nbar": 2.0}), 2.0),
        (StateSpec("fock_element", {"m": 0, "n": 0}), 0.0),
        (StateSpec("p_max"), -0.5),
    ], ids=["thermal0.5", "thermal2", "vacuum", "p_max"])
    def test_generator_family(self, spec, gamma):
        # exp(gamma d d*) delta: rho_c[k, k] = gamma^k/(1+gamma)^(k+1), tail q^(K+1)
        st, K = make_state(spec), 12
        q = gamma / (1.0 + gamma)
        k = np.arange(K + 1)
        np.testing.assert_allclose(np.diag(st._base_fock_builder(K)).real,
                                   gamma ** k / (1.0 + gamma) ** (k + 1), rtol=1e-14, atol=0)
        assert st._tail_loss(K) == pytest.approx(q ** (K + 1), rel=1e-14, abs=0)
        assert vacuum_probability(st) == 1.0 / (1.0 + gamma)
        assert st.gaussian_xp == (gamma, gamma) and st.radial

    @pytest.mark.parametrize("mod", [{"rotation": 0.9},
                                     {"rotation": 0.9, "displacement": 0.5 + 0.3j}],
                             ids=["rotation", "both"])
    @pytest.mark.parametrize("spec", RADIAL_CATALOG, ids=_spec_id)
    def test_rotation_leaves_a_radial_state_alone(self, spec, mod):
        # a Fock-diagonal state is rotation-invariant: every field equals the
        # unrotated twin's bit for bit
        st = make_state(replace(spec, **mod))
        twin = make_state(replace(spec, **{**mod, "rotation": 0.0}))
        np.testing.assert_array_equal(st.moments(4), twin.moments(4))
        if not st.spec.displacement:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                np.testing.assert_array_equal(fock_matrix(st, 12).matrix,
                                              fock_matrix(twin, 12).matrix)
        assert vacuum_probability(st) == vacuum_probability(twin)
        mesh = PhaseGrid(extent=4.0, resolution=161).mesh()
        np.testing.assert_array_equal(st.phi_centred(mesh), twin.phi_centred(mesh))

        def report(s):
            d = classify(s).to_dict()
            del d["state"]
            return json.dumps(d, sort_keys=True)

        assert report(st) == report(twin)

    def test_explicit_diagonal_matrix_is_the_fock_mixture(self):
        w = [0.2, 0.0, 0.5, 0.3]
        mix = make_state(StateSpec("fock_mixture", {f"w{k}": v for k, v in enumerate(w)}))
        explicit = from_fock_matrix(np.diag(w))
        mesh = PhaseGrid(extent=4.0, resolution=41).mesh()
        np.testing.assert_array_equal(explicit.moments(6), mix.moments(6))
        np.testing.assert_array_equal(explicit._base_fock_builder(9), mix._base_fock_builder(9))
        assert vacuum_probability(explicit) == vacuum_probability(mix)
        assert explicit.radial and mix.radial
        np.testing.assert_array_equal(explicit.phi_centred(mesh), mix.phi_centred(mesh))

    def test_finite_state_loss_is_the_missing_trace(self):
        eta = 0.6
        st = make_state(StateSpec("photon_vacuum_mix", {"eta": eta}))
        with pytest.warns(TruncationWarning):
            fm = fock_matrix(st, 0)
        assert fm.truncation_loss == pytest.approx(eta, rel=1e-15)
        mix = make_state(StateSpec("fock_mixture", {"w0": 0.1, "w3": 0.2, "w7": 0.7}))
        for K in (7, 8, 20):
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                assert fock_matrix(mix, K).truncation_loss <= 1e-9


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

    def test_laguerre_route_takes_every_row(self, monkeypatch):
        calls = []
        original = states.fock_phi
        monkeypatch.setattr(states, "fock_phi", lambda rho: calls.append(rho.shape) or original(rho))
        from_fock_matrix(np.eye(5) / 5)
        st = from_fock_matrix(np.eye(401) / 401)
        assert calls == [(5, 5), (401, 401)]
        # Phi of the maximally mixed 401-row state is the mean of L_0..L_400
        with mpmath.workdps(40):
            mean = float(mpmath.fsum(mpmath.laguerre(k, 0, 2.25) for k in range(401))) / 401
        assert char_fn(st, 1.5 + 0j) == pytest.approx(mean, rel=1e-12)
        # more rows than Fock index 400 are rejected before the route is built
        with pytest.raises(ParameterError, match="above 400"):
            from_fock_matrix(np.eye(402) / 402)
        assert len(calls) == 2


class TestLaguerreOracle:
    """The Laguerre route against mpmath at 80 digits."""

    @pytest.fixture(autouse=True)
    def _digits(self):
        # the dense oracle cancels terms up to exp(2 |beta| sqrt(64)) = 1e39
        with mpmath.workdps(80):
            yield

    def test_fock_mixture_with_weight_on_300(self):
        st = make_state(StateSpec("fock_mixture", {"w0": 0.5, "w300": 0.5}))
        for x in (2.0, 8.0, 18.0, 32.0):
            b = math.sqrt(x) * complex(math.cos(0.4), math.sin(0.4))
            oracle = 0.5 + 0.5 * mpmath.laguerre(300, 0, mpmath.mpf(x))
            assert abs(char_fn(st, b) - complex(oracle)) <= 1e-12 * abs(oracle)

    def test_random_dense_pure_state(self):
        # Phi = <e^(conj(b) a) psi | e^(-conj(b) a) psi>: a finite sum on 65 rows
        rng = np.random.default_rng(65)
        c = rng.normal(size=65) + 1j * rng.normal(size=65)
        c /= np.linalg.norm(c)
        beta = 4.0 + 4.0j
        cm = [mpmath.mpc(v.real, v.imag) for v in c]

        def lowered(z):
            z = mpmath.mpc(z.real, z.imag)
            return [mpmath.fsum(z ** (j - k) / mpmath.factorial(j - k)
                                * mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(k)) * cm[j]
                                for j in range(k, 65)) for k in range(65)]

        left, right = lowered(np.conj(beta)), lowered(-np.conj(beta))
        oracle = complex(mpmath.fsum(mpmath.conj(u) * v for u, v in zip(left, right)))
        st = from_fock_matrix(np.outer(c, c.conj()))
        got = char_fn(st, beta)
        # the route's own roundoff bound holds, and so does the relative error
        assert abs(got - oracle) <= st.phi_roundoff * math.exp(0.5 * abs(beta) ** 2)
        assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_weight_on_80_is_evaluated(self):
        rho = np.zeros((81, 81))
        rho[0, 0] = rho[80, 80] = 0.5
        st = from_fock_matrix(rho)
        for b in (0.5, 2.9j, 4.0 + 4.0j):
            oracle = 0.5 + 0.5 * mpmath.laguerre(80, 0, mpmath.mpf(abs(b) ** 2))
            assert abs(char_fn(st, b) - complex(oracle)) <= 1e-12 * abs(oracle)


def _resummed_reference(rho, order):
    """d[q, r], the last k-term and sum_k |term|, by a plain loop over q, r and k."""
    K = rho.shape[0] - 1
    d = np.zeros((order + 1, order + 1), dtype=complex)
    last = np.zeros_like(d)
    size = np.zeros(d.shape)
    lg = [math.lgamma(j + 1.0) for j in range(K + 1)]
    for q in range(order + 1):
        for r in range(order + 1):
            for k in range(K - max(q, r) + 1):
                last[q, r] = rho[q + k, r + k] * math.exp(
                    0.5 * (lg[q + k] + lg[r + k]) - lg[k] - lg[q] - lg[r])
                d[q, r] += last[q, r]
                size[q, r] += abs(last[q, r])
    return d, last, size


def _resummed_by_k(rho, order):
    """The same sums, one vectorized step per k: the same arithmetic in the same order.

    The exponent of each k-term is 0.5 (R[q] + R[r]) - lg q! - lg r!, with the
    rising factorials R[q] = log((k+q)!/k!) summed from log(k + i) one k at a time.
    """
    K = rho.shape[0] - 1
    lg = gammaln(np.arange(order + 1) + 1.0)
    d = np.zeros((order + 1, order + 1), dtype=complex)
    last = np.zeros_like(d)
    for k in range(K + 1):
        n = min(K + 1 - k, order + 1)
        rise = np.concatenate([[0.0], np.cumsum(np.log(k + np.arange(1.0, order + 1)))])
        logs = 0.5 * (rise[:n, None] + rise[None, :n]) - lg[:n, None] - lg[None, :n]
        last[:n, :n] = rho[k:k + n, k:k + n] * np.exp(logs)
        d[:n, :n] += last[:n, :n]
    return d, last


@pytest.mark.parametrize("size,order", [(1, None), (6, None), (6, 2), (6, 10), (40, None),
                                        (65, None), (129, 4)])
def test_resummed_coefficients_against_a_double_loop(size, order):
    rng = np.random.default_rng(size)
    rho = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    o = min(size - 1, size - 1 if order is None else order)
    d, last = resummed_coefficients(rho, order)
    d_ref, last_ref, terms = _resummed_reference(rho, o)
    assert d.shape == last.shape == d_ref.shape
    # to the roundoff of exp(log-factorials of a few hundred), relative to sum_k |term|
    assert np.all(np.abs(d - d_ref) <= 1e-12 * terms)
    np.testing.assert_allclose(last, last_ref, rtol=1e-12, atol=0)
    # the blocked steps add the same terms in the same order as a step per k
    d_k, last_k = _resummed_by_k(rho, o)
    assert np.array_equal(d, d_k) and np.array_equal(last, last_k)
