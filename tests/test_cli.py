"""CLI tests: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gsphase
from gsphase.cli import MAX_GRID_RESOLUTION, config_hash, main
from gsphase.filters import filtered_p_numeric
from gsphase.numerics import PhaseGrid, read_field_csv
from gsphase.states import StateSpec, make_state

THERMAL = '{"kind": "thermal", "params": {"nbar": 0.5}}'
SPATS = '{"kind": "spats", "params": {"nbar": 1.0}}'
DISPLACED_LORENTZ = '{"kind": "cauchy_lorentz", "params": {"t": 3.0}, "displacement": {"re": 0.3, "im": 0.0}}'


@pytest.fixture
def runner():
    return CliRunner()


class TestCharfnCommand:
    def test_emits_schema_and_provenance(self, runner, tmp_path):
        out = tmp_path / "phi.csv"
        res = runner.invoke(main, ["charfn", "--state", THERMAL,
                                   "--grid", "2,21", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# gsphase charfn")
        assert lines[1].startswith("# config ")
        assert lines[2] == "x,p,re,im"
        grid, vals = read_field_csv(out)
        assert vals[10, 10] == pytest.approx(1.0)  # Phi(0) = 1

    def test_ordering_parameter(self, runner, tmp_path):
        out = tmp_path / "phi_s.csv"
        res = runner.invoke(main, ["charfn", "--state", THERMAL, "--grid", "2,21",
                                   "--s", "-1", "--out", str(out)])
        assert res.exit_code == 0
        _, vals = read_field_csv(out)
        # at beta = 2 (grid corner of the x axis): exp(-(nbar+1)|b|^2)
        assert vals[-1, 10].real == pytest.approx(math.exp(-1.5 * 4.0), rel=1e-10)

    def test_state_on_stdin(self, runner, tmp_path):
        out = tmp_path / "phi.csv"
        res = runner.invoke(main, ["charfn", "--state", "-", "--out", str(out),
                                   "--grid", "2,11"], input=THERMAL)
        assert res.exit_code == 0

    def test_squeezing_near_the_bound_underflows_quietly(self, runner, tmp_path):
        # lam x^2 overflows to inf for xi = 354; Phi = exp(-inf) = 0 without a RuntimeWarning
        out = tmp_path / "phi.csv"
        res = runner.invoke(main, ["charfn", "--state", '{"kind": "squeezed", "params": {"xi": 354}}',
                                   "--grid", "4,11", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, vals = read_field_csv(out)
        assert vals[0, 5] == 0.0 and vals[5, 5] == 1.0
        assert vals[5, 0].real == pytest.approx(math.exp(8.0), rel=1e-14)

    @pytest.mark.parametrize("s_args", [[], ["--s", "0"]], ids=["s-1", "s-0"])
    def test_non_finite_phi_is_an_error(self, runner, tmp_path, s_args):
        # kv overflows where |beta|^t / Gamma(t) underflows: Phi is nan at
        # every node but the origin, as the scans and the filter refuse it
        out = tmp_path / "phi.csv"
        res = runner.invoke(main, ["charfn", "--state",
                                   '{"kind": "cauchy_lorentz", "params": {"t": 1e5}}',
                                   "--grid", "4,5", "--out", str(out)] + s_args)
        assert res.exit_code == 1, res.output
        assert ("Error: Phi of cauchy_lorentz t=100000 is not finite at 24 of 25 nodes "
                "of the grid") in res.output
        assert "Traceback" not in res.output
        assert not out.exists()


class TestFilteredCommand:
    def test_grid_output(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["filtered", "--state", THERMAL,
                                   "--grid", "4,41", "--w", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, vals = read_field_csv(out)
        assert np.min(vals.real) >= -1e-9

    def test_grid_bytes_equal_per_node_reference(self, runner, tmp_path,
                                                 reference_field_csv):
        state = '{"kind": "spats", "params": {"nbar": 1.0}}'
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["filtered", "--state", state,
                                   "--grid", "3,21", "--w", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        spec = StateSpec.from_json(state)
        grid = PhaseGrid(extent=3.0, resolution=21)
        values = np.real(filtered_p_numeric(make_state(spec), 2.0, grid).values)
        config = {"command": "filtered", "state": spec.to_json(), "grid": "3,21",
                  "w": 2.0, "cut": None}
        comments = ["gsphase filtered", f"config {config_hash(config)}"]
        expected = reference_field_csv(grid, values.astype(complex), comments)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_gaussian_state_takes_the_closed_form_as_classify_does(self, runner, tmp_path):
        # the numeric filter does not converge for this state (128 and 200
        # nodes per panel differ by 2.7e-9); the translated closed form does
        state = json.dumps({"kind": "squeezed", "params": {"xi": 6.0},
                            "displacement": {"re": 0.5, "im": -0.4}})
        out, report = tmp_path / "p.csv", tmp_path / "report.json"
        res = runner.invoke(main, ["filtered", "--state", state, "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["classify", "--state", state, "--out", str(report)])
        assert res.exit_code == 0, res.output
        _, vals = read_field_csv(out)
        entries = {e["criterion"]: e for e in json.loads(report.read_text())["entries"]}
        negativity = entries["filtered_negativity"]
        assert vals.real.min() == negativity["witness_value"]
        assert negativity["witness_value"] == pytest.approx(-3.3e-4, rel=0.05)
        assert negativity["verdict"] == "nonclassical-certified"
        assert not np.any(vals.imag)

    def test_fast_growing_phi_at_a_large_width(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["filtered", "--state", '{"kind": "p_max"}',
                                   "--w", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        grid, vals = read_field_csv(out)
        assert grid == PhaseGrid(4.0, 321)
        assert np.all(np.isfinite(vals))

    def test_cut_output(self, runner, tmp_path):
        out = tmp_path / "cut.csv"
        res = runner.invoke(main, ["filtered", "--state", '{"kind": "p_max"}',
                                   "--grid", "4,81", "--w", "2", "--cut", "re",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,value"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert min(values) < -1e-3


class TestClassifyCommand:
    def test_thermal_zero_certifications(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["classify", "--state", THERMAL, "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["overall"] == "consistent-with-classical"
        verdicts = {e["criterion"]: e["verdict"] for e in payload["entries"]}
        assert all(v != "nonclassical-certified" for v in verdicts.values())

    @pytest.mark.parametrize("a0", [7.5, 10.0])
    def test_far_coherent_state_writes_a_report(self, runner, tmp_path, a0):
        out = tmp_path / "report.json"
        state = json.dumps({"kind": "fock_element", "params": {"m": 0, "n": 0},
                            "displacement": {"re": a0, "im": 0.0}})
        res = runner.invoke(main, ["classify", "--state", state, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "Traceback" not in res.output

        def no_constant(name):
            raise AssertionError(f"report contains {name}")

        payload = json.loads(out.read_text(), parse_constant=no_constant)
        assert payload["overall"] == "consistent-with-classical"
        entries = {e["criterion"]: e for e in payload["entries"]}
        assert entries["moment_matrix"]["verdict"] == "consistent-with-classical"
        assert math.isfinite(entries["moment_matrix"]["witness_value"])
        assert entries["vacuum_probability"]["witness_value"] == pytest.approx(math.exp(-a0**2),
                                                                               rel=1e-12)

    @pytest.mark.parametrize("state", [
        '{"kind": "thermal", "params": {"nbar": Infinity}}',
        '{"kind": "cauchy_lorentz", "params": {"t": Infinity}}',
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": {"re": NaN, "im": 0.0}}',
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": {"re": Infinity, "im": 0.0}}',
        '{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": {"re": 1e200, "im": 0.0}}',
        '{"kind": "squeezed", "params": {"xi": 800}}',
    ], ids=["nbar-inf", "t-inf", "displacement-nan", "displacement-inf", "displacement-1e200",
            "squeezing-overflows"])
    def test_non_finite_or_far_state_is_a_usage_error(self, runner, tmp_path, state):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["classify", "--state", state, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_unsound_tolerance_is_a_usage_error(self, runner, tmp_path, tolerance):
        # -1 certified this thermal state; nan never certified anything
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["classify", "--state", THERMAL, "--tolerance", tolerance,
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "certification margin must be finite and >= 0" in res.output
        assert not out.exists()

    def test_zero_tolerance_is_accepted(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["classify", "--state", THERMAL, "--tolerance", "0",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["overall"] == "consistent-with-classical"

    def test_report_schema(self, runner, tmp_path):
        out = tmp_path / "report.json"
        runner.invoke(main, ["classify", "--state", '{"kind": "p_max"}', "--out", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) == {"config_hash", "state", "overall", "entries"}
        for entry in payload["entries"]:
            assert set(entry) == {"criterion", "verdict", "witness_value", "location", "detail"}


class TestFockdiagCommand:
    def test_discrepancy_report(self, runner, tmp_path):
        out = tmp_path / "diag.json"
        res = runner.invoke(main, ["fockdiag", "--gamma", "-0.5", "--kmax", "4",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["pairing_route"][0] == pytest.approx(2.0, abs=1e-9)
        assert payload["routes_agree_within_1e-6"] is True
        assert payload["published_form_matches"] is False
        assert "KNOWN-DISCREPANCY" in payload["note"]

    def test_gamma_guard(self, runner, tmp_path):
        res = runner.invoke(main, ["fockdiag", "--gamma", "1.5",
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("kmax", ["8", "60"])
    def test_divergent_series_is_a_clean_error(self, runner, tmp_path, kmax):
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["fockdiag", "--gamma", "0.9", "--kmax", kmax,
                                   "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        # k = 3 is the first symbol whose terms cancel below their rounding
        assert "Error:" in res.output and "terms cancel" in res.output
        assert not out.exists()

    def test_negative_kmax_rejected(self, runner, tmp_path):
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["fockdiag", "--kmax", "-3", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "--kmax" in res.output
        assert not out.exists()

    def test_kmax_past_the_symbols_max_order_rejected(self, runner, tmp_path):
        # the |k><k| symbols stop at order 400; 401 used to pair to 0j
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["fockdiag", "--kmax", "401", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "k_max must be an integer >= 0 and at most 400" in res.output
        assert not out.exists()


class TestFigure1Command:
    def test_emits_four_files_with_peak(self, runner, tmp_path):
        res = runner.invoke(main, ["figure1", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["fig1a_vacuum.csv", "fig1b_max_singular.csv",
                         "fig1c_thermal_half.csv", "fig1d_squeezed_1p4.csv"]
        rows = [l for l in (tmp_path / "fig1a_vacuum.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        peak = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}[0.0]
        assert peak == pytest.approx(4.0 / math.pi**2, rel=1e-12)
        squeezed = (tmp_path / "fig1d_squeezed_1p4.csv").read_text().splitlines()
        header = [l for l in squeezed if l.startswith("t,")][0]
        assert header == "t,value,value_antisqueezed"

    def test_underflowing_width_writes_no_nan_rows(self, runner, tmp_path):
        # figure1 calls filtered_p_gaussian directly; at w = 1e-300 each of
        # its four cut files held 20 nan rows, with exit 0
        res = runner.invoke(main, ["figure1", "--w", "1e-300", "--grid", "4,21",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert ("Error: the filtered cut fig1a_vacuum of fock_element m=0 n=0 at w=1e-300 "
                "is not finite at 20 of 21 nodes") in res.output
        assert "Traceback" not in res.output
        for path in tmp_path.glob("*.csv"):
            assert "nan" not in path.read_text()


class TestDeterminism:
    def test_byte_identical_outputs(self, runner, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / f"grid_{tag}.csv"
            res = runner.invoke(main, ["filtered", "--state", THERMAL,
                                       "--grid", "4,41", "--out", str(out)])
            assert res.exit_code == 0
            pairs.append(out.read_bytes())
        assert pairs[0] == pairs[1]

        reports = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}.json"
            runner.invoke(main, ["classify", "--state", THERMAL, "--out", str(out)])
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_verify_report_does_not_depend_on_threads(self, runner, tmp_path):
        reports = []
        for threads in ("1", "4"):
            out = tmp_path / f"verify_{threads}.json"
            res = runner.invoke(main, ["verify", "--threads", threads, "--out", str(out)])
            assert res.exit_code == 0, res.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_verify_report_does_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once, at import, so each count
        # needs its own interpreter; a BLAS reduction whose rounding follows
        # the thread count would change the report's digits
        src = str(Path(gsphase.__file__).resolve().parents[1])
        reports = []
        for blas in ("1", "2"):
            out = tmp_path / f"verify_blas_{blas}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            res = subprocess.run([sys.executable, "-m", "gsphase.cli", "verify",
                                  "--threads", "1", "--out", str(out)],
                                 env=env, capture_output=True, text=True, timeout=600)
            assert res.returncode == 0, res.stdout + res.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_config_hash_stability(self):
        cfg = {"command": "filtered", "state": THERMAL, "grid": "4,321", "w": 2.0}
        assert config_hash(cfg) == config_hash(dict(reversed(list(cfg.items()))))


class TestConfigErrors:
    def test_bad_state_json(self, runner, tmp_path):
        res = runner.invoke(main, ["charfn", "--state", "{broken",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_bad_parameter(self, runner, tmp_path):
        res = runner.invoke(main, ["charfn", "--state",
                                   '{"kind": "thermal", "params": {"nbar": -2}}',
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_even_grid_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["charfn", "--state", THERMAL, "--grid", "4,100",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_negative_width_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["filtered", "--state", THERMAL, "--w", "-1",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("width", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command,state", [("filtered", THERMAL), ("classify", THERMAL),
                                               ("classify", SPATS)],
                             ids=["filtered", "classify-gaussian", "classify-numeric"])
    def test_bad_width_is_a_usage_error(self, runner, tmp_path, command, state, width):
        out = tmp_path / "x.out"
        res = runner.invoke(main, [command, "--state", state, "--w", width,
                                   "--grid", "2,11", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "filter width must be finite and positive" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_underflowing_width_writes_no_nan_rows(self, runner, tmp_path):
        # w^2 underflows at w = 1e-300: the Gaussian route's field was nan
        # at 440 of 441 nodes, and the CSV was written with exit 0
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["filtered", "--state", THERMAL, "--w", "1e-300",
                                   "--grid", "4,21", "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert ("Error: the filtered field of thermal nbar=0.5 at w=1e-300 is not finite "
                "at 440 of 441 grid nodes") in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_underflowing_width_leaves_classify_no_nan(self, runner, tmp_path):
        # the filter entry was "witness_value": NaN with a consistent verdict
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["classify", "--state", THERMAL, "--w", "1e-300",
                                   "--grid", "4,21", "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = out.read_text()
        assert "NaN" not in text
        entry = json.loads(text)["entries"][3]
        assert entry["criterion"] == "filtered_negativity"
        assert entry["verdict"] == "inapplicable/diverged" and entry["witness_value"] is None
        assert entry["detail"].startswith("RangeError: the filtered field of thermal nbar=0.5 ")

    @pytest.mark.parametrize("command", ["filtered", "classify"])
    def test_overflowing_width_is_a_usage_error_that_names_it(self, runner, tmp_path, command):
        # w^2 lam = inf at w = 1e300 was refused as "tri_gaussian_ft needs a
        # finite real g (got inf)"
        out = tmp_path / "x.out"
        res = runner.invoke(main, [command, "--state", THERMAL, "--w", "1e300",
                                   "--grid", "4,21", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error: filter width w=1e+300 is too large for the Gaussian Phi" in res.output
        assert "tri_gaussian_ft" not in res.output and "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filtered"])
    def test_unresolved_filter_is_an_error(self, runner, tmp_path, command):
        # w = 40 on extent 10 is beyond 200 Gauss nodes per panel; the fixed
        # rule certified the coherent state as nonclassical.  The numeric
        # filter serves the displaced Lorentz state only: the coherent
        # state's filter is the translated closed form
        out = tmp_path / "x.out"
        res = runner.invoke(main, [command, "--state", DISPLACED_LORENTZ, "--w", "40",
                                   "--grid", "10,161", "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "Error:" in res.output and "did not converge" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_unresolved_filter_leaves_classify_a_verdict(self, runner, tmp_path):
        # the same state and width: the filter entry is inapplicable, the
        # report is written, and nothing certifies the classical state
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["classify", "--state", DISPLACED_LORENTZ, "--w", "40",
                                   "--grid", "10,161", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        assert report["overall"] == "consistent-with-classical"
        entry = report["entries"][3]
        assert entry["criterion"] == "filtered_negativity"
        assert entry["verdict"] == "inapplicable/diverged"
        assert entry["detail"].startswith("NonConvergenceError: filtered transform at w=40 ")

    def test_complex_field_is_refused(self, runner, tmp_path):
        # |0><2| is not Hermitian: its filtered field's imaginary part reaches 0.167
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["filtered", "--state",
                                   '{"kind": "fock_element", "params": {"m": 0, "n": 2}}',
                                   "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "Error: field has imaginary residue 1.672e-01 > 1e-09" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filtered"])
    @pytest.mark.parametrize("kind", ["cauchy_lorentz", "cauchy_lorentz_ncl"])
    def test_non_finite_phi_is_an_error(self, runner, tmp_path, command, kind):
        out = tmp_path / "x.out"
        res = runner.invoke(main, [command, "--state",
                                   f'{{"kind": "{kind}", "params": {{"t": 100}}}}',
                                   "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert f"Error: Phi of {kind} t=100 is not finite at" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind,overall", [
        ("cauchy_lorentz", "consistent-with-classical"),
        ("cauchy_lorentz_ncl", "nonclassical-certified"),
    ])
    @pytest.mark.parametrize("t", ["100", "1e5"])
    def test_non_finite_phi_leaves_classify_a_verdict(self, runner, tmp_path, kind, overall, t):
        # kv overflows at the filter's small nodes from t = 100, and at
        # t = 1e5 Phi is nan on the scan grid too: those entries are
        # inapplicable, and the vacuum criterion still certifies the ncl state
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["classify", "--state",
                                   f'{{"kind": "{kind}", "params": {{"t": {t}}}}}',
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        assert report["overall"] == overall
        entries = {e["criterion"]: e for e in report["entries"]}
        failed = ["filtered_negativity"] + (["characteristic_function"] if t == "1e5" else [])
        for name in failed:
            assert entries[name]["verdict"] == "inapplicable/diverged"
            assert entries[name]["detail"].startswith(f"RangeError: Phi of {kind} t={float(t):g} "
                                                      "is not finite at ")
        if t == "1e5":
            assert entries["characteristic_function"]["detail"].endswith("of the scan grid")

    @pytest.mark.parametrize("command", ["classify", "charfn", "filtered"])
    @pytest.mark.parametrize("state", [
        '{"kind": "spats", "params": {"nbar": 1e103}}',
        '{"kind": "spats", "params": {"nbar": 1e200}, "displacement": {"re": 0.5, "im": 0.0}}',
    ], ids=["nbar-cubed-overflows", "displaced-nbar-squared-overflows"])
    def test_huge_spats_nbar_is_a_usage_error(self, runner, tmp_path, command, state):
        # pi nbar^3 of the regular density and (nbar + 1)^2 of the Fock
        # diagonal raised OverflowError; the bound refuses nbar first
        out = tmp_path / "x.out"
        res = runner.invoke(main, [command, "--state", state, "--grid", "2,11",
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error: spats requires nbar <= 1e+100" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("state", [
        '{"kind": "thermal", "params": {"nbar": "abc"}}',
        '{"kind": "fock_mixture", "params": {"wx": 1.0}}',
        '{"kind": "fock_element", "params": {"m": 500, "n": 2}}',
        '{"kind": "thermal", "params": [0.5]}',
        '{"kind": "fock_mixture", "params": {"w0": 0.5, "w100000000": 0.5}}',
    ], ids=["non_numeric_param", "bad_mixture_key", "fock_index_too_large",
            "params_not_an_object", "mixture_index_too_large"])
    def test_bad_state_is_a_usage_error(self, runner, tmp_path, state):
        res = runner.invoke(main, ["charfn", "--state", state, "--grid", "2,5",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error:" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("state,field", [
        ('{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": [0.5, 0.5]}',
         "'displacement' must be an object"),
        ('{"kind": "thermal", "params": {"nbar": 0.5}, "displacement": "0.5"}',
         "'displacement' must be an object"),
        ('{"kind": "thermal", "params": [1]}', "'params' must be an object of numbers"),
        ('{"kind": "thermal", "params": {"nbar": true}}', "'params' must be an object of numbers"),
        ('{"kind": "thermal", "params": {"nbar": 0.5}, "rotation": true}',
         "'rotation' must be a number"),
    ], ids=["displacement-list", "displacement-string", "params-list", "nbar-true",
            "rotation-true"])
    def test_malformed_state_json_names_its_field(self, runner, tmp_path, state, field):
        # these gave Python's "'list' object has no attribute 'get'" or were
        # read as 1
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["classify", "--state", state, "--grid", "2,11",
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"state JSON field {field}" in res.output
        assert "has no attribute" not in res.output and "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_option_is_a_usage_error(self, runner, threads):
        # rejected while parsing, before the battery starts
        res = runner.invoke(main, ["verify", "--threads", threads])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "PASS" not in res.output

    def test_grid_resolution_capped_before_allocation(self, runner, tmp_path):
        # rejected while parsing --grid, before the state or the mesh is built;
        # the smallest rejected N keeps the test cheap even if the cap breaks
        res = runner.invoke(main, ["charfn", "--state", THERMAL,
                                   "--grid", f"4,{MAX_GRID_RESOLUTION + 2}",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "at most" in res.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["nan,21", "inf,21"])
    def test_non_finite_grid_extent_is_a_usage_error(self, runner, tmp_path, grid):
        res = runner.invoke(main, ["charfn", "--state", THERMAL, "--grid", grid,
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2, res.output
        assert "grid extent must be finite and positive" in res.output
        assert not (tmp_path / "x.csv").exists()
