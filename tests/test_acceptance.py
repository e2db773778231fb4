"""Acceptance suite: one test per criterion, each printing a pass/fail line.

These call the same criterion functions that back ``gsphase verify``, so a
green run here matches a zero exit status there.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from gsphase import acceptance
from gsphase.cli import main as cli_main
from gsphase.numerics import gauss_nodes_1d


def _run(criterion, budget_seconds=None):
    t0 = time.time()
    result = criterion()
    elapsed = time.time() - t0
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.number:2d} {status} ({elapsed:5.1f}s)  {result.name}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"criterion {result.number} failed: {result.details}"
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {result.number} over budget"
    return result


def test_criterion_1_fock_element_oracle():
    _run(acceptance.criterion_1, budget_seconds=10.0)


def test_criterion_2_thermal_duality():
    _run(acceptance.criterion_2)


def test_criterion_3_fock_diagonal_cross_oracle():
    result = _run(acceptance.criterion_3)
    assert any("KNOWN-DISCREPANCY" in d for d in result.details)


def test_criterion_4_quantum_bound():
    _run(acceptance.criterion_4)


def test_criterion_5_tri_gaussian_closed_form():
    _run(acceptance.criterion_5)


def test_criterion_6_regularized_profiles():
    _run(acceptance.criterion_6, budget_seconds=120.0)


def test_criterion_7_filtered_normalization():
    _run(acceptance.criterion_7)


def test_criterion_8_battery():
    _run(acceptance.criterion_8)


def test_criterion_9_heavy_tail_moments():
    _run(acceptance.criterion_9)


def test_criterion_10_dual_space():
    _run(acceptance.criterion_10)


def test_criterion_11_verify_determinism(tmp_path):
    runner = CliRunner()
    paths = [tmp_path / "report_a.json", tmp_path / "report_b.json"]
    for p in paths:
        res = runner.invoke(cli_main, ["verify", "--out", str(p)])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output
    a, b = paths[0].read_bytes(), paths[1].read_bytes()
    assert a == b
    # every number in the report is a plain Python repr, never a numpy scalar's
    details = [d for c in json.loads(a)["criteria"] for d in c["details"]]
    assert details and not [d for d in details if "np." in d]
    print("ACCEPTANCE 11 PASS  byte-identical verify reports across runs")


def t_quadrature_per_g(y, g, nodes=500):
    """Criterion 5's quadrature as it was: one complex exp table per g."""
    z, w = gauss_nodes_1d(0.0, 1.0, nodes)
    vals = np.exp(-g * z * z + 2j * np.multiply.outer(y, z)) * (w * (1.0 - z))
    return (2.0 / math.pi) * vals.sum(axis=-1).real


def test_t_quadrature_rows_match_the_per_g_complex_form():
    ys = np.linspace(-10.0, 10.0, 201)
    gs = (-2.0, -0.5, 0.0, 0.5, 2.0)
    rows = acceptance._t_quadrature(ys, gs)
    assert rows.shape == (len(gs), ys.size)
    for g, row in zip(gs, rows):
        np.testing.assert_allclose(row, t_quadrature_per_g(ys, g), rtol=0, atol=1e-15)


def test_criterion_1_oracle_is_the_cutoff_60_block():
    # e^(beta a^dag) is lower triangular and e^(-conj(beta) a) upper
    # triangular, so the [:11, :11] block of their cutoff-60 product sums
    # the same k <= min(m, n) terms as the cutoff-10 product
    betas = acceptance._criterion_1_points()
    k = acceptance._C1_MAX_INDEX
    lower = acceptance.creation_exponential(betas, 60)
    upper = np.swapaxes(acceptance.creation_exponential(-np.conj(betas), 60), -1, -2)
    small_lower = acceptance.creation_exponential(betas, k)
    small_upper = np.swapaxes(acceptance.creation_exponential(-np.conj(betas), k), -1, -2)
    assert np.array_equal(small_lower, lower[:, : k + 1, : k + 1])
    assert np.array_equal(small_upper, upper[:, : k + 1, : k + 1])
    assert not lower[:, : k + 1, k + 1:].any() and not upper[:, k + 1:, : k + 1].any()
    block = (lower @ upper)[:, : k + 1, : k + 1]
    small = small_lower @ small_upper
    # relative to sum_k |L[n, k]| |U[k, m]|, the scale of either product's
    # roundoff: the entries cancel, to 1.2e-10 of themselves at worst
    scale = np.abs(small_lower) @ np.abs(small_upper)
    assert np.all(np.abs(small - block) <= 1e-13 * scale)
