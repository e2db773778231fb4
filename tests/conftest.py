"""Helpers shared by the test modules."""

import pytest


def _reference_field_csv(grid, values, comments=()) -> str:
    """Field CSV text built node by node: the format write_field_csv must keep."""
    ax = [float(x) for x in grid.axis()]
    lines = [f"# {c}" for c in comments] + ["x,p,re,im"]
    for i, x in enumerate(ax):
        for j, p in enumerate(ax):
            v = complex(values[i, j])
            lines.append(f"{x!r},{p!r},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def reference_field_csv():
    return _reference_field_csv
