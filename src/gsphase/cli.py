"""Command-line front end.

Subcommands: ``charfn`` (characteristic-function grids), ``filtered``
(regularized distributions, full grids or 1-D cuts), ``classify`` (the
nonclassicality battery), ``fockdiag`` (Fock diagonal of a generator
series with its cross-oracle report), ``figure1`` (the four reference
regularized profiles at w=2 as plot-ready cut files), and ``verify``
(the acceptance suite; exits non-zero on any failure).

All outputs are deterministic byte-for-byte for a given configuration;
every CSV carries a header row and a provenance comment with the hash of
the canonicalized configuration.  The environment variable
PHASESPACE_THREADS caps worker parallelism; when set it must be a positive
integer.
"""

from __future__ import annotations

import hashlib
import json
import sys

import click
import numpy as np

from . import __version__
from .acceptance import default_workers, report_payload, run_with_determinism_check
from .charfn import char_fn, char_fn_s
from .deltaseries import exp_laplace_series, fock_diagonal
from .errors import GsphaseError, ParameterError
from .filters import FilterKernel, GaussianCharFn, filtered_p_gaussian, filtered_p_numeric
from .numerics import MAX_GRID_RESOLUTION, PhaseGrid, write_field_csv  # noqa: F401
from .states import StateSpec, make_state
from .witness import classify as classify_state, real_values

FIG1_STATES = [
    ("fig1a_vacuum", StateSpec("fock_element", {"m": 0, "n": 0})),
    ("fig1b_max_singular", StateSpec("p_max")),
    ("fig1c_thermal_half", StateSpec("thermal", {"nbar": 0.5})),
    ("fig1d_squeezed_1p4", StateSpec("squeezed", {"xi": 1.4})),
]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _parse_grid(text: str) -> PhaseGrid:
    try:
        l_str, n_str = text.split(",")
        extent, n = float(l_str), int(n_str)
    except ValueError as exc:
        raise click.UsageError(f"--grid expects L,N (got {text!r})") from exc
    if n % 2 == 0:
        raise click.UsageError("--grid resolution N must be odd so the origin is a node")
    # PhaseGrid refuses a non-finite extent and N > MAX_GRID_RESOLUTION with a
    # ParameterError (exit 2) before anything is allocated
    return PhaseGrid(extent=extent, resolution=n)


def _parse_state(text: str) -> StateSpec:
    return StateSpec.from_json(sys.stdin.read() if text == "-" else text)


class _LibraryErrors(click.Command):
    """The CLI's one error-mapping point: in any subcommand a ParameterError
    is a usage error (exit 2) and any other GsphaseError exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParameterError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except GsphaseError as exc:
            raise click.ClickException(str(exc)) from exc


def _write_cut_csv(path, ts, columns: dict, comments) -> None:
    names = ",".join(["t"] + list(columns))
    lines = [f"# {c}" for c in comments]
    lines.append(names)
    for i, t in enumerate(ts):
        row = [repr(float(t))] + [repr(float(v[i])) for v in columns.values()]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _provenance(command: str, config: dict) -> list[str]:
    return [f"gsphase {command}", f"config {config_hash(config)}"]


class _Group(click.Group):
    command_class = _LibraryErrors


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Phase-space calculus for Glauber-Sudarshan distributions."""


@main.command()
@click.option("--state", "state_json", required=True,
              help="State JSON {\"kind\": ..., \"params\": {...}} or '-' for stdin.")
@click.option("--grid", "grid_text", default="4,161", show_default=True,
              help="Frequency-plane grid L,N (N odd).")
@click.option("--s", "s_param", type=float, default=1.0, show_default=True,
              help="Ordering parameter; 1 is the unmodified characteristic function.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def charfn(state_json, grid_text, s_param, out_path):
    """Emit a characteristic-function grid as CSV (x,p are Re/Im beta)."""
    spec = _parse_state(state_json)
    grid = _parse_grid(grid_text)
    st = make_state(spec)
    config = {"command": "charfn", "state": spec.to_json(), "grid": grid_text, "s": s_param}
    vals = char_fn_s(st, grid.mesh(), s_param) if s_param != 1.0 else char_fn(st, grid.mesh())
    write_field_csv(out_path, grid, np.asarray(vals), comments=_provenance("charfn", config))
    click.echo(f"wrote {out_path} (config {config_hash(config)})")


@main.command()
@click.option("--state", "state_json", required=True)
@click.option("--w", "width", type=float, default=2.0, show_default=True)
@click.option("--grid", "grid_text", default="4,321", show_default=True)
@click.option("--cut", "cut_axis", type=click.Choice(["re", "im"]), default=None,
              help="Emit a 1-D cut (t,value) along Re alpha (im=0) or Im alpha (re=0).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def filtered(state_json, width, grid_text, cut_axis, out_path):
    """Emit a filter-regularized distribution grid or cut as CSV."""
    spec = _parse_state(state_json)
    grid = _parse_grid(grid_text)
    st = make_state(spec)
    config = {"command": "filtered", "state": spec.to_json(), "grid": grid_text,
              "w": width, "cut": cut_axis}
    comments = _provenance("filtered", config)
    fld = filtered_p_numeric(st, FilterKernel(width), grid)
    values = real_values(fld)
    if cut_axis is None:
        write_field_csv(out_path, grid, values.astype(complex), comments=comments)
    else:
        mid = grid.resolution // 2
        cut = values[:, mid] if cut_axis == "re" else values[mid, :]
        _write_cut_csv(out_path, grid.axis(), {"value": cut}, comments)
    click.echo(f"wrote {out_path} (config {config_hash(config)})")


@main.command()
@click.option("--state", "state_json", required=True)
@click.option("--w", "width", type=float, default=2.0, show_default=True)
@click.option("--grid", "grid_text", default="4,321", show_default=True)
@click.option("--tolerance", type=float, default=1.0e-9, show_default=True,
              help="Certification margin for all criteria.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def classify(state_json, width, grid_text, tolerance, out_path):
    """Run the nonclassicality battery and write the report JSON."""
    spec = _parse_state(state_json)
    grid = _parse_grid(grid_text)
    st = make_state(spec)
    config = {"command": "classify", "state": spec.to_json(), "grid": grid_text,
              "w": width, "tolerance": tolerance}
    report = classify_state(st, w=width, grid=grid, margin=tolerance)
    payload = {"config_hash": config_hash(config), **report.to_dict()}
    _write_json(out_path, payload)
    click.echo(f"{report.overall}: {st.describe()}")
    click.echo(f"wrote {out_path} (config {config_hash(config)})")


@main.command()
@click.option("--gamma", type=float, default=-0.5, show_default=True,
              help="Generator of the diagonal series (thermal nbar, or -1/2).")
@click.option("--kmax", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def fockdiag(gamma, kmax, out_path):
    """Fock diagonal of a generator series with its cross-oracle report."""
    if abs(gamma) >= 1.0:
        raise click.UsageError("--gamma must satisfy |gamma| < 1 for the pairing route")
    config = {"command": "fockdiag", "gamma": gamma, "kmax": kmax}
    rep = fock_diagonal(exp_laplace_series(gamma, 400), kmax)
    payload = {
        "config_hash": config_hash(config),
        "gamma": gamma,
        "pairing_route": rep.pairing,
        "transform_oracle_route": rep.transform_oracle,
        "routes_agree_within_1e-6": rep.routes_agree,
        "max_route_difference": rep.max_route_difference,
        "published_closed_form": rep.reference_closed_form,
        "published_form_matches": rep.reference_matches,
    }
    if rep.reference_closed_form is not None and not rep.reference_matches:
        payload["note"] = (
            "KNOWN-DISCREPANCY: the published closed form for these diagonal "
            "elements disagrees with both independent routes; reported for "
            "comparison, not asserted")
    _write_json(out_path, payload)
    click.echo(f"wrote {out_path} (config {config_hash(config)})")


@main.command()
@click.option("--w", "width", type=float, default=2.0, show_default=True)
@click.option("--grid", "grid_text", default="4,321", show_default=True)
@click.option("--out-dir", "out_dir", required=True, type=click.Path(file_okay=False))
def figure1(width, grid_text, out_dir):
    """Emit the four reference regularized profiles as plot-ready cut CSVs.

    Cuts run along Im alpha = 0; the squeezed file also carries the
    orthogonal (antisqueezed, Re alpha = 0) cut as a second column.
    """
    import os
    grid = _parse_grid(grid_text)
    os.makedirs(out_dir, exist_ok=True)
    ts = grid.axis()
    for name, spec in FIG1_STATES:
        st = make_state(spec)
        cf = GaussianCharFn.from_state(st)
        cut = filtered_p_gaussian(cf, width, ts.astype(complex))
        config = {"command": "figure1", "state": spec.to_json(),
                  "grid": grid_text, "w": width, "cut": name}
        columns = {"value": cut}
        if spec.kind == "squeezed":
            columns["value_antisqueezed"] = filtered_p_gaussian(cf, width, 1j * ts)
        path = os.path.join(out_dir, f"{name}.csv")
        _write_cut_csv(path, ts, columns, _provenance("figure1", config))
        click.echo(f"wrote {path}")


@main.command()
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write the full JSON report here as well.")
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker cap; defaults to PHASESPACE_THREADS or 4.")
@click.pass_context
def verify(ctx, out_path, threads):
    """Run the acceptance suite; exit 1 if any criterion fails."""
    workers = threads or default_workers()
    results = run_with_determinism_check(workers)
    for r in results:
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.number:2d}  {r.name}")
    payload = report_payload(results)
    if out_path:
        _write_json(out_path, payload)
        click.echo(f"wrote {out_path}")
    if not payload["all_passed"]:
        ctx.exit(1)


if __name__ == "__main__":
    main()
