"""One workload in one fresh interpreter; started by run.py, not by hand.

Imports gsphase from the checkout's ``src/``, builds the seeded inputs and
warms up, then prints ``READY <monotonic clock> <host-speed factor>``: the
parent's set-up clock stops at the first number and is scaled by the second
(see hostspeed.py).  With ``--setup-only`` it exits at that point.
Otherwise it runs whole rounds of the workload's operations in a closed
loop, as many as end nearest to ``--seconds``, checks every output outside
the timed region, writes the details to ``perfbench/out/`` and prints one
JSON line as its last output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

#: per-layer metrics of the traced run: name -> (source, key, unit)
PER_LAYER = {
    "numerics.erf.calls": ("count", "numerics.erf.calls", "count"),
    "numerics.erf.self_ms": ("self", "numerics.erf", "ms"),
    "numerics.quad2d.calls": ("count", "numerics.quad2d.calls", "count"),
    "numerics.quad2d.self_ms": ("self", "numerics.quad2d", "ms"),
    "numerics.fourier_eval.targets": ("count", "numerics.fourier_eval.targets", "count"),
    "numerics.fourier_eval.self_ms": ("self", "numerics.fourier_eval", "ms"),
    "numerics.fourier_grid.self_ms": ("self", "numerics.fourier_grid", "ms"),
    "numerics.write_field_csv.bytes": ("count", "numerics.write_field_csv.bytes", "bytes"),
    "numerics.write_field_csv.self_ms": ("self", "numerics.write_field_csv", "ms"),
    "states.make_state.self_ms": ("self", "states.make_state", "ms"),
    "states.fock_matrix.calls": ("count", "states.fock_matrix.calls", "count"),
    "states.fock_matrix.self_ms": ("self", "states.fock_matrix", "ms"),
    "charfn.char_fn.points": ("count", "charfn.char_fn.points", "count"),
    "charfn.char_fn.closed_ms": ("self", "charfn.char_fn.closed", "ms"),
    "charfn.char_fn.fock_element_ms": ("self", "charfn.char_fn.fock_element", "ms"),
    "charfn.char_fn.fock_route_ms": ("self", "charfn.char_fn.fock_route", "ms"),
    "charfn.char_fn_fock_element.self_ms": ("self", "charfn.char_fn_fock_element", "ms"),
    "charfn.classicality_violation.self_ms": ("self", "charfn.classicality_violation", "ms"),
    "charfn.quantum_bound_check.self_ms": ("self", "charfn.quantum_bound_check", "ms"),
    "deltaseries.pair.calls": ("count", "deltaseries.pair.calls", "count"),
    "deltaseries.pair.self_ms": ("self", "deltaseries.pair", "ms"),
    "deltaseries.fock_diagonal.self_ms": ("self", "deltaseries.fock_diagonal", "ms"),
    "filters.tri_gaussian_ft.calls": ("count", "filters.tri_gaussian_ft.calls", "count"),
    "filters.tri_gaussian_ft.self_ms": ("self", "filters.tri_gaussian_ft", "ms"),
    "filters.filtered_p_gaussian_grid.nodes": ("count", "filters.filtered_p_gaussian_grid.nodes", "count"),
    "filters.filtered_p_gaussian_grid.self_ms": ("self", "filters.filtered_p_gaussian_grid", "ms"),
    "filters.filtered_p_numeric.nodes": ("count", "filters.filtered_p_numeric.nodes", "count"),
    "filters.filtered_p_numeric.self_ms": ("self", "filters.filtered_p_numeric", "ms"),
    "filters.tri_gaussian_ft_line_integral.self_ms": ("self", "filters.tri_gaussian_ft_line_integral", "ms"),
    "witness.normal_moment.calls": ("count", "witness.normal_moment.calls", "count"),
    "witness.normal_moment.self_ms": ("self", "witness.normal_moment", "ms"),
    "witness.vacuum_probability.self_ms": ("self", "witness.vacuum_probability", "ms"),
    "witness.moment_matrix_test.self_ms": ("self", "witness.moment_matrix_test", "ms"),
    "witness.classify.self_ms": ("self", "witness.classify", "ms"),
    **{f"acceptance.criterion_{i}.ms": ("total", f"acceptance.criterion_{i}", "ms")
       for i in range(1, 11)},
    "cli.filtered.self_ms": ("self", "cli.filtered", "ms"),
    "cli.verify.self_ms": ("self", "cli.verify", "ms"),
}


def import_library():
    """Import gsphase from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gsphase", "__init__.py")):
        raise SystemExit(f"no gsphase sources under {src}")
    sys.path.insert(0, src)
    import gsphase.cli
    if not os.path.abspath(gsphase.__file__).startswith(src + os.sep):
        raise SystemExit(f"gsphase was imported from {gsphase.__file__}, not {src}")


def per_layer(tracer, rounds: int, speed: float) -> dict:
    """Per-layer totals of the traced run, per round of the workload.

    Times are scaled by the run's host-speed factor like the end-to-end ones.
    """
    sources = {"self": tracer.self_s, "total": tracer.total_s, "count": tracer.counts}
    out = {}
    for name, (src, key, unit) in PER_LAYER.items():
        raw = sources[src].get(key, 0)
        scale = 1000.0 * speed if unit == "ms" else 1.0
        out[name] = {"value": scale * raw / rounds, "unit": unit}
    return out


def measure(ops, seconds: float, host) -> dict:
    """Run whole rounds of ``ops`` in a closed loop for about ``seconds``.

    An op fails if it raises or if its check finds a problem; either way
    the run is not correct, so an op that stops early can never pass for a
    faster one.  Each op's latency is also scaled to the reference speed
    from the host-speed references right before and right after it.
    """
    from hostspeed import REF_MS

    latencies, refs, records, errors = [], [], [], []
    attempted = failed = items = rounds = 0
    last = 0.0
    correct = True
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            attempted += 1
            # about one reference per second of the previous op, right before this one
            before = host.sample(round(last))
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                failed += 1
                correct = False
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                last = time.perf_counter() - t0
                continue
            dt = time.perf_counter() - t0
            last = dt
            latencies.append(dt)
            refs.append(before)
            items += op.items
            try:
                problems = op.check(out)
            except Exception as exc:  # an output the checker cannot read is wrong
                problems = [f"check raised {exc!r}"]
            if problems:
                failed += 1
                correct = False
                errors.append(f"{op.label}: {problems}")
            records.append((op.group, dt))
        rounds += 1
        # whole rounds only: stop where the run ends nearest to --seconds
        now = time.perf_counter()
        if now - begin + (now - round_start) / 2 >= seconds:
            break

    refs.append(host.sample(round(last)))
    scaled = []
    for i, dt in enumerate(latencies):
        around = refs[i] + refs[i + 1]
        scaled.append(dt * REF_MS * len(around) / (1000.0 * sum(around)))
    return {"latencies": latencies, "scaled": scaled, "records": records, "errors": errors,
            "attempted": attempted, "failed": failed, "items": items, "rounds": rounds,
            "correct": correct}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from hostspeed import HostSpeed

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(OUT, exist_ok=True)
    ops, warmup = workloads.FACTORIES[args.workload](args.seed, OUT)
    warmup()
    ready = time.monotonic()
    host = HostSpeed()
    host.sample(3)
    print(f"READY {ready!r} {host.factor()!r}", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.reset()
    run = measure(ops, args.seconds, host)
    latencies, records, errors = run["latencies"], run["records"], run["errors"]
    attempted, failed, items, rounds = run["attempted"], run["failed"], run["items"], run["rounds"]
    correct, scaled = run["correct"], run["scaled"]

    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    busy = sum(latencies)
    if args.trace:
        metrics = per_layer(tracer, rounds, host.factor())
    else:
        metrics = {
            "op_p50_ms": {"value": 1000.0 * statistics.median(scaled), "unit": "ms"}
            if scaled else None,
            "work_per_s": {"value": items / sum(scaled), "unit": "items/s"} if scaled else None,
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}

    shares: dict[str, float] = {}
    for group, dt in records:
        shares[group] = shares.get(group, 0.0) + dt
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(ops), "attempted": attempted,
        "failed": failed, "busy_s": busy, "items": items,
        "scaled_busy_s": sum(scaled),
        "raw_p50_ms": 1000.0 * statistics.median(latencies) if latencies else None,
        "reference_ms": [1000.0 * t for t in host.samples],
        "p90_ms": 1000.0 * statistics.quantiles(latencies, n=10)[-1]
        if len(latencies) >= 40 else None,
        "group_share": {g: t / busy for g, t in sorted(shares.items())} if busy else {},
        "latencies_ms": [[g, 1000.0 * dt] for g, dt in records],
        "errors": errors,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json", rounds)
    if scaled:
        print(f"plain wall-clock: op_p50_ms {detail['raw_p50_ms']:.6g} ms, work_per_s "
              f"{items / busy:.6g} items/s (the metrics below are at the reference host "
              f"speed; this host ran at {host.factor():.4g} times that speed)", flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
