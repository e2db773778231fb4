"""Benchmark runner for gsphase: one workload, or all four in turn.

    python3 perfbench/run.py --workload classify-catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py), in a closed loop, with BLAS pinned to
one thread.  ``setup_s`` is the median over several fresh interpreters of
the time from process start to the first timed operation.  Every time is
reported at the reference machine's speed (perfbench/hostspeed.py).  The last line
of standard output is the result as one JSON object; with ``--trace 1`` its
metrics are the per-layer ones of BENCHMARK.json, otherwise the end-to-end
ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["verify", "classify-catalog", "filtered-grid", "fourier-transform"]

#: fresh interpreters that only set up, on top of the one that runs the workload
SETUP_PROBES = 3
#: hard cap on one child process
CHILD_TIMEOUT_S = 170.0

#: one thread everywhere: the worker is the only busy process, so the
#: benchmark never holds more than nproc = 2 threads (parent waiting + worker)
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PHASESPACE_THREADS": "1",
    "PYTHONPATH": os.path.join(ROOT, "src"),
}


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str]):
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def _run_child(args: list[str], deadline: float):
    """Run a worker; return (set-up seconds, stdout lines after READY).

    Set-up runs from spawn to READY (both clocks are CLOCK_MONOTONIC, which
    Linux shares across processes), scaled by the worker's host-speed factor.
    """
    t0 = time.monotonic()
    proc = _spawn(args)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [i for i, ln in enumerate(lines) if ln.startswith("READY ")]
    if not ready:
        raise BenchError("worker did not report READY")
    _, stamp, speed = lines[ready[0]].split()
    return (float(stamp) - t0) * float(speed), lines[ready[0] + 1:]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            ready, _ = _run_child(base + ["--setup-only"], deadline)
            setups.append(ready)
    ready, lines = _run_child(base, deadline)
    setups.append(ready)
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(f"{name}: {line}")
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gsphase", "__init__.py")):
        print(f"perfbench: no gsphase sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
