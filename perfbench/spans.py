"""Span recorder for the traced benchmark run.

``install`` rebinds the public functions of each gsphase module, at every
module attribute and module-level list that holds them, to wrappers that
open a span around the call.  Spans nest on one stack (the benchmark is
single-threaded), so each span knows its parent and a span's self time is
its duration minus the durations of its direct children.  Counters record
the work each call carries (points, nodes, targets, bytes) at the same
boundaries.  Nothing under ``src/`` is edited: the wrapping happens in the
benchmark process only.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): the public functions, one span each
TRACED = [
    ("numerics", "erf_complex", "numerics.erf"),
    ("numerics", "erfcx_complex", "numerics.erf"),
    ("numerics", "quad2d", "numerics.quad2d"),
    # the full-grid path behind ``out_grid``; private, but it is the only
    # boundary that separates the grid transform from the sampling around it
    ("numerics", "_transform_grid", "numerics.fourier_grid"),
    ("numerics", "write_field_csv", "numerics.write_field_csv"),
    ("states", "make_state", "states.make_state"),
    ("states", "fock_matrix", "states.fock_matrix"),
    ("charfn", "char_fn", "charfn.char_fn"),
    ("charfn", "char_fn_fock_element", "charfn.char_fn_fock_element"),
    ("charfn", "classicality_violation", "charfn.classicality_violation"),
    ("charfn", "quantum_bound_check", "charfn.quantum_bound_check"),
    ("deltaseries", "pair", "deltaseries.pair"),
    ("deltaseries", "fock_diagonal", "deltaseries.fock_diagonal"),
    ("filters", "tri_gaussian_ft", "filters.tri_gaussian_ft"),
    ("filters", "tri_gaussian_ft_line_integral", "filters.tri_gaussian_ft_line_integral"),
    ("filters", "filtered_p_gaussian_grid", "filters.filtered_p_gaussian_grid"),
    ("filters", "filtered_p_numeric", "filters.filtered_p_numeric"),
    ("witness", "normal_moment", "witness.normal_moment"),
    ("witness", "vacuum_probability", "witness.vacuum_probability"),
    ("witness", "moment_matrix_test", "witness.moment_matrix_test"),
    ("witness", "classify", "witness.classify"),
] + [("acceptance", f"criterion_{i}", f"acceptance.criterion_{i}") for i in range(1, 11)]

#: transforms whose returned evaluator gets a span (numerics.fourier_eval)
TRANSFORMS = ["fourier_forward", "fourier_inverse"]

#: click commands whose callbacks get a span
TRACED_COMMANDS = ["filtered", "verify"]


def _size(x) -> int:
    return int(np.size(x))


def _counts(span: str, args, kwargs, result) -> dict[str, int]:
    """Work carried by one call, read from its public arguments and result."""
    if span == "charfn.char_fn":
        return {"points": _size(args[1])}
    if span in ("filters.filtered_p_gaussian_grid", "filters.filtered_p_numeric"):
        grid = args[2]
        return {"nodes": grid.resolution ** 2}
    if span == "numerics.fourier_grid":
        out_grid = args[3]
        return {"nodes": out_grid.resolution ** 2}
    if span == "numerics.write_field_csv":
        return {"bytes": os.path.getsize(args[0])}
    return {}


def _char_fn_route(state) -> str:
    """The route ``char_fn`` takes, from the public fields it branches on."""
    if state.phi_closed is not None:
        return "closed"
    if state.spec.kind in ("fock_element", "fock_mixture"):
        return "fock_element"
    return "fock_route"


class Tracer:
    def __init__(self):
        self._stack: list[list] = []   # [name, start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self):
        self.__init__()

    def enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self, counts: dict[str, int] | None = None, self_name: str | None = None):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.total_s[name] += dur
        self.self_s[self_name or name] += dur - child
        self.counts[name + ".calls"] += 1
        for key, val in (counts or {}).items():
            self.counts[f"{name}.{key}"] += val

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                counts = _counts(name, args, kwargs, result) if ok else None
                self_name = None
                if name == "charfn.char_fn":
                    self_name = f"charfn.char_fn.{_char_fn_route(args[0])}"
                tracer.exit(counts, self_name)

        return traced

    def wrap_transform(self, fn):
        """The transform ``fn``, with a span around the evaluator it returns."""
        tracer = self

        @functools.wraps(fn)
        def transform(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result.fn is not None:
                result.fn = tracer.wrap_evaluator(result.fn)
            return result

        return transform

    def wrap_evaluator(self, fn):
        """Span around the evaluator a transform returns (the scattered path)."""
        tracer = self

        def evaluate(targets):
            tracer.enter("numerics.fourier_eval")
            try:
                return fn(targets)
            finally:
                tracer.exit({"targets": _size(targets)})

        return evaluate

    def dump(self, path: str, rounds: int):
        """Write the per-name totals as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "rounds": rounds,
                "self_ms": {k: 1000.0 * v for k, v in sorted(self.self_s.items())},
                "total_ms": {k: 1000.0 * v for k, v in sorted(self.total_s.items())},
                "counts": dict(sorted(self.counts.items())),
            }, fh)


def install(tracer: Tracer) -> None:
    """Rebind every traced gsphase function at each place it is bound."""
    import gsphase
    import gsphase.cli

    mods = [m for n, m in sys.modules.items()
            if (n == "gsphase" or n.startswith("gsphase.")) and m is not None]

    def rebind(original, wrapped):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                elif isinstance(val, list):
                    val[:] = [wrapped if v is original else v for v in val]

    for mod_name, attr, span in TRACED:
        original = getattr(sys.modules[f"gsphase.{mod_name}"], attr)
        rebind(original, tracer.wrap(original, span))
    for attr in TRANSFORMS:
        original = getattr(sys.modules["gsphase.numerics"], attr)
        rebind(original, tracer.wrap_transform(original))
    for name in TRACED_COMMANDS:
        cmd = gsphase.cli.main.commands[name]
        cmd.callback = tracer.wrap(cmd.callback, f"cli.{name}")
