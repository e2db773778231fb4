"""The library names the benchmark traces, and the exported names, resolve.

``perfbench/spans.py`` rebinds each traced function by module and name; a
name that no longer exists makes every benchmark run fail, so it is caught
here first.
"""

import importlib
import importlib.util
import pathlib

import gsphase
import gsphase.cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _load_spans()
    traced = [(m, a) for m, a, _ in spans.TRACED] + [("numerics", a) for a in spans.TRANSFORMS]
    missing = [f"{m}.{a}" for m, a in traced
               if not callable(getattr(importlib.import_module(f"gsphase.{m}"), a, None))]
    missing += [f"cli {c}" for c in spans.TRACED_COMMANDS if c not in gsphase.cli.main.commands]
    assert missing == []


def test_exported_names_resolve():
    assert [n for n in gsphase.__all__ if not hasattr(gsphase, n)] == []
