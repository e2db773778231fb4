"""The library names the benchmark traces, and the exported names, resolve.

``perfbench/spans.py`` rebinds each traced function by module and name; a
name that no longer exists makes every benchmark run fail, so it is caught
here first.
"""

import importlib
import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import gsphase
import gsphase.cli
from gsphase.states import StateSpec, make_state

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


#: one state of each catalog kind
KINDS = [
    StateSpec("fock_element", {"m": 1, "n": 2}),
    StateSpec("thermal", {"nbar": 0.5}),
    StateSpec("squeezed", {"xi": 0.4}),
    StateSpec("spats", {"nbar": 1.0}),
    StateSpec("photon_vacuum_mix", {"eta": 0.6}),
    StateSpec("cauchy_lorentz", {"t": 2.5}),
    StateSpec("cauchy_lorentz_ncl", {"t": 2.5}),
    StateSpec("p_max"),
    StateSpec("fock_mixture", {"w0": 0.5, "w2": 0.5}),
]

MODIFIERS = {"none": {}, "rotation": {"rotation": 0.9}, "displacement": {"displacement": 0.4 - 0.3j},
             "both": {"rotation": 0.9, "displacement": 0.4 - 0.3j}}


@pytest.mark.parametrize("mod", MODIFIERS.values(), ids=MODIFIERS)
@pytest.mark.parametrize("spec", KINDS, ids=[s.kind for s in KINDS])
def test_traced_char_fn_route_reads_phi_closed(spec, mod):
    # the traced run labels every char_fn call by the route
    # ``spans._char_fn_route`` reads off ``State.phi_closed``
    st = make_state(replace(spec, **mod))
    assert callable(st.phi_closed)
    assert np.all(np.isfinite(st.phi_closed(np.array([0.3 - 0.2j]))))
    assert _load_spans()._char_fn_route(st) == "closed"
