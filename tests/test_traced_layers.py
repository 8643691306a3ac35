"""Every layer that ``perfbench/spans.py`` traces names a function of the package.

The tracer records a name it cannot resolve under ``absent_layers`` and
reports zero time for it, so a renamed or deleted layer function would
silently drop out of the per-layer benchmark.  A layer that stays defined but
is no longer entered by the command that should reach it reads zero calls,
so the layers of ``steer`` and ``propagate`` are also traced in a run.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SX, SZ
from wayspan import cli, evolve
from wayspan.evolve import ControlField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_package_function():
    spans = _spans_module()
    assert len(spans.LAYERS) > 10
    assert set(spans.PEAK_LAYERS) <= set(spans.LAYERS)
    missing = []
    for name in spans.LAYERS:
        mod_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        fn = getattr(module, attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__ and fn.__name__ == attr):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize(
    "command, entered",
    [
        (
            "steer",
            {
                "model.load_system", "waypoints.theorem3_waypoints", "reachability.lie_closure",
                "steer._synthesize", "steer._fidelity_state", "steer._fidelity_gradient",
                "evolve._final_propagator", "evolve._step_frames", "evolve.conjugated_dipole",
                "matspace.basis_zt", "evolve.save_field", "landscape.save_span_report",
            },
        ),
        ("propagate", {"evolve.propagate", "evolve.load_field", "model.load_system"}),
    ],
)
def test_a_traced_command_enters_its_layers(tmp_path, monkeypatch, command, entered):
    spans = _spans_module()
    # The tracer replaces module attributes; register each for restoration.
    for key, module in list(sys.modules.items()):
        if key == spans.PACKAGE or key.startswith(spans.PACKAGE + "."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"n": 2, "h0": np.real(SZ).tolist(), "mu": np.real(SX).tolist()}))
    field = tmp_path / "field.json"
    evolve.save_field(ControlField(horizon=3.0, values=np.linspace(-1.0, 1.0, 30)), field)
    argv = {
        "steer": ["steer", "--system", system, "--provenance", "theorem3", "--out", tmp_path / "out"],
        "propagate": ["propagate", "--system", system, "--field", field],
    }[command]

    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == []
    assert tracer.call(spans.ROOT, cli.main, [str(a) for a in argv]) == 0
    totals = spans.layer_totals(tracer.spans, spans.LAYERS)
    assert {name for name in entered if totals[name]["calls"] == 0} == set()
