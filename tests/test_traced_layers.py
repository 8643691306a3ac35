"""Every layer that ``perfbench/spans.py`` traces names a function of the package.

The tracer records a name it cannot resolve under ``absent_layers`` and
reports zero time for it, so a renamed or deleted layer function would
silently drop out of the per-layer benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_package_function():
    spans = _spans_module()
    assert len(spans.LAYERS) > 10
    missing = []
    for name in spans.LAYERS:
        mod_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert missing == []
