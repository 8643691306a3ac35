"""Spans around the package's layer functions, recorded from outside the package.

A :class:`Tracer` replaces each listed function with a wrapper under every
``wayspan`` module attribute that holds it, so calls made through
``from``-imports (``cli.load_system``, ``steer.waypoint_visits``) and through
module attributes (``evolve._final_propagator``) are both seen.  Spans stay
in memory and are read out once the traced command has finished.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# Each layer is "<module>.<function>" under the wayspan package.
LAYERS = (
    "evolve.propagate",
    "evolve._final_propagator",
    "evolve._step_frames",
    "evolve.conjugated_dipole",
    "evolve.save_field",
    "landscape.spanning_rank",
    "landscape.trajectory_independence",
    "landscape.gradient",
    "landscape.waypoint_visits",
    "landscape.save_span_report",
    "reachability.lie_closure",
    "waypoints.theorem1_waypoints",
    "waypoints.theorem3_waypoints",
    "waypoints.save_waypoints",
    "steer._synthesize",
    "steer._fidelity_gradient",
    "steer._fidelity_state",
    "model.load_system",
    "evolve.load_field",
    "matspace.basis_zt",
)
# Layers whose peak traced allocation is recorded, in bytes.
PEAK_LAYERS = ("landscape.spanning_rank", "evolve.propagate")
ROOT = "cli.main"
PACKAGE = "wayspan"


class Tracer:
    """Records one span per call: name, start, end and the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.iterations = 0
        self.peak_bytes: dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self.stack.append(index)
        peak = name in PEAK_LAYERS and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if peak:
                used = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), used)
        if name == "steer._synthesize":
            self.iterations += int(result.iterations)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every importable layer; record the missing ones in ``absent``."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in layers:
            mod_name, attr = name.rsplit(".", 1)
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            traced = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans.

    ``spans`` holds ``(name, start, end, parent)`` rows with ``parent`` the
    row index of the enclosing span or -1.  Overlapping children are merged
    before their cover is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans, names) -> dict[str, dict[str, float]]:
    """Per-name call count, summed duration and summed self time."""
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return totals
