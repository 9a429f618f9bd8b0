"""Spans around the public functions of each aspill module.

The benchmark measures the program from outside: it wraps each function
listed in LAYERS and rebinds the wrapper under every name the function is
looked up by (`aspill.rolling.estimate_var` and `aspill.pipeline.estimate_var`
are separate bindings of one function). Methods are wrapped on their class.
Spans stay in memory and are written out once the run has finished.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

# Module name -> wrapped functions; a dotted entry is a method on a class.
LAYERS: dict[str, tuple[str, ...]] = {
    "panel": ("load_csv", "log_transform", "Panel.window"),
    "decomposition": ("decompose_panel",),
    "var_engine": ("select_lag", "estimate_var", "ma_coefficients"),
    "connectedness": ("compute_fevd", "build_table", "net_measures"),
    "rolling": ("rolling_tables",),
    "report": ("render_table", "render_net_json", "render_rolling_csv"),
    "svgchart": ("render_plot",),
    "pipeline": ("run_pipeline",),
}

# Per wrapped function: calls; summed wall time inside it (busy); busy time
# not covered by the spans of wrapped callees (self); calls that raised.
FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("failed", "count"))

# Derived in a traced run: rolling_tables busy time per window over all
# sides, and median traced run_s minus median untraced run_s.
DERIVED = (("rolling.ms_per_window", "ms"), ("trace.overhead_s", "s"))


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{suffix}": unit for name in span_names() for suffix, unit in FIELDS}
    units.update(DERIVED)
    return units


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end, failed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, bool] | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name_id, parent, start, end, failed)

        return traced

    def install(self, package: str = "aspill") -> None:
        """Wrap every LAYERS function and rebind it wherever aspill binds it."""
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for candidate in list(sys.modules.values()):
                    if getattr(candidate, "__name__", "").split(".")[0] != package:
                        continue
                    for key, value in list(vars(candidate).items()):
                        if value is original:
                            setattr(candidate, key, wrapper)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}), encoding="utf-8")


def aggregate(path: Path) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and failed from a written span file."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    names: list[str] = payload["names"]
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0} for name in span_names()}
    for index, (name_id, _, start, end, failed) in enumerate(spans):
        row = out[names[name_id]]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child_time[index]
        row["failed"] += int(failed)
    return out
