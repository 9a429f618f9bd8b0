"""Correctness checks on the outputs of one workload run.

The checks read the output tree a run wrote and recompute parts of it
through aspill's public single-window path, so a faster rolling or
estimation layer that changes results shows as a failed check:

* the manifest's per-side lag, window count and gap count match the
  workload (a selected lag must minimize a reference criterion);
* a fixed sample of windows per side, recomputed one at a time through
  Panel.window, estimate_var, ma_coefficients, compute_fevd and
  build_table, matches rolling_{side}.csv;
* every row of a full-sample table sums to 100.

Identical output-tree digests across the runs of one invocation are
checked by the caller with tree_digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

from workloads import Workload, is_flat_window

# Absolute tolerance on percent-scaled index values and table row sums.
TOLERANCE = 1e-8
SAMPLE_WINDOWS = 9


def tree_digest(out_dir: Path) -> str:
    """sha256 over the relative path and bytes of every file in the tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def operations(manifest: dict) -> tuple[int, int]:
    """(attempted, failed): one per side plus one per window; gaps fail."""
    attempted = failed = 0
    for summary in manifest["sides"].values():
        rolling = summary.get("rolling", {"windows": 0, "gaps": 0})
        attempted += 1 + rolling["windows"]
        failed += rolling["gaps"]
    return attempted, failed


def _hjc_values(matrix: np.ndarray, p_max: int) -> list[float]:
    """Hannan-Quinn/Schwarz mixed criterion of lags 1..p_max on common rows."""
    T, m = matrix.shape
    n = T - p_max
    y = matrix[p_max:]
    values = []
    for j in range(1, p_max + 1):
        x = np.hstack([np.ones((n, 1))] + [matrix[p_max - s : T - s] for s in range(1, j + 1)])
        coef = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ coef
        logdet = np.linalg.slogdet(resid.T @ resid / n)[1]
        penalty = j * (m * m * math.log(n) + 2.0 * m * m * math.log(math.log(n))) / (2.0 * n)
        values.append(float(logdet + penalty))
    return values


def _sample_indices(workload: Workload, smoke: bool, count: int) -> list[int]:
    """Evenly spaced windows plus the windows at both edges of any gap run."""
    size = workload.size(smoke)
    window, step = workload.config["window"], workload.config.get("step", 1)
    picks = {int(round(v)) for v in np.linspace(0, count - 1, SAMPLE_WINDOWS)}
    flat = [i for i in range(count) if is_flat_window(size, i * step, i * step + window)]
    if flat:
        picks |= {flat[0] - 1, flat[0], flat[-1], flat[-1] + 1}
    return sorted(i for i in picks if 0 <= i < count)


def _read_rolling(path: Path) -> list[tuple[str, float | None]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return [(row[0], float(row[1]) if row[1] else None) for row in rows]


def check(workload: Workload, smoke: bool, cfg: dict, out_dir: Path) -> list[str]:
    """Problems found in a finished run's outputs; empty when all checks pass."""
    from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel
    from aspill.connectedness import build_table, compute_fevd
    from aspill.errors import AspillError
    from aspill.panel import load_csv, log_transform
    from aspill.var_engine import VarSpec, estimate_var, ma_coefficients

    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    panel, _ = load_csv(cfg["input_path"], "date", cfg["columns"])
    if cfg.get("log"):
        panel = log_transform(panel)
    trend = TrendSpec(cfg["trend"])
    decomposed = decompose_panel(panel, trend)
    expected = workload.expected_sides(smoke)

    for side_name, expect in expected.items():
        side = ShockSide(side_name)
        summary = manifest["sides"].get(side_name)
        if summary is None:
            problems.append(f"{side_name}: missing from manifest")
            continue
        source = component_panel(decomposed, panel, side)
        lag = summary["lag"]
        if expect["lag"] is None:
            if cfg.get("lag_select") != "hjc":
                raise ValueError("the reference lag check implements the hjc criterion only")
            values = _hjc_values(source.matrix, cfg["max_lags"])
            best = min(values)
            want = 1 + next(j for j, v in enumerate(values) if v <= best + 1e-9)
            if lag != want:
                problems.append(f"{side_name}: selected lag {lag}, reference hjc gives {want}")
        elif lag != expect["lag"]:
            problems.append(f"{side_name}: lag {lag}, expected {expect['lag']}")

        if expect["windows"] is not None:
            rolling = summary.get("rolling", {})
            got = (rolling.get("windows"), rolling.get("gaps"))
            if got != (expect["windows"], expect["gaps"]):
                problems.append(
                    f"{side_name}: windows/gaps {got}, expected {(expect['windows'], expect['gaps'])}"
                )
            rows = _read_rolling(out_dir / f"rolling_{side_name}.csv")
            if len(rows) != expect["windows"]:
                problems.append(f"{side_name}: rolling CSV has {len(rows)} rows")
                continue
            spec = VarSpec(p=lag, ty_extra_lags=1 if cfg.get("ty_augment") else 0)
            window, step = cfg["window"], cfg.get("step", 1)
            for i in _sample_indices(workload, smoke, len(rows)):
                start, stop = i * step, i * step + window
                if cfg.get("decompose_per_window") and side is not ShockSide.SYMMETRIC:
                    raw = panel.window(start, stop)
                    window_panel = component_panel(decompose_panel(raw, trend), raw, side)
                else:
                    window_panel = source.window(start, stop)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        fit = estimate_var(window_panel, spec)
                        ma = ma_coefficients(fit, cfg["horizon"])
                        fevd = compute_fevd(ma, fit.Gamma, cfg["horizon"], cfg.get("sigma_scaling", "jj"))
                        value = build_table(fevd.normalized, panel.names).total_spillover
                except AspillError:
                    value = None
                when, got_value = rows[i]
                if when != panel.dates[stop - 1].isoformat():
                    problems.append(f"{side_name}: window {i} ends {when}, expected {panel.dates[stop - 1]}")
                elif (value is None) != (got_value is None) or (
                    value is not None and abs(value - got_value) > TOLERANCE
                ):
                    problems.append(f"{side_name}: window {i} index {got_value}, recomputed {value}")

        if cfg.get("emit_tables", True):
            with (out_dir / f"table_{side_name}.csv").open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            m = len(rows[0]) - 2
            for row in rows[1 : m + 1]:
                total = sum(float(cell) for cell in row[1 : m + 1])
                if abs(total - 100.0) > TOLERANCE:
                    problems.append(f"{side_name}: table row {row[0]} sums to {total!r}")
    return problems
