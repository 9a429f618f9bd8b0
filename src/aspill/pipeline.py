"""End-to-end run orchestration: ingest, transform, estimate, emit.

A run processes each requested shock side independently, writes its
tables, net measures, and optional rolling outputs, and finishes by
writing manifest.json. The manifest holds the resolved configuration and
input digests, never timestamps, so re-running from it reproduces every
output byte for byte; its presence marks a completed run.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterator, Literal, get_type_hints

from .atomic import write_atomic
from .config import _field_from_json, _to_json, check_count
from .connectedness import SIGMA_SCALINGS, net_measures
from .decomposition import ShockSide, TrendSpec, check_length, split_side
from .errors import (
    AspillError,
    ConfigError,
    DegenerateCovarianceError,
    ManifestMismatchError,
    PipelineError,
)
from .panel import Panel, check_columns, load_csv, log_transform
from .report import render_net_json, render_rolling_csv, render_table
from .rolling import RollingConfig, fit_tables, rolling_tables
from .svgchart import render_plot
from .var_engine import CRITERIA, VarSpec, check_squares, factor_sample, fit_sample
from .version import __version__

MANIFEST_NAME = "manifest.json"

_ALL_SIDES = (ShockSide.POSITIVE, ShockSide.NEGATIVE, ShockSide.SYMMETRIC)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializable into the manifest.

    However a config is built, each field is read as its annotation declares.
    """

    input_path: str
    columns: tuple[str, ...]
    out_dir: str
    date_column: str = "date"
    log: bool = False
    trend: TrendSpec = TrendSpec.DRIFT
    lags: int | None = None
    lag_select: Literal[CRITERIA] = "hjc"
    max_lags: int = 8
    ty_augment: bool = False
    sigma_scaling: Literal[SIGMA_SCALINGS] = "jj"
    horizon: int = 10
    sides: tuple[ShockSide, ...] = _ALL_SIDES
    window: int | None = None
    step: int = 1
    decompose_per_window: bool = False
    emit_tables: bool = True

    def __post_init__(self) -> None:
        for name, kind in get_type_hints(RunConfig).items():
            object.__setattr__(self, name, _field_from_json(name, kind, getattr(self, name)))
        if not self.sides:
            raise ConfigError("at least one shock side must be requested")
        check_columns(self.date_column, self.columns)
        if len(self.columns) < 2:
            raise ConfigError(f"a VAR needs at least 2 value columns, got 1: {self.columns[0]!r}")
        for k, side in enumerate(self.sides):
            if side in self.sides[:k]:
                raise ConfigError(f"side {side.value!r} is named twice")
        for name in ("horizon", "lags", "max_lags", "window", "step"):
            value = getattr(self, name)
            if value is not None:
                check_count(name, value)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: Any) -> "RunConfig":
        """The config to_dict recorded, as read back from JSON.

        Raises:
            ConfigError: raw is not an object, or a field is missing,
                unknown, of the wrong type or out of range; the message
                names the field.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        data = dict(raw)
        # Manifests written before the unused seed field was removed still re-run.
        data.pop("seed", None)
        known = {f.name: f for f in fields(cls)}
        for name in data:
            if name not in known:
                raise ConfigError(f"unknown config field {name!r}")
        for f in known.values():
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
                raise ConfigError(f"config field {f.name!r} is missing")
        return cls(**data)


@dataclass(frozen=True)
class RunManifest:
    """Record of one completed run."""

    version: str
    config: dict[str, Any]
    inputs: dict[str, Any]
    sides: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _side_outputs(side: ShockSide) -> dict[str, str]:
    """Manifest key -> file name of every output a side can write."""
    name = side.value
    return {
        "table_csv": f"table_{name}.csv",
        "table_json": f"table_{name}.json",
        "table_md": f"table_{name}.md",
        "net_json": f"net_{name}.json",
        "rolling_csv": f"rolling_{name}.csv",
        "rolling_svg": f"rolling_{name}.svg",
    }


# Bytes read per step of the input digest: the file is never held whole.
_DIGEST_BLOCK = 1 << 20


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while block := handle.read(_DIGEST_BLOCK):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def _stage(side: ShockSide, name: str) -> Iterator[None]:
    """Run a block as the side's named stage: an AspillError leaving it is that stage's PipelineError."""
    try:
        yield
    except AspillError as exc:
        raise PipelineError(side.value, name, exc) from exc


def _diverging(radius: float) -> str:
    """An unstable full-sample fit's manifest entry, in digits enough to read any flagged radius above 1."""
    return f"companion spectral radius {radius:.6f} exceeds 1; impulse responses may diverge"


def _run_side(cfg: RunConfig, side: ShockSide, panel: Panel, out_dir: Path) -> dict[str, Any]:
    summary: dict[str, Any] = {}
    files: dict[str, str] = {}
    names = _side_outputs(side)

    with _stage(side, "component"):
        # Each side splits its own components, so a run holds one component panel at a time.
        side_panel = split_side(panel, cfg.trend, side)

    with _stage(side, "lag-select"):
        factor, lag = None, cfg.lags
        if lag is None:
            factor = factor_sample(side_panel, cfg.max_lags)
            lag = factor.select(cfg.lag_select)
        # The full sample is the one window that spans it.
        sample_cfg = RollingConfig(
            len(panel), cfg.horizon, VarSpec(p=lag, ty_extra_lags=1 if cfg.ty_augment else 0),
            trend_spec=cfg.trend, shock_side=side, sigma_scaling=cfg.sigma_scaling,
        )
    with _stage(side, "estimate"):
        # The factor that ranks the candidate lags also fits the chosen one.
        fit = fit_sample(side_panel, sample_cfg.var_spec, factor)
    with _stage(side, "fevd"):
        sample = fit_tables(fit, sample_cfg, panel.names, panel.dates[-1:])
        if sample.gap_reasons[0] is not None:
            raise DegenerateCovarianceError(sample.gap_reasons[0])
    summary.update(lag=lag, total_spillover=float(sample.index_values[0]))
    # The manifest lists every unstable fit from the records; any other warning meets the caller's filters.
    unstable = [_diverging(sample.radius[0])] if sample.unstable else []

    if cfg.emit_tables:
        with _stage(side, "table"):
            table = sample.table(0)
            net = net_measures(table)
        with _stage(side, "write-tables"):
            for fmt, key in (("csv", "table_csv"), ("json", "table_json"), ("markdown", "table_md")):
                write_atomic(out_dir / names[key], render_table(table, fmt))
                files[key] = names[key]
            write_atomic(out_dir / names["net_json"], render_net_json(net))
            files["net_json"] = names["net_json"]

    if cfg.window is not None:
        with _stage(side, "rolling"):
            rolling_cfg = replace(sample_cfg, window=cfg.window, step=cfg.step)
            windows = rolling_tables(panel, rolling_cfg, cfg.decompose_per_window, side_panel)
        with _stage(side, "write-rolling"):
            write_atomic(out_dir / names["rolling_csv"], render_rolling_csv(windows))
            render_plot(windows, out_dir / names["rolling_svg"])
            files["rolling_csv"] = names["rolling_csv"]
            files["rolling_svg"] = names["rolling_svg"]
            gaps = {
                when.isoformat(): reason
                for when, reason in zip(windows.window_end_dates, windows.gap_reasons)
                if reason is not None
            }
            summary["rolling"] = {"windows": len(windows), "gaps": len(gaps), "gap_reasons": gaps}
            count = windows.unstable
            if count:
                unstable.append(
                    f"{count} of {len(windows)} windows fitted with companion spectral radius above 1"
                )

    summary["files"] = files
    summary["warnings"] = sorted(unstable)
    return summary


def run_pipeline(cfg: RunConfig) -> RunManifest:
    """Execute a full run and write its outputs plus the manifest.

    Sides fail independently: outputs of completed sides stay on disk,
    and a PipelineError naming every failed (side, stage) is raised at
    the end. The manifest is only written when every side succeeded. An
    earlier run's manifest and every output file any side can write are
    removed before the first output is written, so a failed run never
    leaves a manifest that describes other outputs, and a run with fewer
    sides or no --window leaves no files of the sides or stages it skips.
    """
    out_dir = Path(cfg.out_dir)

    input_path = Path(cfg.input_path)
    panel, dropped = load_csv(input_path, cfg.date_column, cfg.columns)
    if cfg.log:
        # The run names each series by its column, logged or not.
        panel = Panel._on_checked_dates(cfg.columns, panel.dates, log_transform(panel).matrix)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    for side in _ALL_SIDES:
        for name in _side_outputs(side).values():
            (out_dir / name).unlink(missing_ok=True)
    # A panel too short for the trend fit ends the run in one error naming
    # every series, before any side runs.
    if any(side is not ShockSide.SYMMETRIC for side in cfg.sides):
        check_length(panel)
    # So does a series whose squares leave the floats, which no fit could tell from collinearity.
    check_squares(panel)

    side_summaries: dict[str, Any] = {}
    failed: list[PipelineError] = []
    for side in cfg.sides:
        try:
            side_summaries[side.value] = _run_side(cfg, side, panel, out_dir)
        except PipelineError as error:
            failed.append(error)
    if failed:
        failures = [f for error in failed for f in error.failures]
        raise PipelineError(failed[0].side, failed[0].stage, failed[0].cause, failures=failures)

    manifest = RunManifest(
        version=__version__,
        config=cfg.to_dict(),
        inputs={
            "path": cfg.input_path,
            "sha256": _sha256(input_path),
            "date_column": cfg.date_column,
            "columns": list(cfg.columns),
            "rows_loaded": len(panel),
            "rows_dropped": dropped,
        },
        sides=side_summaries,
    )
    write_atomic(out_dir / MANIFEST_NAME, manifest.to_json())
    return manifest


def config_from_manifest(path: str | Path) -> RunConfig:
    """Rebuild the RunConfig recorded in a manifest, verifying input digests.

    Raises:
        ConfigError: the manifest is not JSON, or its config or recorded
            digest is missing or malformed; the message names the field
            and the manifest.
        ManifestMismatchError: the input file changed since the recorded
            run, so a bit-identical reproduction is impossible.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "config" not in payload:
            raise ConfigError("no 'config' object")
        cfg = RunConfig.from_dict(payload["config"])
        inputs = payload.get("inputs")
        recorded = inputs.get("sha256") if isinstance(inputs, dict) else None
        if not isinstance(recorded, str):
            raise ConfigError("no recorded input digest 'inputs.sha256'")
    except ConfigError as exc:
        raise ConfigError(f"{exc} (manifest {path})") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"not a JSON manifest: {exc} (manifest {path})") from None
    input_path = Path(cfg.input_path)
    if not input_path.exists():
        raise ManifestMismatchError(f"recorded input {cfg.input_path!r} no longer exists")
    digest = _sha256(input_path)
    if digest != recorded:
        raise ManifestMismatchError(
            f"input {cfg.input_path!r} digest {digest[:12]} differs from recorded {recorded[:12]}"
        )
    return cfg
