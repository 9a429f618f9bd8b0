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
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Iterator, Literal, get_args, get_origin, get_type_hints

from .atomic import write_atomic
from .connectedness import SIGMA_SCALINGS, net_measures, table_from_percent
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
from .rolling import RollingConfig, rolling_tables, spillover_shares
from .svgchart import render_plot
from .var_engine import CRITERIA, VarSpec, check_count, factor_sample, fit_sample
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
        if not self.columns:
            raise ConfigError("at least one value column must be named")
        check_columns(self.date_column, self.columns)
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


def _to_json(value: Any) -> Any:
    """A config value as JSON: an Enum as its value, a tuple or list as a list."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    return value


def _field_from_json(name: str, kind: Any, value: Any) -> Any:
    """A config field read as its annotated type kind, or ConfigError naming it.

    An Enum member or its value gives the member; a tuple or a list gives a tuple.
    """

    def wrong(expected: str) -> ConfigError:
        return ConfigError(f"config field {name!r} must be {expected}, got {value!r}")

    if get_origin(kind) is tuple:
        # Names, or the members or values of an Enum.
        item = get_args(kind)[0]
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, (str, item)) for v in value):
            raise wrong("a list of strings")
        if issubclass(item, Enum):
            choices = [member.value for member in item]
            if not {_to_json(v) for v in value} <= set(choices):
                raise wrong(f"a list drawn from {choices}")
        return tuple(item(v) for v in value)
    if get_origin(kind) is Literal:
        if value not in get_args(kind):
            raise wrong(f"one of {list(get_args(kind))}")
        return value
    if isinstance(kind, type) and issubclass(kind, Enum):
        choices = [member.value for member in kind]
        if not isinstance(value, kind) and value not in choices:
            raise wrong(f"one of {choices}")
        return kind(value)
    nullable = type(None) in get_args(kind)
    if nullable:
        if value is None:
            return value
        (kind,) = (option for option in get_args(kind) if option is not type(None))
    # bool is an int to isinstance, but a count written as true is a slip.
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    expected = {str: "a string", bool: "true or false", int: "an integer"}[kind]
    raise wrong(expected + (" or null" if nullable else ""))


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


class _StageFailure(Exception):
    """An AspillError raised inside a named stage of one side's run."""

    def __init__(self, stage: str, cause: AspillError):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Run a block as the named stage: an AspillError leaving it names the stage."""
    try:
        yield
    except AspillError as exc:
        raise _StageFailure(name, exc) from exc


def _run_side(
    cfg: RunConfig,
    side: ShockSide,
    panel: Panel,
    labels: tuple[str, ...],
    out_dir: Path,
) -> dict[str, Any]:
    summary: dict[str, Any] = {}
    files: dict[str, str] = {}
    names = _side_outputs(side)

    with _stage("component"):
        # Each side splits its own components, so a run holds one component panel at a time.
        side_panel = split_side(panel, cfg.trend, side)

    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        with _stage("lag-select"):
            factor, lag = None, cfg.lags
            if lag is None:
                factor = factor_sample(side_panel, cfg.max_lags)
                lag = factor.select(cfg.lag_select)
            # The full sample is the one window that spans it.
            sample_cfg = RollingConfig(
                window=len(panel),
                horizon=cfg.horizon,
                var_spec=VarSpec(p=lag, ty_extra_lags=1 if cfg.ty_augment else 0),
                trend_spec=cfg.trend,
                shock_side=side,
                sigma_scaling=cfg.sigma_scaling,
            )
        with _stage("estimate"):
            # The factor that ranks the candidate lags also fits the chosen one.
            fit = fit_sample(side_panel, sample_cfg.var_spec, factor)
        with _stage("fevd"):
            percent, (reason,) = spillover_shares(fit, sample_cfg)
            if reason is not None:
                raise DegenerateCovarianceError(reason)
        with _stage("table"):
            table = table_from_percent(percent[0], labels, row_sum_tol=1e-4)
            net = net_measures(table)

        summary["lag"] = lag
        summary["total_spillover"] = table.total_spillover

        if cfg.emit_tables:
            with _stage("write-tables"):
                for fmt, key in (("csv", "table_csv"), ("json", "table_json"), ("markdown", "table_md")):
                    write_atomic(out_dir / names[key], render_table(table, fmt))
                    files[key] = names[key]
                write_atomic(out_dir / names["net_json"], render_net_json(net))
                files["net_json"] = names["net_json"]

        if cfg.window is not None:
            with _stage("rolling"):
                rolling_cfg = replace(sample_cfg, window=cfg.window, step=cfg.step)
                windows = rolling_tables(panel, rolling_cfg, cfg.decompose_per_window, side_panel)
            with _stage("write-rolling"):
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

    summary["files"] = files
    summary["warnings"] = sorted({str(r.message) for r in records})
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
        panel = log_transform(panel)
    labels = tuple(cfg.columns)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    for side in _ALL_SIDES:
        for name in _side_outputs(side).values():
            (out_dir / name).unlink(missing_ok=True)
    # A panel too short for the trend fit ends the run in one error naming
    # every series, before any side runs.
    if any(side is not ShockSide.SYMMETRIC for side in cfg.sides):
        check_length(panel)

    side_summaries: dict[str, Any] = {}
    failed: list[tuple[str, _StageFailure]] = []
    for side in cfg.sides:
        try:
            side_summaries[side.value] = _run_side(cfg, side, panel, labels, out_dir)
        except _StageFailure as failure:
            failed.append((side.value, failure))
    if failed:
        first_side, first = failed[0]
        raise PipelineError(
            first_side,
            first.stage,
            first.cause,
            failures=[(side, failure.stage, str(failure.cause)) for side, failure in failed],
        )

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
    if not input_path.is_file():
        raise ManifestMismatchError(f"recorded input {cfg.input_path!r} no longer exists")
    digest = _sha256(input_path)
    if digest != recorded:
        raise ManifestMismatchError(
            f"input {cfg.input_path!r} digest {digest[:12]} differs from recorded {recorded[:12]}"
        )
    return cfg
