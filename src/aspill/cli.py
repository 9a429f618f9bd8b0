"""Command-line interface for asymmetric volatility spillover analysis.

Subcommands compose the library stages: fetch (remote data to CSV),
decompose (component export), analyze (tables, net measures, optional
rolling), roll (analyze with its tables off) and report (re-render a table).
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from datetime import date
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .atomic import write_atomic
from .config import _field_from_json, _to_json
from .connectedness import SIGMA_SCALINGS
from .decomposition import ShockSide, TrendSpec, split_side
from .errors import AspillError, ConfigError, MalformedCsvError, PipelineError
from .fred import DEFAULT_CACHE_DIR, fetch_fred
from .panel import Panel, align, check_columns, load_csv, log_transform, parse_date, write_csv
from .pipeline import RunConfig, config_from_manifest, run_pipeline
from .report import _FORMATS, parse_table_csv, render_table
from .var_engine import CRITERIA
from .version import __version__

_DIRECTIONAL_NOTE = (
    "Directional measures use the received/transmitted convention: volatility "
    "received by variable i is its off-diagonal row sum divided by the variable "
    "count, volatility transmitted is the off-diagonal column sum divided by the "
    "variable count, so each set sums to the total spillover index. The ratio "
    "form sometimes printed for these measures divides a sum by itself and is "
    "identically 100; it is documented here for completeness and never emitted."
)


def _columns_arg(text: str) -> list[str]:
    """The names of a comma-separated list.

    Commands call it on the parsed text, so that a bad list ends in an
    error line and exit status 1, like every other configuration error.
    """
    columns = [c.strip() for c in text.split(",") if c.strip()]
    if not columns:
        raise ConfigError(f"expected a comma-separated list of names, got {text!r}")
    return columns


def _date_arg(option: str, text: str | None) -> date | None:
    """The date an option's text spells, or ConfigError naming the option."""
    if text is None:
        return None
    try:
        return parse_date(text)
    except ValueError:
        raise ConfigError(f"{option} must be a YYYY-MM-DD or YYYY-MM date, got {text!r}") from None


# The text of an integer as JSON writes it; any other text reaches
# RunConfig as given, which rejects it as a manifest's string.
_INTEGER = re.compile(r"-?[0-9]+")


def _add_panel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="CSV file with a date column and one column per series")
    parser.add_argument("--columns", help="comma-separated value columns")
    parser.add_argument("--date-column", help="name of the date column")
    parser.add_argument("--log", action="store_true", default=None, help="use natural logs of the values")
    parser.add_argument("--trend", metavar=_choices(t.value for t in TrendSpec),
                        help="deterministic part of the walk")


def _choices(values) -> str:
    """Allowed values shown as argparse shows choices.

    RunConfig, not argparse, checks them, so that the command line and a
    manifest reject a bad value with the same message.
    """
    return "{" + ",".join(values) + "}"


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.input is None or args.columns is None:
        hint = "" if args.command == "roll" else " (or use --from-manifest)"
        raise AspillError(f"--input and --columns are required{hint}")
    # The options given, roll's emit_tables among them, as JSON-shaped values for
    # the reader a manifest goes through; an option left out keeps RunConfig's default.
    given = {
        name: int(value) if int in (kind, *get_args(kind)) and _INTEGER.fullmatch(value) else value
        for name, kind in get_type_hints(RunConfig).items()
        if (value := getattr(args, name, None)) is not None
    }
    given.update(
        input_path=args.input,
        columns=_columns_arg(args.columns),
        out_dir=args.out if args.out is not None else "./results",
    )
    if args.sides is not None:
        given["sides"] = _columns_arg(args.sides)
    return RunConfig.from_dict(given)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.from_manifest:
        given = [
            "--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if value is not None and dest not in ("command", "func", "from_manifest", "out")
        ]
        if given:
            raise ConfigError(
                "--from-manifest re-runs the recorded configuration and takes only --out "
                f"beside it; got {', '.join(given)}"
            )
        cfg = config_from_manifest(args.from_manifest)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
    else:
        cfg = _config_from_args(args)
    manifest = run_pipeline(cfg)
    for side in cfg.sides:
        summary = manifest.sides[side.value]
        line = f"{side.value}: lag={summary['lag']} index={summary['total_spillover']:.2f}%"
        if "rolling" in summary:
            rolling = summary["rolling"]
            line += f" windows={rolling['windows']} gaps={rolling['gaps']}"
        print(line)
    print(f"wrote {Path(cfg.out_dir) / 'manifest.json'}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.input is None or args.columns is None:
        raise AspillError("--input and --columns are required")
    panel, dropped = load_csv(args.input, args.date_column, _columns_arg(args.columns))
    if args.log:
        panel = log_transform(panel)
    trend = _field_from_json("trend", TrendSpec, args.trend)
    plus, minus = (split_side(panel, trend, side) for side in (ShockSide.POSITIVE, ShockSide.NEGATIVE))
    names = [name for pair in zip(plus.names, minus.names) for name in pair]
    interleaved = np.stack([plus.matrix, minus.matrix], axis=2).reshape(len(panel), -1)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    components = Panel(names, panel.dates, interleaved)
    write_csv(components, out_path, date_column=args.date_column)
    print(f"wrote {out_path} ({len(panel)} rows, {dropped} dropped)")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    ids = _columns_arg(args.series)
    check_columns(None, ids)
    date_range = (_date_arg("--start", args.start), _date_arg("--end", args.end))
    panels = []
    for series_id in ids:
        fetched = fetch_fred(
            series_id, api_key=args.api_key, date_range=date_range, cache_dir=args.cache_dir
        )
        panels.append(fetched)
        print(f"{series_id}: {len(fetched)} observations")
    panel = panels[0] if len(panels) == 1 else align(panels)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(panel, out_path)
    print(f"wrote {out_path} ({len(panel)} aligned rows)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        table = parse_table_csv(Path(args.table).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise MalformedCsvError(f"{args.table}: {exc}") from exc
    text = render_table(table, args.format)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out_path, text)
        print(f"wrote {out_path}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspill",
        description="Asymmetric volatility spillover analysis on positive and "
        "negative cumulative shock components.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # roll is analyze with its tables off: it writes no net measures and cannot re-run a manifest.
    for name, help_text, rolling in (
        ("analyze", "full pipeline: tables, net measures, optional rolling outputs", False),
        ("roll", "rolling spillover index and chart only", True),
    ):
        command = sub.add_parser(name, help=help_text, epilog=None if rolling else _DIRECTIONAL_NOTE)
        _add_panel_options(command)
        command.add_argument("--lags", help="fixed lag order; omit to select by criterion")
        command.add_argument("--lag-select", metavar=_choices(CRITERIA),
                             help="criterion used when --lags is omitted")
        command.add_argument("--max-lags", help="largest candidate order for lag selection")
        command.add_argument("--ty-augment", action="store_true", default=None,
                             help="estimate one extra unrestricted lag kept out of the propagation")
        command.add_argument("--sigma-scaling", metavar=_choices(SIGMA_SCALINGS),
                             help="variance scaling the shares: jj is the standard generalized form; "
                                  "ii depends on the units of the input: rescaling a series "
                                  "moves the shares")
        command.add_argument("--horizon", help="forecast horizon n")
        command.add_argument("--sides",
                             help="comma-separated subset of " + ",".join(s.value for s in ShockSide))
        command.add_argument("--window", required=rolling, help="observations per rolling window")
        command.add_argument("--step", help="stride between windows")
        command.add_argument("--decompose-per-window", action="store_true", default=None,
                             help="re-anchor the component transform inside every window")
        command.add_argument("--out", help="output directory (default ./results)")
        command.set_defaults(func=_cmd_analyze)
        if rolling:
            command.set_defaults(emit_tables=False, from_manifest=None)
        else:
            command.add_argument("--from-manifest", help="re-run the configuration stored in a manifest; "
                                 "an explicit --out redirects the outputs")

    decompose = sub.add_parser(
        "decompose", help="export positive/negative components as CSV"
    )
    _add_panel_options(decompose)
    decompose.add_argument("--out", required=True, help="output CSV path")
    # decompose builds no RunConfig, so its options take RunConfig's defaults here.
    defaults = {f.name: _to_json(f.default) for f in dataclasses.fields(RunConfig)}
    decompose.set_defaults(
        func=_cmd_decompose, **{name: defaults[name] for name in ("date_column", "log", "trend")}
    )

    fetch = sub.add_parser("fetch", help="download series from FRED into an aligned CSV")
    fetch.add_argument("--series", required=True,
                       help="comma-separated FRED series ids")
    fetch.add_argument("--start", help="first observation date")
    fetch.add_argument("--end", help="last observation date")
    fetch.add_argument("--api-key", help="FRED API key; defaults to FRED_API_KEY")
    fetch.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="plain-text cache directory")
    fetch.add_argument("--out", required=True, help="output CSV path")
    fetch.set_defaults(func=_cmd_fetch)

    report = sub.add_parser("report", help="re-render a table CSV as csv, json, or markdown")
    report.add_argument("--table", required=True, help="table CSV produced by analyze")
    report.add_argument("--format", default="markdown", choices=_FORMATS)
    report.add_argument("--out", help="output path; prints to stdout when omitted")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        for side, stage, message in exc.failures:
            print(f"error [{side}/{stage}]: {message}", file=sys.stderr)
        return 1
    except (AspillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
