"""Asymmetric volatility spillover analysis.

Integrated series are split into cumulative positive and negative shock
components; VAR models fitted on each component panel feed a generalized
forecast-error variance decomposition whose normalized shares quantify
how volatility from good and bad news travels between markets, both over
the full sample and through rolling windows.
"""

from .connectedness import (
    ConnectednessTable,
    FevdResult,
    NetMeasures,
    compute_fevd,
    directional,
    net_measures,
    table_from_percent,
)
from .decomposition import ShockSide, TrendSpec
from .errors import AspillError
from .fred import fetch_fred
from .panel import Panel, align, load_csv, log_transform, write_csv
from .pipeline import RunConfig, RunManifest, config_from_manifest, run_pipeline
from .report import render_net_json, render_rolling_csv, render_table
from .rolling import RollingConfig, RollingTables, rolling_tables
from .svgchart import render_plot, render_svg
from .var_engine import VarSpec
from .version import __version__

__all__ = [
    "AspillError",
    "ConnectednessTable",
    "FevdResult",
    "NetMeasures",
    "Panel",
    "RollingConfig",
    "RollingTables",
    "RunConfig",
    "RunManifest",
    "ShockSide",
    "TrendSpec",
    "VarSpec",
    "__version__",
    "align",
    "compute_fevd",
    "config_from_manifest",
    "directional",
    "fetch_fred",
    "load_csv",
    "log_transform",
    "net_measures",
    "render_net_json",
    "render_plot",
    "render_rolling_csv",
    "render_svg",
    "render_table",
    "rolling_tables",
    "run_pipeline",
    "table_from_percent",
    "write_csv",
]
