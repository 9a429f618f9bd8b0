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
    build_table,
    compute_fevd,
    directional,
    net_measures,
    table_from_percent,
)
from .decomposition import (
    DecomposedPanel,
    ShockSide,
    TrendFit,
    TrendSpec,
    component_panel,
    decompose_panel,
)
from .errors import AspillError
from .fred import fetch_fred
from .panel import Panel, align, load_csv, log_transform, write_csv
from .pipeline import RunConfig, RunManifest, config_from_manifest, run_pipeline
from .report import parse_table_csv, render_net_json, render_rolling_csv, render_table
from .rolling import RollingConfig, RollingTables, SpilloverSeries, rolling_tables
from .svgchart import render_plot, render_svg
from .var_engine import (
    VarFit,
    VarSpec,
    estimate_var,
    ma_coefficients,
    select_lag,
)
from .version import __version__

__all__ = [
    "AspillError",
    "ConnectednessTable",
    "DecomposedPanel",
    "FevdResult",
    "NetMeasures",
    "Panel",
    "RollingConfig",
    "RollingTables",
    "RunConfig",
    "RunManifest",
    "ShockSide",
    "SpilloverSeries",
    "TrendFit",
    "TrendSpec",
    "VarFit",
    "VarSpec",
    "__version__",
    "align",
    "build_table",
    "component_panel",
    "compute_fevd",
    "config_from_manifest",
    "decompose_panel",
    "directional",
    "estimate_var",
    "fetch_fred",
    "load_csv",
    "log_transform",
    "ma_coefficients",
    "net_measures",
    "parse_table_csv",
    "render_net_json",
    "render_plot",
    "render_rolling_csv",
    "render_svg",
    "render_table",
    "rolling_tables",
    "run_pipeline",
    "select_lag",
    "table_from_percent",
    "write_csv",
]
