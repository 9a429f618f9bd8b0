"""Byte-stable renderings of connectedness results.

CSV and JSON carry full float precision so files round-trip exactly;
markdown rounds to one decimal the way published spillover tables do,
with the total index as the bottom-right cell.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .connectedness import ConnectednessTable, NetMeasures
from .rolling import RollingTables

_FORMATS = ("csv", "json", "markdown")

FROM_OTHERS_LABEL = "From Others"
TO_OTHERS_LABEL = "Contribution to others"
INCLUDING_OWN_LABEL = "Contribution including own"


def render_table(table: ConnectednessTable, fmt: str = "csv") -> str:
    """Render a table as csv, json, or markdown text."""
    if fmt == "csv":
        return _table_csv(table)
    if fmt == "json":
        return _table_json(table)
    if fmt == "markdown":
        return _table_markdown(table)
    raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")


def _table_csv(table: ConnectednessTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *table.labels, "from_others"])
    for i, label in enumerate(table.labels):
        writer.writerow(
            [label, *[repr(float(v)) for v in table.matrix[i]], repr(float(table.from_others[i]))]
        )
    writer.writerow(
        ["to_others", *[repr(float(v)) for v in table.to_others], repr(float(table.to_others.sum()))]
    )
    writer.writerow(
        ["including_own", *[repr(float(v)) for v in table.including_own], repr(table.total_spillover)]
    )
    return out.getvalue()


def _table_json(table: ConnectednessTable) -> str:
    payload = {
        "labels": list(table.labels),
        "matrix": table.matrix.tolist(),
        "from_others": table.from_others.tolist(),
        "to_others": table.to_others.tolist(),
        "including_own": table.including_own.tolist(),
        "total_spillover": table.total_spillover,
        "aggregates_from": table.aggregates_from.tolist(),
        "aggregates_to": table.aggregates_to.tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _table_markdown(table: ConnectednessTable) -> str:
    def cell(v: float) -> str:
        return f"{v:.1f}"

    lines = [
        "| | " + " | ".join(table.labels) + f" | {FROM_OTHERS_LABEL} |",
        "|" + " --- |" * (table.m + 2),
    ]
    for i, label in enumerate(table.labels):
        cells = [cell(v) for v in table.matrix[i]] + [cell(table.from_others[i])]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    to_cells = [cell(v) for v in table.to_others] + [cell(float(table.to_others.sum()))]
    lines.append(f"| {TO_OTHERS_LABEL} | " + " | ".join(to_cells) + " |")
    own_cells = [cell(v) for v in table.including_own] + [f"{table.total_spillover:.2f}%"]
    lines.append(f"| {INCLUDING_OWN_LABEL} | " + " | ".join(own_cells) + " |")
    return "\n".join(lines) + "\n"


def render_net_json(net: NetMeasures) -> str:
    """Net directional and pairwise measures as deterministic JSON."""
    payload = {
        "labels": list(net.labels),
        "net_directional": net.net_directional.tolist(),
        "net_pairwise_simple": net.net_pairwise_simple.tolist(),
        "net_pairwise_scaled": net.net_pairwise_scaled.tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_rolling_csv(tables: RollingTables) -> str:
    """Rolling index as date,index rows; failed windows leave index empty."""
    rows = [
        f"{when.isoformat()},{'' if math.isnan(value) else repr(value)}"
        for when, value in zip(tables.window_end_dates, tables.index_values.tolist())
    ]
    return "\n".join(["date,index", *rows]) + "\n"
