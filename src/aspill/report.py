"""Byte-stable renderings of connectedness results.

CSV and JSON carry full float precision so files round-trip exactly;
markdown rounds to one decimal the way published spillover tables do,
with the total index as the bottom-right cell. Rendering the parse of a
rendered table reproduces the original bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .connectedness import ConnectednessTable, NetMeasures, table_from_percent
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


def parse_table_csv(text: str) -> ConnectednessTable:
    """Rebuild a table from its CSV rendering.

    Only labels and the share matrix are read; margins are recomputed, so
    they agree bit-for-bit with what rendering would emit again. A cell
    that is not a finite number is named by its 1-based row and column.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 4:
        raise ValueError("table CSV needs a header, data rows, and two margin rows")
    header = rows[0]
    labels = tuple(header[1:-1])
    m = len(labels)
    if len(rows) != m + 3:
        raise ValueError(f"expected {m + 3} rows for {m} labels, got {len(rows)}")
    matrix = np.empty((m, m))
    for i, row in enumerate(rows[1 : m + 1]):
        if len(row) <= m:
            raise ValueError(f"row {i + 2} has {len(row)} cells, expected {m + 2}")
        if row[0] != labels[i]:
            raise ValueError(f"row label {row[0]!r} does not match header label {labels[i]!r}")
        for j, cell in enumerate(row[1 : m + 1]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"row {i + 2}, column {j + 2} ({labels[j]}): {cell!r} is not a finite number"
                )
            matrix[i, j] = value
    return table_from_percent(matrix, labels)


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
