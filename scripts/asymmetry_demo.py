"""Demonstrate asymmetric spillovers on real monthly stock-index data.

Fetches three FRED series (supply your own ids, e.g. national stock
market indices for the US, the euro area, and China), takes natural
logs, and compares the total spillover index computed on the negative
components, the positive components, and the raw series over 1999-2023
with a VAR(2) and a 10-step horizon.

On falling-market-driven samples the expected qualitative outcome is

    negative-shock index > symmetric index > positive-shock index

This is a demonstration against live data, not part of the test suite:
the result depends on which series ids you choose. An API key is needed
on the first run only (--api-key or FRED_API_KEY); responses are cached.

Usage:
    python3 scripts/asymmetry_demo.py US_ID EURO_ID CHINA_ID [--api-key KEY]
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from aspill import (
    Panel,
    RollingConfig,
    ShockSide,
    VarSpec,
    align,
    fetch_fred,
    log_transform,
    rolling_tables,
)

HORIZON = 10
LAGS = 2
RANGE = (date(1999, 1, 1), date(2023, 12, 31))


def spillover_index(panel: Panel, side: ShockSide) -> float:
    """The side's total spillover over the whole sample: the one window that spans it."""
    cfg = RollingConfig(len(panel), HORIZON, VarSpec(p=LAGS), shock_side=side)
    return float(rolling_tables(panel, cfg).index_values[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("series", nargs=3, metavar="SERIES_ID",
                        help="three FRED series ids (US, euro area, China)")
    parser.add_argument("--api-key", help="FRED API key; defaults to FRED_API_KEY")
    args = parser.parse_args(argv)

    panels = []
    for series_id in args.series:
        fetched = fetch_fred(series_id, api_key=args.api_key, date_range=RANGE)
        print(f"{series_id}: {len(fetched)} observations")
        panels.append(fetched)
    panel = log_transform(align(panels))

    indices = {
        side: spillover_index(panel, side)
        for side in (ShockSide.NEGATIVE, ShockSide.SYMMETRIC, ShockSide.POSITIVE)
    }
    for side, value in indices.items():
        print(f"{side.value}: total spillover index = {value:.2f}%")

    neg = indices[ShockSide.NEGATIVE]
    sym = indices[ShockSide.SYMMETRIC]
    pos = indices[ShockSide.POSITIVE]
    if neg > sym > pos:
        print("ordering holds: negative > symmetric > positive")
        return 0
    print("ordering does NOT hold for these series; asymmetry is data-dependent")
    return 1


if __name__ == "__main__":
    sys.exit(main())
