"""Text renderings: full-precision values and published-style layout."""

from __future__ import annotations

import csv
import datetime as dt
import io
import json

import numpy as np
import pytest

from aspill.connectedness import net_measures, table_from_percent
from aspill.decomposition import ShockSide
from aspill.report import (
    FROM_OTHERS_LABEL,
    INCLUDING_OWN_LABEL,
    TO_OTHERS_LABEL,
    render_net_json,
    render_rolling_csv,
    render_table,
)
from aspill.rolling import RollingTables
from test_connectedness import NEGATIVE_MATRIX, LABELS, random_table


def golden_table():
    return table_from_percent(NEGATIVE_MATRIX, LABELS)


def index_tables(dates, values, side=ShockSide.SYMMETRIC) -> RollingTables:
    """Two-series windows whose index is exactly values; a NaN value is a failed window.

    The shares [[100 - v, v], [v, 100 - v]] have total spillover (v + v) / 2 = v.
    """
    v = np.asarray(values, dtype=float)
    return RollingTables(
        side=side,
        labels=("a", "b"),
        window_end_dates=tuple(dates),
        percent=np.stack([100.0 - v, v, v, 100.0 - v], axis=-1).reshape(-1, 2, 2),
        gap_reasons=tuple("window failed" if np.isnan(x) else None for x in v.tolist()),
        radius=np.ones(v.size),
        singular_values=np.ones((v.size, 3)),
    )


def bits(values) -> list[str]:
    """float.hex() of each value, so that equal lists are equal to the bit."""
    return [float(v).hex() for v in np.ravel(values)]


def make_series(values, start=dt.date(2006, 1, 2)):
    dates = tuple(start + dt.timedelta(days=7 * i) for i in range(len(values)))
    return index_tables(dates, values)


class TestTableCsv:
    @pytest.mark.parametrize(
        "make", [golden_table, lambda: random_table(np.random.default_rng(80))], ids=["golden", "random"]
    )
    def test_csv_and_json_carry_every_value_at_full_precision(self, make):
        table = make()
        header, *rows = csv.reader(io.StringIO(render_table(table, "csv")))
        assert header == ["", *table.labels, "from_others"]
        expected = [
            *([*table.matrix[i], table.from_others[i]] for i in range(table.m)),
            [*table.to_others, table.to_others.sum()],
            [*table.including_own, table.total_spillover],
        ]
        assert bits([[float(cell) for cell in row[1:]] for row in rows]) == bits(expected)
        payload = json.loads(render_table(table, "json"))
        for name in ("matrix", "from_others", "to_others", "including_own", "total_spillover",
                     "aggregates_from", "aggregates_to"):
            assert bits(payload[name]) == bits(getattr(table, name)), name

    def test_layout(self):
        lines = render_table(golden_table(), "csv").splitlines()
        assert lines[0] == ",China,Euro,US,from_others"
        assert len(lines) == 6
        assert lines[1].startswith("China,64.3,")
        assert lines[4].startswith("to_others,")
        assert lines[5].startswith("including_own,")


class TestTableMarkdown:
    def test_margin_labels_and_index_cell(self):
        text = render_table(golden_table(), "markdown")
        assert FROM_OTHERS_LABEL in text
        assert TO_OTHERS_LABEL in text
        assert INCLUDING_OWN_LABEL in text
        assert text.rstrip().endswith("44.53% |")

    def test_one_decimal_cells(self):
        lines = render_table(golden_table(), "markdown").splitlines()
        assert lines[2] == "| China | 64.3 | 18.5 | 17.3 | 35.8 |"

    def test_identity_table_shows_zero_index(self):
        table = table_from_percent(100.0 * np.eye(2), ("a", "b"))
        assert "0.00%" in render_table(table, "markdown")


class TestTableJson:
    def test_parses_and_is_sorted(self):
        text = render_table(golden_table(), "json")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["labels"] == list(LABELS)
        np.testing.assert_allclose(payload["matrix"], NEGATIVE_MATRIX)
        assert text.endswith("\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_table(golden_table(), "xml")


class TestNetJson:
    def test_contains_all_measures(self):
        payload = json.loads(render_net_json(net_measures(golden_table())))
        assert set(payload) == {
            "labels",
            "net_directional",
            "net_pairwise_simple",
            "net_pairwise_scaled",
        }
        matrix = np.asarray(payload["net_pairwise_simple"])
        np.testing.assert_array_equal(matrix, -matrix.T)


def read_rolling_csv(text: str) -> tuple[tuple[dt.date, ...], np.ndarray]:
    """The dates and values (NaN gaps) of a date,index rendering, read by csv.reader."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return tuple(dt.date.fromisoformat(d) for d, _ in rows), np.array([float(v or "nan") for _, v in rows])


def writer_rolling_csv(series) -> str:
    """The rolling CSV written a row at a time by csv.writer, as a reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "index"])
    for when, value in zip(series.window_end_dates, series.index_values):
        writer.writerow([when.isoformat(), "" if np.isnan(value) else repr(float(value))])
    return out.getvalue()


class TestRollingCsv:
    def test_round_trip_with_gaps(self):
        series = make_series([12.5, float("nan"), 44.53, 18.0])
        text = render_rolling_csv(series)
        dates, values = read_rolling_csv(text)
        assert dates == series.window_end_dates
        np.testing.assert_array_equal(values, series.index_values)
        assert render_rolling_csv(index_tables(dates, values)) == text

    def test_gaps_at_start_middle_and_end(self):
        nan = float("nan")
        series = make_series([nan, nan, 12.5, 100.0 / 3.0, nan, 44.53, 18.0, nan])
        text = render_rolling_csv(series)
        assert text == writer_rolling_csv(series)
        dates, values = read_rolling_csv(text)
        np.testing.assert_array_equal(values, series.index_values)
        assert render_rolling_csv(index_tables(dates, values)) == text

    def test_gap_row_has_empty_cell(self):
        text = render_rolling_csv(make_series([1.0, float("nan")]))
        lines = text.splitlines()
        assert lines[0] == "date,index"
        assert lines[2].endswith(",")

    def test_full_precision_values(self):
        value = 100.0 / 3.0
        text = render_rolling_csv(make_series([value]))
        _, values = read_rolling_csv(text)
        assert values[0] == value
