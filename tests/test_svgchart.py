"""Chart rendering: deterministic bytes and gap handling."""

from __future__ import annotations

import datetime as dt
import re

import numpy as np
import pytest

from aspill.decomposition import ShockSide
from aspill.svgchart import render_plot, render_svg
from test_report import index_tables


def make_series(values, side=ShockSide.SYMMETRIC, start=dt.date(2007, 3, 1)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return index_tables(dates, values, side)


class TestRenderSvg:
    def test_identical_input_identical_bytes(self):
        rng = np.random.default_rng(90)
        values = 40.0 + 10.0 * rng.standard_normal(101)
        assert render_svg(make_series(values)) == render_svg(make_series(values.copy()))

    def test_basic_structure(self):
        rng = np.random.default_rng(91)
        values = np.clip(40.0 + 10.0 * rng.standard_normal(101), 0.0, 100.0)
        text = render_svg(make_series(values))
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert 'width="900" height="360"' in text
        assert text.count("<polyline ") == 1
        points = re.search(r'<polyline points="([^"]+)"', text).group(1)
        assert len(points.split()) == 101
        assert "Spillover index, symmetric" in text

    def test_side_selects_title(self):
        text = render_svg(make_series([10.0, 20.0], side=ShockSide.NEGATIVE))
        assert "Spillover index, negative shocks" in text

    def test_constant_series_is_flat(self):
        text = render_svg(make_series([44.5] * 20))
        points = re.search(r'<polyline points="([^"]+)"', text).group(1)
        ys = {pair.split(",")[1] for pair in points.split()}
        assert len(ys) == 1

    def test_nan_splits_runs(self):
        values = [30.0, 31.0, float("nan"), 29.0, 28.0]
        text = render_svg(make_series(values))
        assert text.count("<polyline ") == 2

    def test_gaps_at_start_middle_and_end(self):
        nan = float("nan")
        values = [nan, nan, 30.0, 31.0, nan, 29.0, 28.0, 27.0, nan]
        text = render_svg(make_series(values))
        runs = re.findall(r'<polyline points="([^"]+)"', text)
        assert [len(run.split()) for run in runs] == [2, 3]
        assert "<circle " not in text
        # 30 of 100 on a value axis running from y=318 up to y=34.
        assert runs[0].split()[0].endswith(",232.80")

    def test_lone_point_becomes_dot(self):
        values = [30.0, float("nan"), 29.0, 28.0]
        text = render_svg(make_series(values))
        assert text.count("<circle ") == 1
        assert text.count("<polyline ") == 1

    def test_single_point_series(self):
        text = render_svg(make_series([55.0]))
        assert text.count("<circle ") == 1
        assert text.count("<polyline ") == 0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_svg(make_series([]))

    def test_axis_labels_present(self):
        series = make_series([10.0, 50.0, 90.0])
        text = render_svg(series)
        for level in ("0", "25", "50", "75", "100"):
            assert f">{level}</text>" in text
        assert "2007-03-01" in text
        assert "2007-03-03" in text

    def test_date_ordinal_spacing(self):
        dates = (dt.date(2007, 3, 1), dt.date(2007, 3, 2), dt.date(2007, 3, 11))
        series = index_tables(dates, [10.0, 20.0, 30.0])
        points = re.search(r'<polyline points="([^"]+)"', render_svg(series)).group(1)
        xs = [float(p.split(",")[0]) for p in points.split()]
        assert (xs[1] - xs[0]) == pytest.approx((xs[2] - xs[0]) / 10.0, abs=0.02)


class TestRenderPlot:
    def test_writes_file_and_leaves_no_temp(self, tmp_path):
        series = make_series([10.0, 20.0, 30.0])
        target = tmp_path / "chart.svg"
        render_plot(series, target)
        assert target.read_text(encoding="utf-8") == render_svg(series)
        assert list(tmp_path.iterdir()) == [target]
