"""CSV ingestion, alignment, and transform behavior of the panel layer."""

from __future__ import annotations

import pickle
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspill.decomposition import ShockSide, TrendSpec, _split, decompose_panel
from aspill.errors import (
    AspillError,
    DuplicateDateError,
    MalformedCsvError,
    NonPositiveValueError,
    NoOverlapError,
    NoUsableRowsError,
    UnknownColumnError,
)
from aspill.panel import Panel, align, load_csv, log_transform, parse_date, write_csv
from varsim import make_panel, monthly_dates


def write_file(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseDate:
    def test_full_iso(self):
        assert parse_date("2001-07-15") == date(2001, 7, 15)

    def test_month_resolution_normalizes_to_first(self):
        assert parse_date("2001-07") == date(2001, 7, 1)

    def test_whitespace_tolerated(self):
        assert parse_date(" 2001-07-01 ") == date(2001, 7, 1)

    @pytest.mark.parametrize("text", ["20200101", "2020-W01-1"])
    def test_only_dashed_digit_days_parse(self, text):
        with pytest.raises(ValueError):
            parse_date(text)

    @pytest.mark.parametrize(
        "text",
        [
            "2020-0_1",
            "2020-+1",
            "2020- 1",
            "\uff12\uff10\uff12\uff10-01",  # fullwidth digits
            "2020-\u0660\u0661",  # Arabic-Indic digits
            "2020-1",
            "202-01",
            "+2020-01",
            "2020-13",
            "2020-00",
            # Out of date's range: ValueError too, never OverflowError.
            "0000-01-01",
            "0000-01",
            "9999-99-99",
        ],
    )
    def test_only_padded_ascii_months_parse(self, text):
        with pytest.raises(ValueError):
            parse_date(text)


class TestSeriesInvariants:
    """The checks on one series, as a one-column panel."""

    def test_dates_must_increase(self):
        with pytest.raises(DuplicateDateError):
            Panel(("x",), (date(2000, 1, 1), date(2000, 1, 1)), np.array([[1.0], [2.0]]))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            Panel(("x",), monthly_dates(2), np.array([[1.0], [np.nan]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Panel(("x",), monthly_dates(3), np.array([[1.0], [2.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Panel(("x",), (), np.empty((0, 1)))

    def test_values_read_only(self):
        panel = Panel(("x",), monthly_dates(2), np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            panel.matrix[0, 0] = 9.0


class TestPanelInvariants:
    def test_series_must_share_dates(self):
        with pytest.raises(ValueError):
            Panel(("a", "b"), monthly_dates(3), np.arange(3.0)[:, np.newaxis])
        with pytest.raises(ValueError):
            Panel(("a", "b"), monthly_dates(4), np.arange(6.0).reshape(3, 2))

    def test_single_series_panel_allowed(self):
        panel = Panel(("a",), monthly_dates(3), np.arange(3.0)[:, np.newaxis])
        assert panel.m == 1

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            Panel((), (), np.empty((0, 0)))

    def test_matrix_and_window(self):
        panel = make_panel(np.arange(12.0).reshape(6, 2))
        assert panel.matrix.shape == (6, 2)
        piece = panel.window(2, 5)
        assert len(piece) == 3
        assert piece.dates == panel.dates[2:5]
        np.testing.assert_array_equal(piece.matrix, panel.matrix[2:5])


class TestLoadCsv:
    def test_three_column_csv(self, tmp_path):
        lines = ["date,a,b"]
        for i, when in enumerate(monthly_dates(300)):
            lines.append(f"{when.isoformat()},{i},{i * 2}")
        path = write_file(tmp_path / "data.csv", "\n".join(lines) + "\n")
        panel, dropped = load_csv(path, "date", ["a", "b"])
        assert panel.m == 2
        assert len(panel) == 300
        assert dropped == 0

    def test_missing_value_row_dropped(self, tmp_path):
        text = "date,a,b\n2000-01,1,2\n2000-02,,2\n2000-03,3,4\n2000-04,5,6\n2000-05,7,8\n"
        path = write_file(tmp_path / "data.csv", text)
        panel, dropped = load_csv(path, "date", ["a", "b"])
        assert len(panel) == 4
        assert dropped == 1

    def test_missing_only_in_unselected_column_kept(self, tmp_path):
        text = "date,a,b\n2000-01,1,.\n2000-02,2,5\n"
        path = write_file(tmp_path / "data.csv", text)
        panel, dropped = load_csv(path, "date", ["a"])
        assert len(panel) == 2
        assert dropped == 0

    def test_duplicate_date(self, tmp_path):
        text = "date,a\n2000-01-01,1\n2000-01-01,2\n"
        path = write_file(tmp_path / "data.csv", text)
        with pytest.raises(DuplicateDateError):
            load_csv(path, "date", ["a"])

    def test_unknown_column(self, tmp_path):
        path = write_file(tmp_path / "data.csv", "date,a\n2000-01,1\n")
        with pytest.raises(UnknownColumnError):
            load_csv(path, "date", ["missing"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "date", ["a"])

    def test_all_rows_unusable(self, tmp_path):
        path = write_file(tmp_path / "data.csv", "date,a\n2000-01,.\n2000-02,\n")
        with pytest.raises(NoUsableRowsError):
            load_csv(path, "date", ["a"])

    def test_header_only(self, tmp_path):
        path = write_file(tmp_path / "data.csv", "date,a\n")
        with pytest.raises(NoUsableRowsError):
            load_csv(path, "date", ["a"])

    def test_rows_sorted_by_date(self, tmp_path):
        text = "date,a\n2000-03,3\n2000-01,1\n2000-02,2\n"
        path = write_file(tmp_path / "data.csv", text)
        panel, _ = load_csv(path, "date", ["a"])
        np.testing.assert_array_equal(panel.matrix[:, 0], [1.0, 2.0, 3.0])
        assert panel.dates == (date(2000, 1, 1), date(2000, 2, 1), date(2000, 3, 1))


class TestMalformedCsv:
    @pytest.mark.parametrize(
        "row, column, cell, kind",
        [
            ("2020-01-02,abc,3", "a", "abc", "a finite number"),
            ("2020-01-02,2,inf", "b", "inf", "a finite number"),
            ("2020-13-01,2,3", "date", "2020-13-01", "a date"),
            ("99999999999-01,2,3", "date", "99999999999-01", "a date"),
            ("20200102,2,3", "date", "20200102", "a date"),
            ("2020-W01-4,2,3", "date", "2020-W01-4", "a date"),
        ],
    )
    def test_bad_cell_names_file_row_and_column(self, tmp_path, row, column, cell, kind):
        path = write_file(tmp_path / "data.csv", f"date,a,b\n2020-01-01,1,2\n{row}\n")
        with pytest.raises(MalformedCsvError) as info:
            load_csv(path, "date", ["a", "b"])
        assert str(info.value) == f"{path}: row 3, column {column!r}: cannot read {cell!r} as {kind}"

    def test_short_row_reports_missing_date(self, tmp_path):
        path = write_file(tmp_path / "data.csv", "a,b,date\n1,2,2020-01-01\n3,4\n")
        with pytest.raises(MalformedCsvError, match="row 3, column 'date'"):
            load_csv(path, "date", ["a", "b"])

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"date,a\n2020-01-01,\xff\n")
        with pytest.raises(MalformedCsvError, match="not UTF-8"):
            load_csv(path, "date", ["a"])

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=120),
            st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from(
                            ["2020-01-01", "2020-01-02", "2020-02", "2020-13-01", "0-1",
                             "1.5", "-2e3", "inf", "-Infinity", "1e999", "nan", ".", "",
                             "abc", '"1,5"', '"', " 7 ", "date", "a"]
                        ),
                        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                    ),
                    max_size=4,
                ).map(",".join),
                max_size=8,
            ).map(lambda rows: "date,a,b\n" + "\n".join(rows)),
        )
    )
    def test_any_text_loads_or_raises_aspill_error(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            panel, _ = load_csv(path, "date", ["a", "b"])
        except AspillError:
            return
        assert np.all(np.isfinite(panel.matrix))


class TestRoundTrip:
    def test_write_then_load_is_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = make_panel(np.exp(rng.normal(size=(40, 3)) * 8))
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        loaded, dropped = load_csv(path, "date", list(panel.names))
        assert dropped == 0
        np.testing.assert_array_equal(loaded.matrix, panel.matrix)
        assert loaded.dates == panel.dates

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_property(self, values, tmp_path_factory):
        panel = make_panel(np.array(values))
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_csv(panel, path)
        loaded, _ = load_csv(path, "date", list(panel.names))
        np.testing.assert_array_equal(loaded.matrix, panel.matrix)


class TestAlign:
    def test_partial_overlap(self):
        a = make_panel(np.arange(300.0))
        b = make_panel(np.arange(250.0), names=["t"], dates=a.dates[50:])
        joined = align([a, b])
        assert len(joined) == 250
        assert joined.m == 2
        assert joined.dates == a.dates[50:]

    def test_identical_panels_concatenate(self):
        a = make_panel(np.arange(10.0), names=["x"])
        b = make_panel(np.arange(10.0) * 2, names=["y"])
        joined = align([a, b])
        assert joined.names == ("x", "y")
        np.testing.assert_array_equal(joined.matrix[:, 0] * 2, joined.matrix[:, 1])

    def test_disjoint_ranges(self):
        a = make_panel(np.arange(5.0))
        b = make_panel(np.arange(5.0), names=["t"], dates=monthly_dates(5, start_year=1950))
        with pytest.raises(NoOverlapError):
            align([a, b])

    def test_needs_two_panels(self):
        with pytest.raises(ValueError):
            align([make_panel(np.arange(5.0))])


class TestLogTransform:
    def test_known_values(self):
        panel = make_panel(np.array([np.e, 1.0]))
        logged = log_transform(panel)
        np.testing.assert_allclose(logged.matrix[:, 0], [1.0, 0.0], atol=1e-15)

    def test_names_suffixed(self):
        logged = log_transform(make_panel(np.ones(3), names=["px"]))
        assert logged.names == ("px_log",)

    def test_non_positive_reports_series_and_date(self):
        panel = make_panel(np.array([2.0, -1.5]), names=["px"])
        with pytest.raises(NonPositiveValueError) as info:
            log_transform(panel)
        assert str(info.value) == "series 'px' has non-positive value -1.5 at 2000-02-01"

    @pytest.mark.parametrize(
        "value, printed", [(0.0, "0.0"), (-0.0, "-0.0"), (-2.0, "-2.0"), (-1e-300, "-1e-300")]
    )
    def test_non_positive_value_prints_as_a_plain_float(self, value, printed):
        panel = make_panel(np.array([[2.0, 3.0], [4.0, value]]), names=["px", "qx"])
        with pytest.raises(NonPositiveValueError) as info:
            log_transform(panel)
        assert str(info.value) == f"series 'qx' has non-positive value {printed} at 2000-02-01"

    def test_exp_recovers_input(self):
        rng = np.random.default_rng(6)
        panel = make_panel(np.exp(rng.normal(size=(50, 2))))
        recovered = np.exp(log_transform(panel).matrix)
        np.testing.assert_allclose(recovered, panel.matrix, rtol=1e-12)


class TestFlatPanel:
    def test_matrix_is_one_read_only_array(self):
        panel = make_panel(np.arange(12.0).reshape(6, 2))
        assert panel.matrix is panel.matrix
        assert panel.matrix.flags.c_contiguous
        with pytest.raises(ValueError):
            panel.matrix[0, 0] = 9.0

    def test_constructor_copies_its_input(self):
        source = np.arange(12.0).reshape(6, 2)
        panel = Panel(("x", "y"), monthly_dates(6), source)
        source[0, 0] = 9.0
        assert panel.matrix[0, 0] == 0.0

    def test_window_is_a_view_on_the_parent_dates(self):
        panel = make_panel(np.arange(20.0).reshape(10, 2))
        piece = panel.window(3, 7)
        assert np.shares_memory(piece.matrix, panel.matrix)
        assert piece.dates == panel.dates[3:7]
        assert piece.names == panel.names
        with pytest.raises(ValueError):
            piece.matrix[0, 0] = 9.0

    def test_pickle_round_trip_stays_read_only(self):
        panel = make_panel(np.arange(12.0).reshape(6, 2), names=["x", "y"])
        copy = pickle.loads(pickle.dumps(panel))
        assert (copy.names, copy.dates) == (panel.names, panel.dates)
        np.testing.assert_array_equal(copy.matrix, panel.matrix)
        with pytest.raises(ValueError):
            copy.matrix[0, 0] = 9.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            make_panel(np.arange(20.0).reshape(10, 2)).window(4, 4)

    def test_series_are_the_columns(self):
        source = np.arange(12.0).reshape(6, 2)
        panel = make_panel(source, names=["x", "y"])
        assert panel.names == ("x", "y")
        y = panel.matrix[:, panel.names.index("y")]
        np.testing.assert_array_equal(y, source[:, 1])
        with pytest.raises(ValueError):
            y[0] = 9.0

    def test_panel_of_series_keeps_them(self):
        a, b = np.arange(3.0), np.arange(3.0) * 2
        panel = Panel(("a", "b"), monthly_dates(3), np.column_stack([a, b]))
        assert panel.names == ("a", "b")
        np.testing.assert_array_equal(panel.matrix, [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])

    def test_constructor_checks_dates_and_values(self):
        with pytest.raises(DuplicateDateError, match="'s0'.*2000-01-01"):
            make_panel(np.arange(4.0).reshape(2, 2), dates=(date(2000, 1, 1),) * 2)
        with pytest.raises(ValueError, match="'s1' holds non-finite"):
            make_panel(np.array([[1.0, 2.0], [3.0, np.inf]]))

    def test_log_transform_series_match_per_series_log(self):
        rng = np.random.default_rng(7)
        panel = make_panel(np.exp(rng.normal(size=(30, 3))))
        logged = log_transform(panel)
        assert logged.names == tuple(name + "_log" for name in panel.names)
        assert logged.dates == panel.dates
        for j in range(panel.m):
            assert np.log(panel.matrix[:, j]).tobytes() == logged.matrix[:, j].tobytes()

    @pytest.mark.parametrize("spec", list(TrendSpec))
    def test_decompose_panel_series_match_series_major_stack(self, spec):
        rng = np.random.default_rng(8)
        panel = make_panel(np.cumsum(rng.normal(size=(40, 3)), axis=0))
        decomposed = decompose_panel(panel, spec)
        g = np.stack([panel.matrix[:, j] for j in range(panel.m)])
        plus, minus = (_split(g, spec, side)[2] for side in (ShockSide.POSITIVE, ShockSide.NEGATIVE))
        sides = (("_pos", decomposed.plus_panel, plus), ("_neg", decomposed.minus_panel, minus))
        for suffix, side, expected in sides:
            assert side.names == tuple(name + suffix for name in panel.names)
            assert side.dates is panel.dates
            for j in range(side.m):
                assert side.matrix[:, j].tobytes() == expected[j].tobytes()
