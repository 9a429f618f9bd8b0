"""CSV ingest, both paths, against the row-at-a-time reference loader.

reference_load_csv is the loader as it was before ingest was blocked:
one (date, values) tuple per row, a missing check and a parse per cell.
load_csv must return a bit-identical matrix, the same dates and the same
dropped count, or raise the same exception type with the same message,
whatever the block size and whichever path reads each block: one
np.loadtxt pass per clean block, the row-blocked parser from the first
block that is not clean.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspill.panel as panel_module
from aspill.errors import (
    DuplicateDateError,
    MalformedCsvError,
    NoUsableRowsError,
    UnknownColumnError,
)
from aspill.panel import _cell_error, _is_missing, load_csv, parse_date

BLOCK_SIZES = (1, 2, 3, panel_module._BLOCK_ROWS)


def reference_load_csv(
    path: str | Path, date_column: str, value_columns: Sequence[str]
) -> tuple[np.ndarray, tuple[date, ...], int]:
    """(matrix, dates, dropped) read one row at a time."""
    path = Path(path)
    rows: list[tuple[date, list[float]]] = []
    dropped = 0
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise NoUsableRowsError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            positions: dict[str, int] = {}
            for column in [date_column, *value_columns]:
                if column not in header:
                    raise UnknownColumnError(f"{path}: column {column!r} not in header {header}")
                positions[column] = header.index(column)

            date_position = positions[date_column]
            value_positions = [positions[c] for c in value_columns]
            width = max(positions.values()) + 1
            for line in reader:
                if not line or all(not cell.strip() for cell in line):
                    continue
                if len(line) < width:
                    line += [""] * (width - len(line))
                cells = [line[i] for i in value_positions]
                if any(_is_missing(cell) for cell in cells):
                    dropped += 1
                    continue
                try:
                    when = parse_date(line[date_position])
                    values = [float(cell) for cell in cells]
                    parsed = all(map(math.isfinite, values))
                except ValueError:
                    parsed = False
                if not parsed:
                    raise _cell_error(
                        path, reader.line_num, date_column, line[date_position], value_columns, cells
                    )
                rows.append((when, values))
        except csv.Error as exc:
            raise MalformedCsvError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise MalformedCsvError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None

    if not rows:
        raise NoUsableRowsError(f"{path}: no usable rows (dropped {dropped})")
    rows.sort(key=lambda item: item[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DuplicateDateError(f"{path}: duplicate date {d1.isoformat()}")
    return np.array([item[1] for item in rows], dtype=float), tuple(item[0] for item in rows), dropped


def outcome(load, path: Path, columns: Sequence[str]):
    """What a loader makes of a file: its exact bits, or its exception."""
    try:
        result = load(path, "date", columns)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result[0], panel_module.Panel):
        panel, dropped = result
        matrix, dates = panel.matrix, panel.dates
    else:
        matrix, dates, dropped = result
    return matrix.shape, matrix.tobytes(), dates, dropped


@contextmanager
def block_rows(size: int):
    saved = panel_module._BLOCK_ROWS
    panel_module._BLOCK_ROWS = size
    try:
        yield
    finally:
        panel_module._BLOCK_ROWS = saved


@contextmanager
def field_size_limit(limit: int | None):
    if limit is None:
        yield
        return
    saved = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(saved)


DATES = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-02", "2019-12-31", " 2020-01-04 "]
CELLS = [
    *DATES,
    "2020-13-01", "0-1", "1.5", "-2e3", " 7 ", "-0.0", "1_000", "0x1",
    "inf", "-Infinity", "1e999", "nan", "-nan",
    "", ".", " NA ", "Null", "none", "#N/A", " NaN ", "NULL ",
    "abc", '"1,5"', '"1\n2"', '"2020-01-05\n"', '" \n "', '"4\r\n"',
]
cell = st.one_of(
    st.sampled_from(CELLS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Well-formed rows on mostly distinct dates, so that many files load and
# their matrices are compared.
clean_row = st.tuples(
    st.one_of(st.dates(date(1990, 1, 1), date(2030, 12, 31)).map(date.isoformat), st.sampled_from(DATES)),
    number,
    number,
).map(",".join)
messy_row = st.lists(cell, max_size=4).map(",".join)
blank_row = st.sampled_from(["", "  ", "\t", " , "])
line = st.one_of(*[clean_row] * 5, messy_row, blank_row)
header = st.sampled_from(["date,a,b", "date,a,b", "\ufeffdate,a,b", "date , b,a", "b,a"])


@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("block", BLOCK_SIZES)
@given(
    head=header,
    lines=st.lists(line, min_size=1, max_size=16),
    newline=st.sampled_from(["\n", "\r\n"]),
    bad_byte=st.sampled_from([None, None, None, 0, 37, 150]),
    limit=st.sampled_from([None, None, None, 24]),
)
def test_blocked_loader_matches_reference(block, head, lines, newline, bad_byte, limit, tmp_path_factory):
    data = newline.join([head, *lines]).encode("utf-8")
    data = data[:bad_byte] + b"\xff" + data[bad_byte:] if bad_byte is not None else data
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    with field_size_limit(limit):
        expected = outcome(reference_load_csv, path, ["a", "b"])
        with block_rows(block):
            assert outcome(load_csv, path, ["a", "b"]) == expected


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_bad_cell_reported_before_later_csv_error(block, tmp_path):
    broken = "2020-01-03," + "1" * (csv.field_size_limit() + 1)
    later = tmp_path / "later.csv"
    later.write_text(f"date,a\n2020-01-01,1\n{broken}\n", encoding="utf-8")
    path = tmp_path / "data.csv"
    path.write_text(f"date,a\n2020-01-01,1\n2020-01-02,abc\n{broken}\n", encoding="utf-8")
    with block_rows(block):
        with pytest.raises(MalformedCsvError, match=r"row 3: field larger than field limit"):
            load_csv(later, "date", ["a"])
        with pytest.raises(MalformedCsvError) as info:
            load_csv(path, "date", ["a"])
    assert str(info.value) == f"{path}: row 3, column 'a': cannot read 'abc' as a finite number"


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_row_with_missing_value_and_bad_date_is_dropped(block, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("date,a,b\n2020-01-01,1,2\nnot-a-date,,3\n2020-01-03,4,5\n", encoding="utf-8")
    with block_rows(block):
        panel, dropped = load_csv(path, "date", ["a", "b"])
    assert dropped == 1
    assert panel.dates == (date(2020, 1, 1), date(2020, 1, 3))
    np.testing.assert_array_equal(panel.matrix, [[1.0, 2.0], [4.0, 5.0]])


# Clean files: every row a date and finite numbers, in any column order,
# with unselected text columns, quoting and padding the csv module and
# float() both accept. np.loadtxt reads those without a quote.
pad = st.sampled_from(["", "", " ", "  ", "\t", "\xa0"])
quoted = st.sampled_from(["", "", '"'])


@st.composite
def clean_cell(draw, text):
    inner = draw(pad) + text + draw(pad)
    quote = draw(quoted)
    return quote + inner + quote


number_text = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:e}", f"{x:+.3f}"])
)
date_text = st.one_of(
    st.dates(date(1990, 1, 1), date(2030, 12, 31)).map(date.isoformat),
    st.dates(date(1990, 1, 1), date(2030, 12, 31)).map(lambda d: d.isoformat()[:7]),
    # A small pool, so that duplicate dates come up.
    st.sampled_from(DATES[:3]),
)
# A note may read as missing: only the selected cells decide whether a
# block is clean (see test_missing_cell_reparses_only_its_block).
note_text = st.one_of(
    st.text(st.characters(whitelist_categories=("L", "N", "Zs")), max_size=6),
    st.sampled_from(['"x,y"', '"say ""hi"""', '"two\nlines"', "#", "#n/ab", "nana", "n", "NA", "."]),
)


@st.composite
def clean_file(draw):
    order = draw(st.permutations(["date", "a", "b", "note"]))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = {
            "date": draw(clean_cell(draw(date_text))),
            "a": draw(clean_cell(draw(number_text))),
            "b": draw(clean_cell(draw(number_text))),
            "note": draw(note_text),
        }
        rows.append(",".join(cells[c] for c in order))
        if draw(st.integers(0, 9)) == 0:
            rows.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(["", newline]))
    # A quoted header cell may span lines; the data start after them.
    header = ",".join(order).replace("note", draw(st.sampled_from(["note", '"no\nte"', '"no\r\nte"'])))
    return (bom + newline.join([header, *rows]) + end).encode("utf-8")


def row_blocks_unused(reader):
    raise AssertionError("the row-blocked parser read a clean file")


@settings(max_examples=300, deadline=None)
@given(data=clean_file(), columns=st.sampled_from([["a", "b"], ["b", "a"], ["b"]]))
def test_clean_file_takes_loadtxt_path_and_matches_reference(data, columns, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    expected = outcome(reference_load_csv, path, columns)
    saved = panel_module._row_blocks
    # From the first block holding a quote, the row-blocked parser reads the rest.
    if b'"' not in data:
        panel_module._row_blocks = row_blocks_unused
    try:
        assert outcome(load_csv, path, columns) == expected
    finally:
        panel_module._row_blocks = saved


def test_only_dirty_files_reach_row_blocked_parser(tmp_path, monkeypatch):
    calls = []
    original = panel_module._row_blocks

    def counting(reader):
        calls.append(reader)
        return original(reader)

    monkeypatch.setattr(panel_module, "_row_blocks", counting)
    clean = tmp_path / "clean.csv"
    clean.write_text("date,a,b\n2020-01-02,3,4\n2020-01-01,1,2\n", encoding="utf-8")
    panel, dropped = load_csv(clean, "date", ["a", "b"])
    assert calls == [] and dropped == 0
    np.testing.assert_array_equal(panel.matrix, [[1.0, 2.0], [3.0, 4.0]])

    dirty = tmp_path / "dirty.csv"
    dirty.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,.,4\n2020-01-03,5,\n2020-01-04,7,8\n", encoding="utf-8")
    panel, dropped = load_csv(dirty, "date", ["a", "b"])
    assert len(calls) == 1 and dropped == 2
    assert panel.dates == (date(2020, 1, 1), date(2020, 1, 4))
    assert outcome(load_csv, dirty, ["a", "b"]) == outcome(reference_load_csv, dirty, ["a", "b"])


@pytest.mark.parametrize(
    "row", ["2020-01-02, NaN ", "2020-01-02,inf", "2020-01-02,-1e999", "2020-13-01,3", "2020,3"]
)
def test_file_loadtxt_parses_but_not_clean_matches_reference(row, tmp_path):
    # np.loadtxt reads every cell of these files, and the non-finite value
    # or the date sends their block on to the row-blocked parser.
    path = tmp_path / "data.csv"
    path.write_text(f"date,a\n2020-01-01,1\n{row}\n2020-01-03,4\n", encoding="utf-8")
    assert outcome(load_csv, path, ["a"]) == outcome(reference_load_csv, path, ["a"])


@pytest.mark.parametrize("text", ["date,a\n", "date,a","date,a\n\n\n", "\ufeffdate,a\r\n\r\n"])
def test_header_only_file_has_no_usable_rows_and_no_warning(text, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoUsableRowsError, match="no usable rows"):
            load_csv(path, "date", ["a"])


@pytest.mark.parametrize(
    "row",
    [
        # float() does not strip 0x1c-0x1f; np.loadtxt's parser does.
        "2020-01-02,\x1c3",
        "2020-01-02,3\x1f",
        # A field longer than csv.field_size_limit(), unselected.
        "2020-01-02,3," + "x" * 40,
        '2020-01-02,3,"' + "x" * 40 + '"',
        '2020-01-02,3,"' + "x\n" * 20 + '"',
    ],
)
def test_file_the_csv_module_rejects_keeps_its_error(row, tmp_path):
    path = tmp_path / "data.csv"
    lines = ["date,a,note", *[f"2019-12-{d:02d},1,ok" for d in range(1, 29)], row, "2020-01-03,4,ok"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with field_size_limit(32):
        expected = outcome(reference_load_csv, path, ["a"])
        assert expected[0] is MalformedCsvError
        assert outcome(load_csv, path, ["a"]) == expected


def record_loadtxt(monkeypatch) -> list[list[str]]:
    """The lines each np.loadtxt call is given, in call order."""
    calls: list[list[str]] = []
    original = np.loadtxt

    def recording(lines, *args, **kwargs):
        calls.append(list(lines))
        return original(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    return calls


def record_parse_block(monkeypatch) -> list[list[int]]:
    """The lines of the rows each _parse_block call sees, in call order."""
    calls: list[list[int]] = []
    original = panel_module._parse_block

    def recording(path, rows, ends, *args):
        calls.append(list(ends))
        return original(path, rows, ends, *args)

    monkeypatch.setattr(panel_module, "_parse_block", recording)
    return calls


def monthly_file(path: Path, cells: dict[str, str | None], end: str = "\n", month: int = 12) -> list[str]:
    """Twelve monthly rows on lines 2-13 of date,a,b,note, and the file's lines.

    cells replaces cells of the given month's row; None cuts them.
    """
    rows = [{"date": f"2020-{i:02d}", "a": str(i), "b": "0.5", "note": "ok"} for i in range(1, 13)]
    rows[month - 1].update(cells)
    lines = ["date,a,b,note", *[",".join(v for v in row.values() if v is not None) for row in rows]]
    data = (end or "\n").join(lines).encode() + end.encode()
    path.write_bytes(data)
    return io.StringIO(data.decode(), newline="").readlines()


@pytest.mark.parametrize("cell", ["", ".", "NA", "nan", "NaN", "#N/A", "null", "None"])
@pytest.mark.parametrize("where", ["a", "b", "note"])
@pytest.mark.parametrize("end", ["\n", "\r\n", ""])
def test_missing_cell_reparses_only_its_block(cell, where, end, tmp_path, monkeypatch):
    # The blocks before it stay with np.loadtxt, so the row-blocked parser
    # reads only rows 9-12; a missing cell in an unselected column costs
    # it nothing.
    path = tmp_path / "data.csv"
    monthly_file(path, {where: cell}, end)
    expected = outcome(reference_load_csv, path, ["a", "b"])
    calls = record_parse_block(monkeypatch)
    with block_rows(4):
        assert outcome(load_csv, path, ["a", "b"]) == expected
    assert calls == ([] if where == "note" else [[10, 11, 12, 13]])


@pytest.mark.parametrize(
    "last",
    [{"b": None, "note": None}, {"a": " NA "}, {"b": "\tna"}, {"a": "abc"}],
    ids=["short-row", "padded-NA", "tab-na", "bad-cell"],
)
def test_late_row_loadtxt_rejects_reparses_only_its_block(last, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    monthly_file(path, last)
    expected = outcome(reference_load_csv, path, ["a", "b"])
    calls = record_parse_block(monkeypatch)
    with block_rows(4):
        assert outcome(load_csv, path, ["a", "b"]) == expected
    assert calls == [[10, 11, 12, 13]]


@pytest.mark.parametrize(
    "cells, loadtxt_reads",
    [({"b": ""}, 1), ({"b": "."}, 1), ({"b": "NA"}, 1), ({"note": "ok\x1c"}, 0)],
    ids=["empty", "dot", "NA", "unselected-0x1c"],
)
def test_early_dirty_block_hands_the_rest_to_the_row_blocked_parser(cells, loadtxt_reads, tmp_path, monkeypatch):
    # np.loadtxt rejects the first block, or never sees it for the 0x1c,
    # and the row-blocked parser reads that block and the rest.
    path = tmp_path / "data.csv"
    lines = monthly_file(path, cells, month=2)
    expected = outcome(reference_load_csv, path, ["a", "b"])
    loadtxt_calls = record_loadtxt(monkeypatch)
    calls = record_parse_block(monkeypatch)
    with block_rows(4):
        assert outcome(load_csv, path, ["a", "b"]) == expected
    assert loadtxt_calls == [lines[1:5]][:loadtxt_reads]
    assert calls == [[2, 3, 4, 5], [6, 7, 8, 9], [10, 11, 12, 13]]


@pytest.mark.parametrize(
    "last, ends",
    [
        ({"a": "\x1c12"}, [10, 11, 12, 13]),
        ({"note": "ok\x1c"}, [10, 11, 12, 13]),
        # The csv module raises on the long field before yielding its row.
        ({"note": "x" * 40}, [10, 11, 12]),
        ({"note": "y," * 20}, [10, 11, 12, 13]),
    ],
    ids=["selected-0x1c", "unselected-0x1c", "long-field", "long-line"],
)
def test_late_control_byte_or_long_line_reparses_only_its_block(last, ends, tmp_path, monkeypatch):
    # np.loadtxt would strip the 0x1c and read the field over the limit;
    # a long line of short fields is the csv module's too, and loads.
    path = tmp_path / "data.csv"
    lines = monthly_file(path, last)
    loadtxt_calls = record_loadtxt(monkeypatch)
    calls = record_parse_block(monkeypatch)
    with field_size_limit(32):
        expected = outcome(reference_load_csv, path, ["a", "b"])
        with block_rows(4):
            assert outcome(load_csv, path, ["a", "b"]) == expected
    assert loadtxt_calls == [lines[1:5], lines[5:9]]
    assert calls == [ends]


def test_load_csv_opens_its_input_once(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    monthly_file(path, {})
    opened = []
    original = Path.open

    def counting(self, *args, **kwargs):
        opened.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    load_csv(path, "date", ["a", "b"])
    assert opened == [path]


@pytest.mark.parametrize(
    "month, cells, clean_blocks, ends",
    [
        (12, {"a": '"NA"'}, 2, [[10, 11, 12, 13]]),
        (12, {"note": '"two\nlines"'}, 2, [[10, 11, 12, 14]]),
        (12, {"note": '"two\nlines"', "a": "abc"}, 2, [[10, 11, 12, 14]]),
        (6, {"note": '"ok"'}, 1, [[6, 7, 8, 9], [10, 11, 12, 13]]),
        (1, {"note": '"ok"'}, 0, [[2, 3, 4, 5], [6, 7, 8, 9], [10, 11, 12, 13]]),
    ],
    ids=["quoted-NA", "note-across-blocks", "bad-cell-after-note", "middle-block", "first-block"],
)
def test_block_holding_a_quote_hands_the_rest_to_the_row_blocked_parser(
    month, cells, clean_blocks, ends, tmp_path, monkeypatch
):
    # A block boundary could cut a quoted field; under block_rows(4) the
    # note's second line starts a block of its own. The blocks before the
    # quote's block stay with np.loadtxt.
    path = tmp_path / "data.csv"
    lines = monthly_file(path, cells, month=month)
    expected = outcome(reference_load_csv, path, ["a", "b"])
    loadtxt_calls = record_loadtxt(monkeypatch)
    calls = record_parse_block(monkeypatch)
    with block_rows(4):
        assert outcome(load_csv, path, ["a", "b"]) == expected
    assert loadtxt_calls == [lines[1:5], lines[5:9]][:clean_blocks]
    assert calls == ends


@pytest.mark.parametrize("cell", [".5", "nana", "Nan1", "#n/ab", "nul", "n"])
def test_cell_starting_like_a_missing_token_keeps_loadtxt_path(cell, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text(f"date,a,note\n2020-01-01,1,ok\n2020-01-02,3,{cell}\n", encoding="utf-8")
    expected = outcome(reference_load_csv, path, ["a"])
    monkeypatch.setattr(panel_module, "_row_blocks", row_blocks_unused)
    assert outcome(load_csv, path, ["a"]) == expected


@pytest.mark.parametrize(
    "bad_bytes", [(300, b"some", b"s\xffme"), (399, b"text", b"text\xe2")], ids=["row-300", "cut-at-end"]
)
@pytest.mark.parametrize("cell", ["1", "", "abc"], ids=["clean", "missing", "bad"])
def test_rows_before_a_late_decode_error_are_read_first(cell, bad_bytes, tmp_path):
    # The text layer decodes 8 KiB at a time, so a byte that is not UTF-8
    # in row 300, or a character cut short at the end, is met after the
    # first lines are read. Those rows are still parsed, and a bad cell
    # in row 50 is the error reported.
    rows = [f"{date(2000, 1, 1) + timedelta(days=i)},{i}.25,{i}.5,some unselected text".encode() for i in range(400)]
    rows[50] = rows[50].replace(b",50.25,", f",{cell},".encode())
    row, old, new = bad_bytes
    rows[row] = rows[row].replace(old, new)
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join([b"date,a,b,note", *rows]))
    expected = outcome(reference_load_csv, path, ["a", "b"])
    assert expected[0] is MalformedCsvError and ("UTF-8" in expected[1]) == (cell != "abc")
    assert outcome(load_csv, path, ["a", "b"]) == expected


def sized_rows_file(path: Path, header: str, row: int = 1, old: bytes = b"", new: bytes = b"") -> int:
    """A file of 32-byte rows, row 400 holding a byte that is not UTF-8; new replaces old in row.

    Returns how many lines the text layer gives before the decode error:
    it decodes in chunks, so those are the lines of its first chunk.
    """
    rows = [f"{date(2000, 1, 1) + timedelta(days=i)},{i % 10}.25,0.5,unused text".encode() for i in range(1, 1000)]
    rows[row - 1] = rows[row - 1].replace(old, new)
    rows[399] = rows[399].replace(b"used", b"us\xffd")
    assert {len(line) for line in rows} == {31}
    path.write_bytes(b"\n".join([header.encode(), *rows]))
    count = 0
    with path.open(newline="", encoding="utf-8-sig") as handle:
        with pytest.raises(UnicodeDecodeError):
            for _ in handle:
                count += 1
    return count


@pytest.mark.parametrize(
    "old, new, error",
    [(b",0.5,", b",x.5,", "column 'b': cannot read 'x.5'"), (b"unused text", b'"nused tex"', "not UTF-8")],
    ids=["bad-cell", "quoted-note"],
)
def test_rows_a_decode_error_cuts_short_are_parsed_before_it(old, new, error, tmp_path, monkeypatch):
    # The lines the text layer gives before the decode error end part way
    # through a block. That part is parsed first: its bad cell is the
    # error reported, and a quote in it hands the csv module the rest of
    # the file, whose first read is the decode error.
    path = tmp_path / "data.csv"
    count = sized_rows_file(path, "date,a,b,note")
    # The chunks hold whole rows, 255 data rows in the first 8 KiB.
    assert (count - 1) % 4 == 3
    first = count - 3
    sized_rows_file(path, "date,a,b,note", first, old, new)
    expected = outcome(reference_load_csv, path, ["a", "b"])
    assert expected[0] is MalformedCsvError and error in expected[1]
    calls = record_parse_block(monkeypatch)
    with block_rows(4):
        assert outcome(load_csv, path, ["a", "b"]) == expected
    assert calls == [[first + 1, first + 2, first + 3]]


def test_decode_error_at_the_first_line_of_a_block_parses_no_empty_block(tmp_path, monkeypatch):
    # A 128-byte header leaves a whole number of 4-row blocks before the
    # decode error.
    path = tmp_path / "data.csv"
    count = sized_rows_file(path, "date,a,b,note," + "x" * 113)
    assert (count - 1) % 4 == 0
    expected = outcome(reference_load_csv, path, ["a", "b"])
    assert expected[0] is MalformedCsvError and "UTF-8" in expected[1]
    loadtxt_calls = record_loadtxt(monkeypatch)
    calls = record_parse_block(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with block_rows(4):
            assert outcome(load_csv, path, ["a", "b"]) == expected
    assert len(loadtxt_calls) == (count - 1) // 4 and all(loadtxt_calls)
    assert calls == []


@pytest.mark.parametrize("missing", [False, True], ids=["clean", "dirty"])
def test_selected_column_named_twice_in_the_header_is_an_error(missing, tmp_path, monkeypatch):
    # Both ingest paths read the header's one lookup: a clean file never
    # reaches the row-blocked parser, and a file with a missing cell does.
    path = tmp_path / "data.csv"
    second = "." if missing else "4"
    path.write_text(f"date,a,a,b\n2020-01-01,1,2,3\n2020-01-02,{second},5,6\n", encoding="utf-8")
    if not missing:
        monkeypatch.setattr(panel_module, "_row_blocks", row_blocks_unused)
    with pytest.raises(MalformedCsvError) as info:
        load_csv(path, "date", ["b", "a"])
    assert str(info.value) == f"{path}: column 'a' is named twice in header ['date', 'a', 'a', 'b']"
    # A column the load does not select may be named twice.
    panel, dropped = load_csv(path, "date", ["b"])
    assert dropped == 0
    np.testing.assert_array_equal(panel.matrix, [[3.0], [6.0]])
