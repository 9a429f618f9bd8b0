"""Aligned multivariate time-series panels and their CSV ingestion.

A Panel is a set of named series of finite floats sharing one date
index, held as one read-only (T, m) matrix; a single series is a
one-column panel. Dates are compared as calendar dates, never as raw
strings, and month-resolution inputs ("2001-07") are normalized to the
first of the month.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice
from operator import itemgetter, lt
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import (
    ConfigError,
    DuplicateDateError,
    MalformedCsvError,
    NonPositiveValueError,
    NoOverlapError,
    NoUsableRowsError,
    UnknownColumnError,
)

# Strings treated as a missing observation in CSV cells.
_MISSING_TOKENS = {"", ".", "na", "nan", "null", "none", "#n/a"}

# Lines per np.loadtxt block, and non-blank CSV rows per row-blocked one.
# It bounds the text held at once, so ingest memory is the float matrix
# plus one block of text; the heap that text leaves behind also stays
# under the fits that follow. Each block's fixed cost is small next to
# 512 rows of parsing.
_BLOCK_ROWS = 512

# Characters that keep a block off the np.loadtxt path; see _load_clean.
_CSV_ONLY_CHARS = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")

# The day and month forms parse_date accepts: ASCII digits only, so that
# neither an interpreter's wider date.fromisoformat grammar nor int()'s
# signs, underscores and non-ASCII digits leak in.
_ISO_DAY = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)
_ISO_MONTH = re.compile(r"(\d{4})-(\d{2})", re.ASCII)


def parse_date(text: str) -> date:
    """Parse an ISO date, accepting YYYY-MM-DD or month-resolution YYYY-MM.

    Raises:
        ValueError: the text is not such a date.
    """
    raw = text.strip()
    if _ISO_DAY.fullmatch(raw):
        return date.fromisoformat(raw)
    month = _ISO_MONTH.fullmatch(raw)
    if month:
        return date(int(month[1]), int(month[2]), 1)
    raise ValueError(f"not a YYYY-MM-DD or YYYY-MM date: {text!r}")


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _cell_error(
    path: Path, row: int, date_column: str, date_cell: str, columns: Sequence[str], cells: list[str]
) -> MalformedCsvError:
    """The error naming the first cell of a row that is not a date or a finite number."""
    try:
        parse_date(date_cell)
    except ValueError:
        return MalformedCsvError(
            f"{path}: row {row}, column {date_column!r}: cannot read {date_cell!r} as a date"
        )
    column, cell = next((c, cell) for c, cell in zip(columns, cells) if not _is_finite_number(cell))
    return MalformedCsvError(
        f"{path}: row {row}, column {column!r}: cannot read {cell!r} as a finite number"
    )


def _check_dates(name: str, dates: Sequence[date]) -> None:
    """Raise DuplicateDateError unless the dates strictly increase."""
    if all(map(lt, dates, islice(dates, 1, None))):
        return
    cur = next(cur for prev, cur in zip(dates, dates[1:]) if cur <= prev)
    raise DuplicateDateError(f"series {name!r}: dates not strictly increasing at {cur.isoformat()}")


@dataclass(frozen=True, eq=False, init=False)
class Panel:
    """Named series sharing one date index; the unit every estimator consumes.

    Column j of the read-only, C-contiguous (T, m) matrix is the series
    names[j], and row i holds the observations dated dates[i]. Dates are
    checked once, where a panel is built from outside data; windows,
    transforms and joins share a checked panel's dates without checking
    them again.
    """

    names: tuple[str, ...]
    dates: tuple[date, ...]
    matrix: np.ndarray

    def __init__(self, names: Sequence[str], dates: Sequence[date], matrix: np.ndarray) -> None:
        """Copy a (T, m) matrix as floats: column j is names[j], row i is dated dates[i].

        Raises:
            DuplicateDateError: the dates do not strictly increase.
            ValueError: the shape does not match names and dates, or a
                value is not finite.
        """
        names, dates = tuple(names), tuple(dates)
        if not names:
            raise ValueError("panel needs at least one series")
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise ValueError(f"matrix shape {matrix.shape} does not match {len(names)} names")
        if len(dates) != matrix.shape[0]:
            raise ValueError(f"series {names[0]!r}: {len(dates)} dates vs {matrix.shape[0]} values")
        _check_dates(names[0], dates)
        self._assign(names, dates, matrix)

    @classmethod
    def _on_checked_dates(
        cls, names: Sequence[str], dates: tuple[date, ...], matrix: np.ndarray
    ) -> "Panel":
        """A panel on dates known to strictly increase; it takes ownership of matrix."""
        panel = object.__new__(cls)
        panel._assign(tuple(names), dates, matrix)
        return panel

    def _assign(self, names: tuple[str, ...], dates: tuple[date, ...], matrix: np.ndarray) -> None:
        if matrix.shape[0] == 0:
            raise ValueError("panel needs at least one date")
        # The whole-matrix test is the fast one; the column is found on failure only.
        if not np.isfinite(matrix).all():
            finite = np.isfinite(matrix).all(axis=0)
            raise ValueError(f"series {names[int(np.argmin(finite))]!r} holds non-finite values")
        matrix = np.ascontiguousarray(matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "matrix", matrix)

    def __reduce__(self) -> tuple:
        # A pickled array comes back writeable; rebuilding makes it read-only again.
        return (Panel._on_checked_dates, (self.names, self.dates, self.matrix))

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def window(self, start: int, stop: int) -> "Panel":
        """Row slice [start, stop) as a new Panel sharing this panel's matrix."""
        return Panel._on_checked_dates(self.names, self.dates[start:stop], self.matrix[start:stop])


def check_columns(date_column: str | None, value_columns: Sequence[str]) -> None:
    """Raise ConfigError unless value columns are named, each once, none as the date column."""
    if not value_columns:
        raise ConfigError("at least one value column must be named")
    seen: set[str] = set()
    for column in value_columns:
        if column == date_column:
            raise ConfigError(f"column {column!r} is the date column; it cannot also be a value column")
        if column in seen:
            raise ConfigError(f"column {column!r} is named twice")
        seen.add(column)


def _row_blocks(reader: Any) -> Iterator[tuple[list[list[str]], list[int]]]:
    """Blocks of up to _BLOCK_ROWS non-blank rows, with the line each row ends on.

    A csv.Error or UnicodeDecodeError is raised only after the rows read
    before it are yielded, so that a bad cell in an earlier row is the
    one reported.
    """
    rows: list[list[str]] = []
    ends: list[int] = []
    try:
        for line in reader:
            if "".join(line).strip():
                rows.append(line)
                ends.append(reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    yield rows, ends
                    rows, ends = [], []
    except (csv.Error, UnicodeDecodeError):
        if rows:
            yield rows, ends
        raise
    if rows:
        yield rows, ends


def _line_blocks(lines: Iterator[str]) -> Iterator[list[str]]:
    """Lists of up to _BLOCK_ROWS lines.

    A UnicodeDecodeError is raised only after the lines read before it
    are yielded: list.extend keeps what it took before the error.
    """
    while True:
        block: list[str] = []
        try:
            block.extend(islice(lines, _BLOCK_ROWS))
        except UnicodeDecodeError:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def _load_clean(
    lines: list[str], date_position: int, value_positions: list[int]
) -> tuple[list[date], np.ndarray] | None:
    """Dates and (n, m) values of a block of lines that are all clean, or None.

    One np.loadtxt pass parses the lines in C. A block is clean when every
    selected value parses as a finite float and every date parses; any
    other gives None and is left to the row-blocked parser, which drops
    rows and reports errors. Floats are parsed by the same routine as
    float(), so a clean block's values are the row-blocked parser's to
    the bit. Nor is a block clean that holds a quote, which can make a
    field span lines; 0x1c-0x1f, which np.loadtxt strips around a number
    and float() does not; NUL, which the csv module rejects before Python
    3.11; or a line over csv.field_size_limit(), which np.loadtxt ignores.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if any(char in text for char in _CSV_ONLY_CHARS) or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    m = len(value_positions)
    dtype = np.dtype([("date", object), *[(f"v{j}", float) for j in range(m)]])
    try:
        with warnings.catch_warnings():
            # A block of blank lines is clean and holds no rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                lines,
                dtype=dtype,
                delimiter=",",
                comments=None,
                usecols=[date_position, *value_positions],
                ndmin=1,
            )
    except ValueError:
        return None
    values = np.empty((len(table), m))
    for j in range(m):
        values[:, j] = table[f"v{j}"]
    if not np.isfinite(values).all():
        return None
    try:
        dates = list(map(parse_date, table["date"]))
    except ValueError:
        return None
    return dates, values


def _floats(cells: list[str]) -> list[float]:
    """float() of every cell, NaN where it raises.

    map(float) runs in C; Python code runs once per failing cell only.
    list.extend keeps what it appended before the failure, and the
    iterator resumes after the failing cell.
    """
    out: list[float] = []
    remaining = iter(cells)
    while True:
        try:
            out.extend(map(float, remaining))
            return out
        except ValueError:
            out.append(math.nan)


def _parse_block(
    path: Path,
    rows: list[list[str]],
    ends: list[int],
    date_column: str,
    value_columns: Sequence[str],
    date_position: int,
    value_positions: list[int],
) -> tuple[list[date], np.ndarray, int]:
    """Dates, (n, m) values and dropped-row count of one block of rows.

    Only rows holding a non-finite or unreadable value are inspected one
    at a time: a missing cell drops the row, anything else raises. Dates
    are parsed for kept rows only. Of the rows that raise, the first in
    file order is reported.
    """
    width = max([date_position, *value_positions]) + 1
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    date_cells = list(map(itemgetter(date_position), rows))
    value_cells = [list(map(itemgetter(p), rows)) for p in value_positions]
    values = np.empty((len(rows), len(value_cells)))
    for j, cells in enumerate(value_cells):
        values[:, j] = _floats(cells)

    keep = np.isfinite(values).all(axis=1)
    bad: int | None = None
    dropped = 0
    for i in np.flatnonzero(~keep):
        if not any(_is_missing(cells[i]) for cells in value_cells):
            bad = int(i)
            break
        dropped += 1
    kept = np.flatnonzero(keep[:bad])
    all_kept = kept.size == len(rows)
    kept_cells = date_cells if all_kept else [date_cells[i] for i in kept]
    dates: list[date] = []
    try:
        dates.extend(map(parse_date, kept_cells))
    except ValueError:
        bad = int(kept[len(dates)])
    if bad is not None:
        raise _cell_error(
            path,
            ends[bad],
            date_column,
            date_cells[bad],
            value_columns,
            [cells[bad] for cells in value_cells],
        )
    return dates, values if all_kept else values[kept], dropped


def load_csv(path: str | Path, date_column: str, value_columns: Sequence[str]) -> tuple[Panel, int]:
    """Read selected columns of a CSV file into a date-sorted Panel.

    Rows where any selected value is missing are dropped; the count of
    dropped rows is returned alongside the panel. The file is read once,
    _BLOCK_ROWS lines at a time, each block in one np.loadtxt pass while
    every row holds a date and finite numbers. From the first block that
    does not, the csv module reads the rest in blocks of _BLOCK_ROWS rows,
    each converted column by column, which drop rows and name bad cells.

    Raises:
        ConfigError: a value column is named twice or is the date column, or none is.
        OSError: the file cannot be opened, as FileNotFoundError or
            IsADirectoryError.
        UnknownColumnError: a named column is absent from the header.
        MalformedCsvError: the header names a selected column twice, the
            file is not UTF-8 CSV text, or a kept row has a date or value
            cell that does not parse; the message names the file, the
            1-based row and the column.
        DuplicateDateError: the same date occurs twice.
        NoUsableRowsError: every row had a missing value.
    """
    check_columns(date_column, value_columns)
    path = Path(path)
    dates: list[date] = []
    blocks: list[np.ndarray] = []
    dropped = 0
    # Lines read before the first line of the current csv reader.
    read = 0
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
                if header.count(column) > 1:
                    raise MalformedCsvError(f"{path}: column {column!r} is named twice in header {header}")
                positions[column] = header.index(column)

            date_position = positions[date_column]
            value_positions = [positions[c] for c in value_columns]
            read = reader.line_num
            # No name keeps a parsed block: the loop ends on None, the chain alone
            # holds a rejected block, and each block of rows lives in the generator.
            line_blocks = _line_blocks(handle)
            while lines := next(line_blocks, None):
                clean = _load_clean(lines, date_position, value_positions)
                if clean is None:
                    reader = csv.reader(chain(lines, chain.from_iterable(line_blocks)))
                    del lines
                    parsed = (
                        _parse_block(path, rows, [read + end for end in ends], date_column,
                                     value_columns, date_position, value_positions)
                        for rows, ends in _row_blocks(reader)
                    )
                    for block_dates, block, block_dropped in parsed:
                        dates += block_dates
                        blocks.append(block)
                        dropped += block_dropped
                    break
                dates += clean[0]
                blocks.append(clean[1])
                read += len(lines)
        except csv.Error as exc:
            raise MalformedCsvError(f"{path}: row {read + reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise MalformedCsvError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None

    if not dates:
        raise NoUsableRowsError(f"{path}: no usable rows (dropped {dropped})")
    matrix = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks  # so that the sort and Panel's checks run beside one copy of the values
    if not all(map(lt, dates, islice(dates, 1, None))):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[i] for i in order]
        matrix = matrix[order]
        for d1, d2 in zip(dates, dates[1:]):
            if d1 == d2:
                raise DuplicateDateError(f"{path}: duplicate date {d1.isoformat()}")
    return Panel._on_checked_dates(value_columns, tuple(dates), matrix), dropped


def write_csv(panel: Panel, path: str | Path, date_column: str = "date") -> None:
    """Write a panel as CSV with full-precision (round-trippable) floats."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([date_column, *panel.names])
    matrix = panel.matrix
    for i, when in enumerate(panel.dates):
        writer.writerow([when.isoformat(), *[repr(float(v)) for v in matrix[i]]])
    write_atomic(path, buffer.getvalue())


def align(panels: Iterable[Panel]) -> Panel:
    """Inner-join panels on dates, keeping every series on the common dates."""
    panels = list(panels)
    if len(panels) < 2:
        raise ValueError("align needs at least two panels")
    common = set(panels[0].dates)
    for panel in panels[1:]:
        common &= set(panel.dates)
    if not common:
        raise NoOverlapError("panels share no dates")
    keep = tuple(sorted(common))
    columns = []
    for panel in panels:
        index = {d: i for i, d in enumerate(panel.dates)}
        columns.append(panel.matrix[[index[d] for d in keep]])
    names = tuple(name for panel in panels for name in panel.names)
    return Panel._on_checked_dates(names, keep, np.concatenate(columns, axis=1))


def log_transform(panel: Panel) -> Panel:
    """Replace every value by its natural log; series names get a _log suffix."""
    matrix = panel.matrix
    bad = matrix <= 0.0
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        i = int(np.argmax(bad[:, j]))
        raise NonPositiveValueError(
            f"series {panel.names[j]!r} has non-positive value {float(matrix[i, j])!r} "
            f"at {panel.dates[i].isoformat()}"
        )
    names = tuple(name + "_log" for name in panel.names)
    return Panel._on_checked_dates(names, panel.dates, np.log(matrix))
