"""Aligned multivariate time-series panels and their CSV ingestion.

A Series is one named, date-indexed column of finite floats; a Panel is a
set of Series sharing one date index. Dates are compared as calendar
dates, never as raw strings, and month-resolution inputs ("2001-07") are
normalized to the first of the month.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import (
    DuplicateDateError,
    MalformedCsvError,
    NonPositiveValueError,
    NoOverlapError,
    NoUsableRowsError,
    UnknownColumnError,
)

# Strings treated as a missing observation in CSV cells.
_MISSING_TOKENS = {"", ".", "na", "nan", "null", "none", "#n/a"}


def parse_date(text: str) -> date:
    """Parse an ISO date, accepting YYYY-MM-DD or month-resolution YYYY-MM.

    Raises:
        ValueError: the text is not such a date.
    """
    raw = text.strip()
    parts = raw.split("-")
    try:
        if len(parts) == 2:
            return date(int(parts[0]), int(parts[1]), 1)
        return date.fromisoformat(raw)
    except OverflowError:
        raise ValueError(f"date out of range: {text!r}") from None


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


@dataclass(frozen=True, eq=False)
class Series:
    """One named series of finite values on strictly increasing dates."""

    name: str
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"series {self.name!r} must hold a non-empty 1-D value array")
        if len(self.dates) != values.size:
            raise ValueError(f"series {self.name!r}: {len(self.dates)} dates vs {values.size} values")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"series {self.name!r} holds non-finite values")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DuplicateDateError(
                    f"series {self.name!r}: dates not strictly increasing at {cur.isoformat()}"
                )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def rename(self, name: str) -> "Series":
        return Series(name, self.dates, self.values.copy())


@dataclass(frozen=True, eq=False)
class Panel:
    """Series sharing identical dates; the unit every estimator consumes."""

    series: tuple[Series, ...]

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("panel needs at least one series")
        ref = self.series[0].dates
        for s in self.series[1:]:
            if s.dates != ref:
                raise ValueError(f"series {s.name!r} is not aligned with {self.series[0].name!r}")

    @property
    def m(self) -> int:
        return len(self.series)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    @property
    def dates(self) -> tuple[date, ...]:
        return self.series[0].dates

    def __len__(self) -> int:
        return len(self.series[0])

    @property
    def matrix(self) -> np.ndarray:
        """Observations as a (T, m) float array, one column per series."""
        return np.column_stack([s.values for s in self.series])

    def window(self, start: int, stop: int) -> "Panel":
        """Row slice [start, stop) as a new Panel."""
        dates = self.dates[start:stop]
        return Panel(tuple(Series(s.name, dates, s.values[start:stop].copy()) for s in self.series))

    @classmethod
    def from_matrix(cls, names: Sequence[str], dates: Sequence[date], matrix: np.ndarray) -> "Panel":
        matrix = np.asarray(matrix, dtype=float)
        dates = tuple(dates)
        return cls(tuple(Series(name, dates, matrix[:, j].copy()) for j, name in enumerate(names)))


def load_csv(path: str | Path, date_column: str, value_columns: Sequence[str]) -> tuple[Panel, int]:
    """Read selected columns of a CSV file into a date-sorted Panel.

    Rows where any selected value is missing are dropped; the count of
    dropped rows is returned alongside the panel.

    Raises:
        FileNotFoundError: the file does not exist.
        UnknownColumnError: a named column is absent from the header.
        MalformedCsvError: the file is not UTF-8 CSV text, or a kept row has
            a date or value cell that does not parse; the message names the
            file, the 1-based row and the column.
        DuplicateDateError: the same date occurs twice.
        NoUsableRowsError: every row had a missing value.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
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

    dates = tuple(item[0] for item in rows)
    matrix = np.array([item[1] for item in rows], dtype=float)
    return Panel.from_matrix(list(value_columns), dates, matrix), dropped


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
    out: list[Series] = []
    for panel in panels:
        index = {d: i for i, d in enumerate(panel.dates)}
        rows = [index[d] for d in keep]
        for s in panel.series:
            out.append(Series(s.name, keep, s.values[rows].copy()))
    return Panel(tuple(out))


def log_transform(panel: Panel) -> Panel:
    """Replace every value by its natural log; series names get a _log suffix."""
    out: list[Series] = []
    for s in panel.series:
        bad = np.nonzero(s.values <= 0.0)[0]
        if bad.size:
            when = s.dates[int(bad[0])]
            raise NonPositiveValueError(
                f"series {s.name!r} has non-positive value {s.values[bad[0]]!r} at {when.isoformat()}"
            )
        out.append(Series(s.name + "_log", s.dates, np.log(s.values)))
    return Panel(tuple(out))
