"""Cache-first fetch behavior with an injected fake transport."""

from __future__ import annotations

import json
import threading
import time
from datetime import date

import numpy as np
import pytest

from aspill.errors import (
    DuplicateDateError,
    HttpFetchError,
    MalformedCsvError,
    MalformedResponseError,
    MissingCredentialsError,
    NoUsableRowsError,
    SeriesNotFoundError,
)
from aspill.fred import _cache_path, fetch_fred
from aspill.panel import load_csv


def body_for(rows) -> bytes:
    return json.dumps({"observations": rows}).encode("utf-8")


OK_ROWS = [
    {"date": "2020-01-01", "value": "1.5"},
    {"date": "2020-01-02", "value": "."},
    {"date": "2020-01-03", "value": "2.25"},
]


# Values whose shortest repr has 17 significant digits, or that sit at the
# ends of the float range, so a cache that does not keep every bit shows.
EXACT_VALUES = [0.1 + 0.2, 1 / 3, -2.5e17, 1e-300, 5e-324, 1.7976931348623157e308]
EXACT_ROWS = [{"date": f"2020-01-{i + 1:02d}", "value": repr(v)} for i, v in enumerate(EXACT_VALUES)]


class RecordingTransport:
    def __init__(self, status: int = 200, body: bytes | None = None, delay: float = 0.0):
        self.status = status
        self.body = body_for(OK_ROWS) if body is None else body
        self.delay = delay
        self.urls: list[str] = []
        self._guard = threading.Lock()

    def __call__(self, url: str) -> tuple[int, bytes]:
        with self._guard:
            self.urls.append(url)
        if self.delay:
            time.sleep(self.delay)
        return self.status, self.body


def refusing_transport(url: str) -> tuple[int, bytes]:
    raise AssertionError("network transport must not be used on a cache hit")


class TestFetch:
    def test_parses_and_skips_missing_markers(self, tmp_path):
        panel = fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=RecordingTransport())
        assert panel.names == ("VXO",)
        assert panel.dates == (date(2020, 1, 1), date(2020, 1, 3))
        np.testing.assert_array_equal(panel.matrix, [[1.5], [2.25]])

    def test_url_carries_key_and_range(self, tmp_path):
        transport = RecordingTransport()
        fetch_fred(
            "VXO",
            api_key="sekrit",
            date_range=(date(2004, 1, 2), date(2011, 6, 30)),
            cache_dir=tmp_path,
            transport=transport,
        )
        (url,) = transport.urls
        assert "series_id=VXO" in url
        assert "api_key=sekrit" in url
        assert "observation_start=2004-01-02" in url
        assert "observation_end=2011-06-30" in url
        assert "file_type=json" in url

    def test_cache_hit_needs_no_key_or_network(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        transport = RecordingTransport(body=body_for(EXACT_ROWS))
        first = fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=transport)
        second = fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert first.matrix[:, 0].tolist() == EXACT_VALUES
        assert second.names == first.names
        assert second.dates == first.dates
        assert second.matrix.tobytes() == first.matrix.tobytes()

    def test_missing_key_fails_before_network(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        transport = RecordingTransport()
        with pytest.raises(MissingCredentialsError):
            fetch_fred("VXO", cache_dir=tmp_path, transport=transport)
        assert transport.urls == []

    def test_key_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "envkey")
        transport = RecordingTransport()
        fetch_fred("VXO", cache_dir=tmp_path, transport=transport)
        assert "api_key=envkey" in transport.urls[0]

    def test_distinct_ranges_use_distinct_cache_entries(self, tmp_path):
        transport = RecordingTransport()
        fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=transport)
        fetch_fred(
            "VXO",
            api_key="k",
            date_range=(date(2010, 1, 1), None),
            cache_dir=tmp_path,
            transport=transport,
        )
        assert len(transport.urls) == 2
        assert len(list(tmp_path.glob("*.csv"))) == 2


class TestFailureModes:
    def test_unknown_series_via_400_message(self, tmp_path):
        body = json.dumps({"error_message": "The series does not exist."}).encode()
        with pytest.raises(SeriesNotFoundError, match="NOPE"):
            fetch_fred(
                "NOPE", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(status=400, body=body),
            )

    def test_unknown_series_via_404(self, tmp_path):
        with pytest.raises(SeriesNotFoundError):
            fetch_fred(
                "NOPE", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(status=404, body=b"gone"),
            )

    def test_other_400_is_http_error(self, tmp_path):
        body = json.dumps({"error_message": "Bad Request: api_key invalid"}).encode()
        with pytest.raises(HttpFetchError) as info:
            fetch_fred(
                "VXO", api_key="bad", cache_dir=tmp_path,
                transport=RecordingTransport(status=400, body=body),
            )
        assert info.value.status == 400

    def test_server_error_carries_status(self, tmp_path):
        with pytest.raises(HttpFetchError) as info:
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(status=500, body=b"boom"),
            )
        assert info.value.status == 500

    def test_non_json_body(self, tmp_path):
        with pytest.raises(MalformedResponseError):
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(body=b"<html>oops</html>"),
            )

    def test_missing_observations_key(self, tmp_path):
        with pytest.raises(MalformedResponseError):
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(body=json.dumps({"count": 3}).encode()),
            )

    @pytest.mark.parametrize(
        "row",
        [
            {"date": "2020-01-01"},
            # float() reads these; a panel holds finite values only.
            {"date": "2020-01-01", "value": "inf"},
            {"date": "2020-01-01", "value": "NaN"},
            {"date": "2020-01-01", "value": "1e999"},
        ],
        ids=["no-value", "inf", "NaN", "1e999"],
    )
    def test_malformed_observation_row(self, row, tmp_path):
        body = body_for([row])
        with pytest.raises(MalformedResponseError) as info:
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(body=body),
            )
        assert str(info.value) == f"VXO: malformed observation {row!r}"
        assert list(tmp_path.glob("*.csv")) == []

    def test_empty_observations_means_unknown(self, tmp_path):
        with pytest.raises(SeriesNotFoundError):
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(body=body_for([])),
            )

    def test_all_missing_markers_means_unknown(self, tmp_path):
        rows = [{"date": "2020-01-01", "value": "."}]
        with pytest.raises(SeriesNotFoundError):
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(body=body_for(rows)),
            )

    def test_failed_fetch_leaves_no_cache_entry(self, tmp_path):
        with pytest.raises(HttpFetchError):
            fetch_fred(
                "VXO", api_key="k", cache_dir=tmp_path,
                transport=RecordingTransport(status=500, body=b"boom"),
            )
        assert list(tmp_path.glob("*.csv")) == []


class TestCacheFile:
    """The cache is the date,<id> CSV that write_csv writes and load_csv reads."""

    def test_cache_file_is_an_input(self, tmp_path):
        transport = RecordingTransport(body=body_for(EXACT_ROWS))
        fetched = fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=transport)
        (path,) = tmp_path.glob("*.csv")
        assert path == _cache_path(tmp_path, "VXO", (None, None))
        loaded, dropped = load_csv(path, "date", ["VXO"])
        assert dropped == 0
        assert loaded.dates == fetched.dates
        assert loaded.matrix.tobytes() == fetched.matrix.tobytes()

    def test_old_text_cache_is_not_read(self, tmp_path):
        old = _cache_path(tmp_path, "VXO", (None, None)).with_suffix(".txt")
        old.write_text("# VXO\n2020-01-01 9.0\n", encoding="utf-8")
        transport = RecordingTransport()
        panel = fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=transport)
        assert len(transport.urls) == 1
        np.testing.assert_array_equal(panel.matrix, [[1.5], [2.25]])
        assert old.read_text(encoding="utf-8") == "# VXO\n2020-01-01 9.0\n"


class TestMalformedCache:
    @staticmethod
    def cache_with_row(tmp_path, row: str):
        """The warmed cache file with row inserted as its third line."""
        fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=RecordingTransport())
        (path,) = tmp_path.glob("*.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["date,VXO", "2020-01-01,1.5", "2020-01-03,2.25"]
        path.write_text("\n".join([lines[0], lines[1], row, lines[2]]) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "row, column, reading",
        [
            ("2020-01-02,abc", "VXO", "'abc' as a finite number"),
            ("2020-01-02,inf", "VXO", "'inf' as a finite number"),
            ("2020-13-02,1.5", "date", "'2020-13-02' as a date"),
        ],
        ids=["value", "inf", "date"],
    )
    def test_bad_cell_names_file_row_and_column(self, tmp_path, row, column, reading):
        path = self.cache_with_row(tmp_path, row)
        with pytest.raises(MalformedCsvError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(caught.value) == f"{path}: row 3, column {column!r}: cannot read {reading}"

    @pytest.mark.parametrize("row", ["2020-01-02", "2020-01-02,", "2020-01-02,."])
    def test_row_without_a_value_names_file_and_column(self, tmp_path, row):
        path = self.cache_with_row(tmp_path, row)
        with pytest.raises(MalformedCsvError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(caught.value) == (
            f"{path}: column 'VXO': 1 row(s) without a value; a cache row must hold one"
        )

    def test_cache_without_rows_is_an_error_not_a_miss(self, tmp_path):
        path = _cache_path(tmp_path, "VXO", (None, None))
        path.write_text("date,VXO\n", encoding="utf-8")
        with pytest.raises(NoUsableRowsError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(caught.value) == f"{path}: no usable rows (dropped 0)"

    def test_repeated_date_names_file_and_date(self, tmp_path):
        path = self.cache_with_row(tmp_path, "2020-01-01,0.5")
        with pytest.raises(DuplicateDateError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(caught.value) == f"{path}: duplicate date 2020-01-01"


class TestConcurrency:
    def test_parallel_fetches_share_one_download(self, tmp_path):
        transport = RecordingTransport(delay=0.05)
        results: list = []
        errors: list = []

        def worker():
            try:
                results.append(
                    fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=transport)
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(transport.urls) == 1
        for panel in results:
            np.testing.assert_array_equal(panel.matrix, results[0].matrix)
