"""Cache-first fetch behavior with an injected fake transport."""

from __future__ import annotations

import json
import threading
import time
from datetime import date

import numpy as np
import pytest

from aspill.errors import (
    HttpFetchError,
    MalformedCacheError,
    MalformedResponseError,
    MissingCredentialsError,
    SeriesNotFoundError,
)
from aspill.fred import fetch_fred


def body_for(rows) -> bytes:
    return json.dumps({"observations": rows}).encode("utf-8")


OK_ROWS = [
    {"date": "2020-01-01", "value": "1.5"},
    {"date": "2020-01-02", "value": "."},
    {"date": "2020-01-03", "value": "2.25"},
]


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
        first = fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=RecordingTransport())
        second = fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert second.dates == first.dates
        np.testing.assert_array_equal(second.matrix, first.matrix)

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
        assert len(list(tmp_path.glob("*.txt"))) == 2


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
        assert list(tmp_path.glob("*.txt")) == []

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
        assert list(tmp_path.glob("*.txt")) == []


class TestMalformedCache:
    @pytest.mark.parametrize(
        "line",
        ["2020-01-02", "2020-01-02 1.5 2.5", "2020-13-02 1.5", "2020-01-02 abc", "2020-01-02 nan"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=RecordingTransport())
        (path,) = tmp_path.glob("*.txt")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["2020-01-01 1.5", "2020-01-03 2.25"]
        path.write_text("\n".join([lines[0], lines[1], line, lines[2]]) + "\n", encoding="utf-8")
        with pytest.raises(MalformedCacheError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(path) in str(caught.value)
        assert "line 3" in str(caught.value)
        assert repr(line) in str(caught.value)

    @pytest.mark.parametrize("line", ["2019-12-31 0.5", "2020-01-01 0.5"], ids=["out-of-order", "repeated"])
    def test_date_not_after_the_previous_names_file_and_line(self, tmp_path, line):
        fetch_fred("VXO", api_key="k", cache_dir=tmp_path, transport=RecordingTransport())
        (path,) = tmp_path.glob("*.txt")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], lines[1], line, lines[2]]) + "\n", encoding="utf-8")
        with pytest.raises(MalformedCacheError) as caught:
            fetch_fred("VXO", cache_dir=tmp_path, transport=refusing_transport)
        assert str(path) in str(caught.value)
        assert "line 3" in str(caught.value)
        assert repr(line) in str(caught.value)


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
