"""Cache-first download of observation series from the FRED HTTP API.

Fetches are keyed by series id and date range. The cache holds one
`date,<id>` CSV per entry, written by write_csv and read by load_csv, so
a cache file is also a valid input. A hit is served without touching
the network or needing credentials, so a warmed cache makes every
downstream run offline-reproducible. The transport is injectable for
tests.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import urllib.parse
from datetime import date
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    HttpFetchError,
    MalformedCsvError,
    MalformedResponseError,
    MissingCredentialsError,
    SeriesNotFoundError,
)
from .panel import Panel, load_csv, parse_date, write_csv

logger = logging.getLogger(__name__)

API_URL = "https://api.stlouisfed.org/fred/series/observations"
DEFAULT_CACHE_DIR = "./.aspill-cache"

# A transport maps a URL to (status, body); swap it out in tests.
Transport = Callable[[str], tuple[int, bytes]]

# Concurrent fetches of the same cache entry must serialize; distinct
# entries may proceed in parallel.
_locks_guard = threading.Lock()
_entry_locks: dict[str, threading.Lock] = {}


def _entry_lock(key: str) -> threading.Lock:
    with _locks_guard:
        return _entry_locks.setdefault(key, threading.Lock())


def _default_transport(url: str) -> tuple[int, bytes]:
    # Imported here: urllib.request pulls in http.client, ssl and email,
    # which no run that is served from the cache needs.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except urllib.error.URLError as exc:
        raise HttpFetchError(f"network failure: {exc.reason}") from exc


def _cache_path(cache_dir: Path, series_id: str, date_range: tuple[date | None, date | None]) -> Path:
    start, end = date_range
    safe_id = re.sub(r"[^A-Za-z0-9_-]", "_", series_id)
    tag = f"{start.isoformat() if start else 'none'}_{end.isoformat() if end else 'none'}"
    return cache_dir / f"{safe_id}_{tag}.csv"


def _read_cache(path: Path, series_id: str) -> Panel | None:
    try:
        panel, dropped = load_csv(path, "date", [series_id])
    except FileNotFoundError:
        return None
    if dropped:
        raise MalformedCsvError(
            f"{path}: column {series_id!r}: {dropped} row(s) without a value; a cache row must hold one"
        )
    logger.debug("cache hit for %s at %s (%d observations)", series_id, path, len(panel))
    return panel


def _parse_observations(series_id: str, body: bytes) -> Panel:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedResponseError(f"{series_id}: response is not valid JSON") from exc
    if not isinstance(payload, dict) or "observations" not in payload:
        raise MalformedResponseError(f"{series_id}: response lacks an observations list")
    dates: list[date] = []
    values: list[float] = []
    for row in payload["observations"]:
        try:
            raw = row["value"].strip()
            if raw in {".", ""}:
                continue
            dates.append(parse_date(row["date"]))
            values.append(float(raw))
            if not math.isfinite(values[-1]):
                raise ValueError(raw)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedResponseError(f"{series_id}: malformed observation {row!r}") from exc
    if not dates:
        raise SeriesNotFoundError(f"{series_id}: no observations returned")
    return Panel((series_id,), dates, np.asarray(values)[:, np.newaxis])


def fetch_fred(
    series_id: str,
    api_key: str | None = None,
    date_range: tuple[date | None, date | None] = (None, None),
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    transport: Transport | None = None,
) -> Panel:
    """Fetch one series as a one-column Panel named by the series id.

    A hit in the local cache is served as is. The API key comes from the
    argument or the FRED_API_KEY environment variable; it is only
    required on a cache miss, checked before any network activity.

    Raises:
        MissingCredentialsError: cache miss and no API key available.
        SeriesNotFoundError: the service does not know the id.
        HttpFetchError: transport or HTTP-level failure.
        MalformedResponseError: a payload we cannot interpret.
        MalformedCsvError, DuplicateDateError, NoUsableRowsError: a cache
            file that load_csv rejects, or a cache row without a value.
    """
    cache_dir = Path(cache_dir)
    path = _cache_path(cache_dir, series_id, date_range)
    with _entry_lock(str(path)):
        cached = _read_cache(path, series_id)
        if cached is not None:
            return cached
        key = api_key if api_key is not None else os.environ.get("FRED_API_KEY", "")
        if not key:
            raise MissingCredentialsError(
                f"{series_id}: no API key given and FRED_API_KEY is not set"
            )
        params = {"series_id": series_id, "api_key": key, "file_type": "json"}
        start, end = date_range
        if start is not None:
            params["observation_start"] = start.isoformat()
        if end is not None:
            params["observation_end"] = end.isoformat()
        url = f"{API_URL}?{urllib.parse.urlencode(params)}"
        status, body = (transport or _default_transport)(url)
        if status in (400, 404):
            message = ""
            try:
                message = json.loads(body.decode("utf-8")).get("error_message", "")
            except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
                pass
            if status == 404 or "does not exist" in message.lower():
                raise SeriesNotFoundError(f"{series_id}: {message or 'series does not exist'}")
            raise HttpFetchError(f"{series_id}: HTTP {status}: {message}", status=status)
        if status != 200:
            raise HttpFetchError(f"{series_id}: HTTP {status}", status=status)
        panel = _parse_observations(series_id, body)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(panel, path)
        logger.info("fetched %s (%d observations)", series_id, len(panel))
        return panel
