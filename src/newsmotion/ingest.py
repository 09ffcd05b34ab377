"""Loading and validation of news article and daily closing-price files.

Articles arrive as JSON lines read by `codec`, prices as a CSV of
(date, ticker, close) rows. Both loaders name the file and line on
failure. The price loader makes one lean pass; only when some row is
bad does it read the file again, row by row, to say which row and why.
Prices load as one immutable series per ticker; normalising them is the
featurizer's business.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import math
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .codec import read_records
from .dates import parse_date
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Article:
    id: str
    date: Date
    title: str
    body: str
    source: str


def _article(record: dict) -> Article:
    return Article(
        id=str(record["id"]),
        date=parse_date(record["date"]),
        title=str(record["title"]),
        body=str(record["body"]),
        source=str(record["source"]),
    )


def load_articles(path: str | Path) -> Iterator[Article]:
    """Stream articles from a line-delimited JSON file, in file order.

    Blank lines are skipped. Raises ParseError naming the line on bad
    JSON, a missing key or a bad field value.
    """
    return read_records(path, _article)


def write_articles(articles: Iterable[Article], path: str | Path) -> None:
    """Serialize articles to the line-delimited JSON format load_articles reads."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for a in articles:
            record = {
                "id": a.id,
                "date": a.date.isoformat(),
                "title": a.title,
                "body": a.body,
                "source": a.source,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class PriceSeries:
    """Daily closes for one ticker, strictly ascending by date."""

    ticker: str
    dates: tuple[Date, ...]
    closes: np.ndarray  # float64, aligned with dates

    def __post_init__(self):
        if len(self.dates) != len(self.closes):
            raise ValidationError(f"{self.ticker}: dates/closes length mismatch")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"{self.ticker}: dates not strictly ascending at {cur}"
                )
        if len(self.closes) and not np.all(self.closes > 0):
            raise ValidationError(f"{self.ticker}: closes must be positive")
        self.closes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dates)

    def last_index_on_or_before(self, d: Date) -> int | None:
        i = bisect.bisect_right(self.dates, d) - 1
        return i if i >= 0 else None

    def first_index_after(self, d: Date) -> int | None:
        i = bisect.bisect_right(self.dates, d)
        return i if i < len(self.dates) else None


_HEADER = ["date", "ticker", "close"]


class _BadRow(Exception):
    """The fast pass of `load_prices` met a row that `_check_prices` rejects."""


def _header(rows: Iterator[list[str]], path: Path) -> None:
    header = next(rows, None)
    if header is None or [h.strip() for h in header] != _HEADER:
        raise ParseError(f"{path}: expected header 'date,ticker,close'")


def load_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Load the (date, ticker, close) CSV into per-ticker sorted series.

    Returns the series keyed by ticker, in ticker order. Raises
    ValidationError on closes that are not finite and positive or on
    duplicate (date, ticker) rows; ParseError on structural problems,
    including a ticker with a comma, which no comma-separated artifact
    could hold. Every error names the file and the first bad line.
    """
    path = Path(path)
    try:
        groups = _read_prices(path)
    except (_BadRow, ValueError, csv.Error):
        _check_prices(path)  # raises for every row the fast pass rejects
        raise
    return {
        ticker: PriceSeries(ticker, tuple(dates), np.asarray(closes, dtype=np.float64))
        for ticker, (dates, closes) in sorted(groups.items())
    }


def _read_prices(path: Path) -> dict[str, tuple[list[Date], list[float]]]:
    """The rows grouped by ticker, each group in date order.

    The fast pass: it splits lines without quotes on commas, parses each
    distinct date string once and looks for duplicates per ticker after
    grouping. It raises, without saying where, when any row is bad.
    """
    parsed: dict[str, Date] = {}
    groups: dict[str, tuple[list[Date], list[float]]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        _header(csv.reader(fh), path)
        for line in fh:
            if '"' in line or "\0" in line:
                # csv quoting, or a NUL that csv rejects; a quoted line
                # break reads on into fh
                parts = next(csv.reader(itertools.chain([line], fh)))
            else:
                line = line.rstrip("\r\n")
                if not line:
                    continue
                parts = line.split(",")
            raw_date, ticker, raw_close = parts
            d = parsed.get(raw_date)
            if d is None:
                d = parsed[raw_date] = Date.fromisoformat(raw_date)
            ticker = ticker.strip()
            close = float(raw_close)
            if not ticker or "," in ticker or not 0 < close < math.inf:
                raise _BadRow
            group = groups.get(ticker)
            if group is None:
                group = groups[ticker] = ([], [])
            group[0].append(d)
            group[1].append(close)
    for dates, closes in groups.values():
        if len(set(dates)) != len(dates):
            raise _BadRow
        ordered = sorted(dates)
        if ordered != dates:
            closes[:] = [close for _, close in sorted(zip(dates, closes))]
            dates[:] = ordered
    return groups


def _check_prices(path: Path) -> None:
    """Raise, naming the file and line, for the first bad row in file order."""
    seen: set[tuple[Date, str]] = set()
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _header(reader, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            raw_date, ticker, raw_close = row
            try:
                d = parse_date(raw_date)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            ticker = ticker.strip()
            if not ticker:
                raise ValidationError(f"{path}:{lineno}: empty ticker")
            if "," in ticker:
                raise ParseError(f"{path}:{lineno}: comma in ticker {ticker!r}")
            try:
                close = float(raw_close)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad close {raw_close!r}") from exc
            if close <= 0:
                raise ValidationError(
                    f"{path}:{lineno}: close must be > 0, got {close}"
                )
            if not math.isfinite(close):
                raise ValidationError(f"{path}:{lineno}: close must be finite and > 0")
            if (d, ticker) in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate ({d}, {ticker})")
            seen.add((d, ticker))
