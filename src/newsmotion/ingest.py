"""Loading and validation of news article and daily closing-price files.

Articles arrive as JSON lines read by `codec`, prices as a CSV of
(date, ticker, close) rows. Both loaders validate as they go and name
the file and line on failure. Prices load as one immutable series per
ticker; normalising them is the featurizer's business.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .codec import read_records
from .errors import ParseError, ValidationError


def parse_date(text: str) -> Date:
    try:
        return Date.fromisoformat(text)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid date {text!r}: {exc}") from exc


@dataclass(frozen=True)
class DateRange:
    """Inclusive calendar-date interval."""

    start: Date
    end: Date

    def __post_init__(self):
        if self.start > self.end:
            raise ValidationError(f"empty date range {self.start}..{self.end}")

    def __contains__(self, d: Date) -> bool:
        return self.start <= d <= self.end

    def __str__(self) -> str:
        return f"{self.start.isoformat()}:{self.end.isoformat()}"

    @classmethod
    def parse(cls, text: str) -> "DateRange":
        left, sep, right = text.partition(":")
        if not sep:
            raise ValidationError(f"date range needs 'start:end', got {text!r}")
        return cls(parse_date(left), parse_date(right))

    def days(self) -> Iterator[Date]:
        d = self.start
        while d <= self.end:
            yield d
            d += timedelta(days=1)


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


def load_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Load the (date, ticker, close) CSV into per-ticker sorted series.

    Returns the series keyed by ticker, in ticker order. Raises
    ValidationError on non-positive closes or duplicate (date, ticker)
    rows; ParseError on structural problems, including a ticker with a
    comma, which no comma-separated artifact could hold.
    """
    path = Path(path)
    rows: dict[str, list[tuple[Date, float]]] = {}
    seen: set[tuple[Date, str]] = set()
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["date", "ticker", "close"]:
            raise ParseError(f"{path}: expected header 'date,ticker,close'")
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
            if (d, ticker) in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate ({d}, {ticker})")
            seen.add((d, ticker))
            rows.setdefault(ticker, []).append((d, close))

    series: dict[str, PriceSeries] = {}
    for ticker in sorted(rows):
        obs = sorted(rows[ticker])
        series[ticker] = PriceSeries(
            ticker=ticker,
            dates=tuple(d for d, _ in obs),
            closes=np.asarray([c for _, c in obs], dtype=np.float64),
        )
    return series
