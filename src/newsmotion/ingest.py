"""Loading and validation of news article and daily closing-price files.

Articles arrive as JSON lines read by `codec`, prices as a CSV of
(date, ticker, close) rows under the `PRICES_HEADER` line. Both loaders
name the file and line on failure. The price loader checks each row in
one `csv.reader` pass, keeps a `{date: close}` dict per ticker to catch
duplicates, and sorts each ticker's dates once at the end.
Prices load as one immutable series per ticker; normalising them is the
featurizer's business. The checked series are kept as a `codec` blob,
the price table, which later stages load without parsing the CSV again.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import operator
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .codec import read_blob, read_records, unpack, utf8_text, write_blob, write_records
from .dates import parse_date
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Article:
    id: str
    date: Date
    title: str
    body: str
    source: str


def _text(record: dict, key: str) -> str:
    value = record[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {json.dumps(value)}")
    return value


def _article(record: dict, seen: set[str]) -> Article:
    article = Article(
        id=_text(record, "id"),
        date=parse_date(record["date"]),
        title=_text(record, "title"),
        body=_text(record, "body"),
        source=_text(record, "source"),
    )
    if article.id in seen:
        raise ValidationError(f"duplicate article id {article.id!r}")
    seen.add(article.id)
    return article


def load_articles(path: str | Path) -> Iterator[Article]:
    """Stream articles from a line-delimited JSON file, in file order.

    Blank lines are skipped. Raises ParseError naming the line on bad
    JSON, a missing key, a bad field value, an id already seen or bytes
    that are not UTF-8.
    """
    seen: set[str] = set()
    return read_records(path, lambda record: _article(record, seen))


def write_articles(articles: Iterable[Article], path: str | Path) -> None:
    """Serialize articles to the line-delimited JSON format load_articles reads."""
    records = (
        {
            "id": a.id,
            "date": a.date.isoformat(),
            "title": a.title,
            "body": a.body,
            "source": a.source,
        }
        for a in articles
    )
    write_records(path, records)


@dataclass(frozen=True)
class PriceSeries:
    """Daily closes for one ticker, strictly ascending by date."""

    ticker: str
    dates: tuple[Date, ...]
    closes: np.ndarray  # float64, aligned with dates

    def __post_init__(self):
        if len(self.dates) != len(self.closes):
            raise ValidationError(f"{self.ticker}: dates/closes length mismatch")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            cur = next(c for p, c in zip(self.dates, self.dates[1:]) if c <= p)
            raise ValidationError(f"{self.ticker}: dates not strictly ascending at {cur}")
        if not np.all((self.closes > 0) & (self.closes < np.inf)):
            raise ValidationError(f"{self.ticker}: closes must be finite and > 0")
        self.closes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dates)

    def last_index_on_or_before(self, d: Date) -> int | None:
        i = bisect.bisect_right(self.dates, d) - 1
        return i if i >= 0 else None

    def first_index_after(self, d: Date) -> int | None:
        i = bisect.bisect_right(self.dates, d)
        return i if i < len(self.dates) else None


PRICES_HEADER = "date,ticker,close"
_MAX_ORDINAL = Date.max.toordinal()


def load_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Load the (date, ticker, close) CSV into per-ticker sorted series.

    Returns the series keyed by ticker, in ticker order. Raises
    ValidationError on closes that are not finite and positive or on
    duplicate (date, ticker) rows; ParseError on structural problems,
    including malformed CSV, such as a quote left open until a field
    outgrows csv's limit, and a ticker with a comma, which no
    comma-separated artifact could hold. Every error names the file and
    the first bad row, counted from the header as line 1.
    """
    path = Path(path)
    parsed: dict[str, Date] = {}
    groups: dict[str, dict[Date, float]] = {}  # ticker -> {date: close}
    lineno = 0  # the last row read; a csv.Error is in the next one
    try:
        with utf8_text(path), path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            lineno = 1
            if header is None or [h.strip() for h in header] != PRICES_HEADER.split(","):
                raise ParseError(f"{path}: expected header '{PRICES_HEADER}'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 columns, got {len(row)}"
                    )
                raw_date, ticker, raw_close = row
                d = parsed.get(raw_date)
                if d is None:
                    try:
                        d = parsed[raw_date] = parse_date(raw_date)
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
                    raise ParseError(
                        f"{path}:{lineno}: bad close {raw_close!r}"
                    ) from exc
                if not 0 < close < math.inf:
                    rule = f"> 0, got {close}" if close <= 0 else "finite and > 0"
                    raise ValidationError(f"{path}:{lineno}: close must be {rule}")
                closes = groups.get(ticker)
                if closes is None:
                    closes = groups[ticker] = {}
                elif d in closes:
                    raise ValidationError(f"{path}:{lineno}: duplicate ({d}, {ticker})")
                closes[d] = close
    except csv.Error as exc:
        raise ParseError(f"{path}:{lineno + 1}: {exc}") from exc
    prices = {}
    for ticker, closes in sorted(groups.items()):
        dates = sorted(closes)
        series = np.array([closes[d] for d in dates], dtype=np.float64)
        prices[ticker] = PriceSeries(ticker, tuple(dates), series)
    return prices


def write_price_table(prices: Mapping[str, PriceSeries], path: str | Path) -> None:
    """A blob: tickers and series lengths in the header, in ticker order.

    The values are every date as its day ordinal, then every close;
    ``<f8`` holds both exactly.
    """
    header = {"tickers": list(prices), "lengths": [len(s) for s in prices.values()]}
    ordinals = [d.toordinal() for s in prices.values() for d in s.dates]
    write_blob(path, header, [np.array(ordinals), *(s.closes for s in prices.values())])


def _price_table(header: dict, data: BinaryIO) -> dict[str, PriceSeries]:
    tickers, lengths = header["tickers"], header["lengths"]
    if not isinstance(tickers, list) or not all(
        isinstance(t, str) and t and "," not in t for t in tickers
    ):
        raise ValueError("tickers must be non-empty strings without a comma")
    if any(a >= b for a, b in zip(tickers, tickers[1:])):
        raise ValueError("tickers must be distinct and in order")
    if not isinstance(lengths, list) or len(lengths) != len(tickers) or not all(
        type(n) is int and n >= 0 for n in lengths
    ):
        raise ValueError("lengths must hold one count >= 0 per ticker")
    total = sum(lengths)
    # Each series' closes are a read-only view of the loaded values.
    ordinals, closes = unpack(data, [(total,), (total,)])
    whole = np.floor(ordinals) == ordinals
    if not np.all(whole & (ordinals >= 1) & (ordinals <= _MAX_ORDINAL)):
        raise ValueError("dates must be whole day ordinals")
    # One date object per distinct day, shared by every series; each
    # series converts only its own ordinals.
    days = {o: Date.fromordinal(o) for o in np.unique(ordinals).astype(int).tolist()}
    prices, start = {}, 0
    for ticker, n in zip(tickers, lengths):
        keys = ordinals[start : start + n].astype(int).tolist()
        dates = tuple(map(days.__getitem__, keys))
        prices[ticker] = PriceSeries(ticker, dates, closes[start : start + n])
        start += n
    return prices


def load_price_table(path: str | Path) -> dict[str, PriceSeries]:
    """The series `write_price_table` wrote, keyed by ticker, in ticker order.

    A bad header field or a byte count that disagrees with the lengths is
    a `ParseError` naming the file; so is a series `PriceSeries` rejects.
    """
    return read_blob(path, _price_table)
