"""Test-local oracle for `newsmotion.ingest.load_prices`, and a file generator.

`oracle_prices` is a plain `csv.reader` loop: it checks every row in
file order with the loader's rules and messages, keeps a set of every
(date, ticker) pair, then groups the rows by ticker and sorts each group
by date. The loader must load the same series byte for byte, or raise an
exception of the same type with the same message.

`random_prices_text` writes small price files that mix line endings,
blank lines, quoting and padding, NUL bytes, duplicates and every kind
of bad row and header.
"""

from __future__ import annotations

import csv
import math
import random
from datetime import date as Date
from pathlib import Path

import numpy as np

from newsmotion.dates import parse_date
from newsmotion.errors import ParseError, ValidationError
from newsmotion.ingest import PriceSeries


def oracle_prices(path: str | Path) -> dict[str, PriceSeries]:
    """What `load_prices` returns for ``path``, or the exception it raises."""
    path = Path(path)
    seen: set[tuple[Date, str]] = set()
    groups: dict[str, list[tuple[Date, float]]] = {}
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
                raise ValidationError(f"{path}:{lineno}: close must be > 0, got {close}")
            if not math.isfinite(close):
                raise ValidationError(f"{path}:{lineno}: close must be finite and > 0")
            if (d, ticker) in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate ({d}, {ticker})")
            seen.add((d, ticker))
            groups.setdefault(ticker, []).append((d, close))
    prices = {}
    for ticker, rows in sorted(groups.items()):
        rows.sort()
        dates = tuple(d for d, _ in rows)
        prices[ticker] = PriceSeries(ticker, dates, np.array([c for _, c in rows]))
    return prices


_HEADERS = (
    "date,ticker,close",
    " date , ticker ,close ",
    '"date","ticker","close"',
    "",
    "date,ticker",
    "day,sym,price",
    "date,ticker,close,x",
    '"date\nx",ticker,close',
)
_TICKERS = ("A", "B", " A ", "Ab", "é", "A\nB", "A\0", "Q,Z", "", " ")
_DATES = tuple(f"2012-01-{day:02d}" for day in range(2, 9)) + (
    "2012-13-01",
    "07/05/2012",
    "2012-01-03 ",
    "20120104",
    "",
)
_CLOSES = ("10", "1.5", " 3.25 ", "1e-5", ".1", "7", "x", "", "0", "-1.5", "nan",
           "inf", "-inf", "1e999", "1\0")
_ENDINGS = ("\n", "\n", "\r\n", "\r")


def _field(rng: random.Random, text: str) -> str:
    """``text`` as a CSV field: quoted when it must be, or now and then anyway."""
    if any(c in text for c in ',"\r\n') or rng.random() < 0.1:
        return '"' + text.replace('"', '""') + '"'
    return text


def random_prices_text(rng: random.Random) -> str:
    """A short price file; about 30 % of them load without an error."""
    header = _HEADERS[0] if rng.random() < 0.9 else rng.choice(_HEADERS)
    lines = [header]
    bad = rng.random() < 0.5  # half the files draw bad values too
    for _ in range(rng.randrange(12)):
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(("", "", " ", ",", "\0")))
            continue
        d = rng.choice(_DATES if bad else _DATES[:7])
        ticker = rng.choice(_TICKERS if bad else _TICKERS[:6])
        close = rng.choice(_CLOSES if bad else _CLOSES[:6])
        fields = [_field(rng, d), _field(rng, ticker), _field(rng, close)]
        if bad and roll > 0.95:
            fields = fields[:2] if roll > 0.975 else fields + ["x"]
        lines.append(",".join(fields))
    endings = [rng.choice(_ENDINGS) for _ in lines]
    if rng.random() < 0.3:
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))
