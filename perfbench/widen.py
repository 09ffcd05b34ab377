"""Append price-only tickers to a synthetic prices.csv, for a wider graph.

Usage::

    python perfbench/widen.py PRICES_CSV COUNT SEED

New ticker k mixes the standardised log price of existing ticker
k mod n (in symbol order) with an independent mean-reverting path drawn
from the seed. Its weight on the source follows a fixed low-discrepancy
sequence over [0.6, 0.99], so the share of new tickers that clear a
Pearson threshold of 0.8 against their source hardly depends on the
seed. The new tickers never appear in the news or the aliases, so the
pipeline can reach them only through graph propagation. The same file,
count and seed always give the same bytes.
"""

from __future__ import annotations

import csv
import sys

import numpy as np

PREFIX = "WID"
_GOLDEN = 0.6180339887498949


def _ar1_path(rng: np.random.Generator, length: int, phi: float = 0.9) -> np.ndarray:
    eps = rng.standard_normal(length)
    out = np.empty(length)
    out[0] = eps[0]
    for t in range(1, length):
        out[t] = phi * out[t - 1] + eps[t]
    return out


def widen(prices_path: str, count: int, seed: int) -> None:
    closes: dict[str, list[float]] = {}
    dates: list[str] = []
    with open(prices_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for day, ticker, close in reader:
            if not dates or dates[-1] != day:
                dates.append(day)
            closes.setdefault(ticker, []).append(float(close))
    sources = sorted(closes)
    if any(len(closes[t]) != len(dates) for t in sources):
        raise ValueError(f"{prices_path}: tickers do not share one date list")
    if any(t.startswith(PREFIX) for t in sources):
        raise ValueError(f"{prices_path}: already widened")

    rng = np.random.default_rng([seed, count])
    added: list[tuple[str, list[str]]] = []
    for k in range(count):
        log_src = np.log(np.asarray(closes[sources[k % len(sources)]]))
        scale = log_src.std()
        weight = 0.6 + 0.39 * ((k * _GOLDEN) % 1.0)
        own = _ar1_path(rng, len(dates))
        mixed = weight * (log_src - log_src.mean()) / scale + np.sqrt(
            1.0 - weight * weight
        ) * (own - own.mean()) / own.std()
        base = rng.uniform(18.0, 160.0)
        column = [f"{base * np.exp(scale * v):.4f}" for v in mixed]
        added.append((f"{PREFIX}{k:03d}", column))
    with open(prices_path, "a", encoding="utf-8", newline="\n") as fh:
        for ticker, column in added:
            for day, close in zip(dates, column):
                fh.write(f"{day},{ticker},{close}\n")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    widen(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
