"""Helpers only the tests use: a predictions reader, a prices writer, a
graph node's degree, and the brute-force polarity oracle."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from newsmotion.errors import ParseError, ValidationError
from newsmotion.graph import CorrelationGraph, Prediction
from newsmotion.ingest import PriceSeries, parse_date
from newsmotion.lexicon import _document_counts, polarity_score
from newsmotion.sampling import Sample


def load_predictions(path: str | Path) -> list[Prediction]:
    path = Path(path)
    out = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "date,ticker,source,label,confidence":
            raise ParseError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields")
            try:
                out.append(
                    Prediction(
                        date=parse_date(parts[0]),
                        ticker=parts[1],
                        source=parts[2],
                        label=parts[3],
                        confidence=float(parts[4]),
                    )
                )
            except (ValidationError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return out


def write_prices(prices: Mapping[str, PriceSeries], path: str | Path) -> None:
    """Serialize price series back to the CSV format load_prices reads."""
    path = Path(path)
    rows = []
    for ticker, s in prices.items():
        for d, c in zip(s.dates, s.closes.tolist()):
            rows.append((d, ticker, c))
    rows.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,ticker,close\n")
        for d, ticker, c in rows:
            fh.write(f"{d.isoformat()},{ticker},{c!r}\n")


def degree(graph: CorrelationGraph, ticker: str) -> int:
    """How many edges the ticker's node has."""
    return int(np.count_nonzero(graph.weights[graph.index[ticker]]))


def polarity_score_of(word: str, samples: Sequence[Sample]) -> float:
    """Polarity score of one word over a labeled sample set."""
    _, pos_df, neg_df, n_pos, n_neg = _document_counts(samples)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            "polarity scores need both positive and negative training samples"
        )
    return polarity_score(pos_df.get(word, 0), neg_df.get(word, 0), n_pos, n_neg)
