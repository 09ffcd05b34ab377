"""Helpers only the tests use: a predictions reader, a prices writer, a
graph node's degree, and the brute-force polarity oracle."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from newsmotion.codec import read_table
from newsmotion.errors import ValidationError
from newsmotion.graph import CorrelationGraph, Prediction
from newsmotion.dates import parse_date
from newsmotion.ingest import PriceSeries
from newsmotion.lexicon import _document_counts, polarity_score
from newsmotion.sampling import Sample


def _prediction(parts: list[str]) -> Prediction:
    day, ticker, source, label, confidence = parts
    return Prediction(parse_date(day), ticker, source, label, float(confidence))


def load_predictions(path: str | Path) -> list[Prediction]:
    header = "date,ticker,source,label,confidence"
    return read_table(path, header, 5, _prediction)[1]


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
