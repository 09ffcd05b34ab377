"""Helpers only the tests use: a predictions reader, a prices writer, a
graph node's degree, the brute-force polarity oracle, the environment
of a child Python, and a call's traced memory peak."""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from newsmotion.codec import read_table
from newsmotion.errors import ValidationError
from newsmotion.graph import PREDICTIONS_HEADER, CorrelationGraph, Prediction
from newsmotion.dates import parse_date
from newsmotion.ingest import PriceSeries
from newsmotion.lexicon import _document_counts, polarity_score
from newsmotion.sampling import Sample

T = TypeVar("T")


def _prediction(parts: list[str]) -> Prediction:
    day, ticker, source, label, confidence = parts
    return Prediction(parse_date(day), ticker, source, label, float(confidence))


def load_predictions(path: str | Path) -> list[Prediction]:
    return read_table(path, PREDICTIONS_HEADER, _prediction)[1]


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


def child_env() -> dict[str, str]:
    """The environment for a child Python that imports this checkout's package.

    The BLAS thread variables stay as they are: manifests record the
    thread count, so the child's stages skip where the parent's would.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def traced_peak(call: Callable[[], T]) -> tuple[T, int]:
    """What ``call()`` returns, and the peak bytes tracemalloc saw while it ran.

    numpy reports its array buffers to tracemalloc, so the peak counts
    them with every Python object.
    """
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
