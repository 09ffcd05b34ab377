"""Helpers only the tests use: a predictions reader and its row type, a
prices writer, a graph node's degree, the brute-force polarity oracle, a
Glorot-initialised MLP and the loss and gradients of one of `mlp.train`'s
steps, a feature matrix packed from dense rows, its rows decoded dense and
its block subset, the environment of a child Python, and a call's traced
memory peak."""

from __future__ import annotations

import os
import tracemalloc
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from newsmotion.codec import read_table, write_table
from newsmotion.errors import ValidationError
from newsmotion.features import FeatureLayout, FeatureMatrix, block_columns
from newsmotion.graph import (
    DNN,
    DOWN,
    PREDICTIONS_HEADER,
    PROPAGATED,
    UP,
    CorrelationGraph,
)
from newsmotion.dates import parse_date
from newsmotion.ingest import PRICES_HEADER, PriceSeries
from newsmotion.lexicon import _document_counts, polarity_score
from newsmotion.mlp import MlpModel, _glorot, _step
from newsmotion.sampling import Sample

T = TypeVar("T")


@dataclass(frozen=True)
class Prediction:
    """One row of predictions.csv: direct from the classifier or propagated."""

    date: Date
    ticker: str
    source: str  # DNN or PROPAGATED
    label: str  # UP or DOWN
    confidence: float

    def __post_init__(self):
        if self.source not in (DNN, PROPAGATED):
            raise ValidationError(f"bad prediction source {self.source!r}")
        if self.label not in (UP, DOWN):
            raise ValidationError(f"bad prediction label {self.label!r}")


def _prediction(parts: list[str]) -> Prediction:
    day, ticker, source, label, confidence = parts
    return Prediction(parse_date(day), ticker, source, label, float(confidence))


def load_predictions(path: str | Path) -> list[Prediction]:
    return read_table(path, PREDICTIONS_HEADER, _prediction)[1]


def write_prices(prices: Mapping[str, PriceSeries], path: str | Path) -> None:
    """Serialize price series back to the CSV format load_prices reads."""
    rows = []
    for ticker, s in prices.items():
        for d, c in zip(s.dates, s.closes.tolist()):
            rows.append((d, ticker, c))
    rows.sort(key=lambda r: (r[0], r[1]))
    write_table(path, PRICES_HEADER, ((d.isoformat(), t, repr(c)) for d, t, c in rows))


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


def init(layer_dims: Sequence[int], seed: int, layout: FeatureLayout) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in seed."""
    dims = tuple(int(d) for d in layer_dims)
    return MlpModel(
        layer_dims=dims,
        weights=list(_glorot(dims, seed)),
        biases=[np.zeros(fan_out) for fan_out in dims[1:]],
        layout=layout,
        metadata={"seed": int(seed)},
    )


def loss_and_gradients(
    model: MlpModel, x: np.ndarray, y: np.ndarray, l2: float = 0.0
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over the batch plus backpropagated gradients.

    y holds class indices (0 = up, 1 = down). With l2 > 0 the loss adds
    l2/2 times the squared Frobenius norm of every weight matrix (biases
    are not penalized). The batch is cast to the dtype of the model's
    weights, and the gradients are returned in that dtype. This is the
    step `train` takes on each mini-batch.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("batch must be a non-empty 2-D array")
    if x.shape[0] != y.shape[0]:
        raise ValidationError("batch inputs and labels have different lengths")
    if x.shape[1] != model.layer_dims[0]:
        raise ValidationError(
            f"input dimension {x.shape[1]} != model input {model.layer_dims[0]}"
        )
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    a = np.ascontiguousarray(x.T, dtype=model.weights[0].dtype)

    def stack(arrays: list[np.ndarray]) -> list:
        """A one-model stack's layers, as `_step` takes them: views, no copies."""
        return [[arrays[0]], *(p[None] for p in arrays[1:])]

    biases = [b[None] for b in model.biases]
    # the gradients are only read, so applying a layer's does nothing
    (loss,) = _step(
        stack(model.weights), biases, [a], y, l2,
        stack(grad_w), [g[None] for g in grad_b], lambda i: None,
    )
    return float(loss), grad_w, grad_b


def packed(
    layout: FeatureLayout,
    tickers: Sequence[str],
    dates: Sequence[Date],
    labels: Sequence[str],
    x: np.ndarray,
) -> FeatureMatrix:
    """The matrix of the dense float64 rows ``x``: every entry whose bits
    are not all zero is kept, as the featurizer keeps it."""
    x = np.ascontiguousarray(x)
    bits = x.view(f"u{x.itemsize}") != 0
    mask = np.packbits(bits, axis=1).reshape(len(x), -(-x.shape[1] // 8))
    return FeatureMatrix(
        layout, list(tickers), list(dates), list(labels), mask, x[bits]
    )


def dense(matrix: FeatureMatrix, blocks: Sequence[str] | None = None) -> np.ndarray:
    """The matrix's rows of ``blocks`` (all of its blocks by default), decoded
    into one C-ordered float64 array."""
    blocks = matrix.layout.blocks if blocks is None else blocks
    sub, runs = block_columns(matrix.layout, blocks)
    out = np.empty((len(matrix), sub.dimension))
    return matrix.decode(out, slice(None), runs)


def sliced(matrix: FeatureMatrix, blocks: Sequence[str]) -> FeatureMatrix:
    """The matrix of the rows' columns of ``blocks``, with the same metadata."""
    sub = block_columns(matrix.layout, blocks)[0]
    x = dense(matrix, blocks)
    return packed(sub, matrix.tickers, matrix.dates, matrix.labels, x)


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
