"""Numeric feature blocks for labeled samples: price, BoK, PS, CT.

A feature vector is the concatenation of four blocks in `BLOCK_ORDER`:
12 normalized price values, one tf-idf component per lexicon keyword
(bag-of-keywords), one signed polarity component per keyword, and one
log-count per event category. The featurizer always fills all four; a
subset of blocks is a column slice of that matrix, and `block_columns`
is the one place that computes a subset's layout and where its columns
sit in the full rows. `slice_blocks` copies those columns into float64
rows, unless they are the matrix's own float64 rows, and `mlp.train`
gathers each mini-batch's share of them straight from the full rows, so
training makes no copy of a subset.
Prices are z-scored with each ticker's training-window mean and std,
which only this module computes. The three news blocks are counts over
the same tokens, so each sentence is tokenized once and that one walk
fills all of them; each row is written in place in the matrix. The
subject test behind the polarity signs reads the mentions each sentence
carries from ingest. The layout descriptor travels with every matrix
and model file (both `codec` blobs) so train and serve can never
disagree on shapes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import date as Date
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .errors import ParseError, PipelineError, ValidationError
from .dates import DateRange, parse_date
from .ingest import PriceSeries
from .lexicon import CategoryLexicon, KeywordLexicon
from .sampling import NEGATIVE, POSITIVE, Sample, Sentence
from .tokens import tokenize_with_offsets

PRICE_DIM = 12
BLOCK_ORDER = ("price", "bok", "ps", "ct")

# Reasons recorded when a sample cannot be featurized.
INSUFFICIENT_HISTORY = "insufficient history"
NO_PRICE_HISTORY = "no price history"
UNNORMALIZABLE = "unnormalizable price history"


class FeatureSkip(PipelineError):
    """Sample cannot be featurized; the featurizer records the reason."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class FeatureLayout:
    """Which blocks a vector contains and how large each one is."""

    blocks: tuple[str, ...]
    k: int
    n_categories: int

    def __post_init__(self):
        if not self.blocks:
            raise ValidationError("at least one feature block must be enabled")
        order = [b for b in BLOCK_ORDER if b in self.blocks]
        if list(self.blocks) != order or len(set(self.blocks)) != len(self.blocks):
            raise ValidationError(
                f"blocks must be unique and ordered {BLOCK_ORDER}, got {self.blocks}"
            )
        if ("bok" in self.blocks or "ps" in self.blocks) and self.k <= 0:
            raise ValidationError("keyword blocks enabled but k is not positive")
        if "ct" in self.blocks and self.n_categories <= 0:
            raise ValidationError("ct block enabled but category count is not positive")
        if self.k < 0 or self.n_categories < 0:
            raise ValidationError("sizes must be non-negative")

    def block_size(self, name: str) -> int:
        if name == "price":
            return PRICE_DIM
        if name in ("bok", "ps"):
            return self.k
        if name == "ct":
            return self.n_categories
        raise ValidationError(f"unknown block {name!r}")

    @property
    def dimension(self) -> int:
        return sum(self.block_size(b) for b in self.blocks)

    def offsets(self) -> dict[str, tuple[int, int]]:
        out = {}
        start = 0
        for name in self.blocks:
            stop = start + self.block_size(name)
            out[name] = (start, stop)
            start = stop
        return out

    def to_dict(self) -> dict:
        return {
            "blocks": list(self.blocks),
            "sizes": {b: self.block_size(b) for b in self.blocks},
            "k": self.k,
            "categories": self.n_categories,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureLayout":
        layout = cls(
            blocks=tuple(data["blocks"]),
            k=int(data["k"]),
            n_categories=int(data["categories"]),
        )
        sizes = data.get("sizes")
        if sizes is not None:
            declared = {b: int(sizes[b]) for b in sizes}
            actual = {b: layout.block_size(b) for b in layout.blocks}
            if declared != actual:
                raise ParseError(
                    f"layout sizes {declared} do not match block sizes {actual}"
                )
        return layout


def training_stats(
    prices: Mapping[str, PriceSeries], window: DateRange
) -> dict[str, tuple[float, float]]:
    """Each ticker's (mean, population std) over its closes inside the window.

    Tickers with fewer than two closes there, or zero spread, get no
    entry: their price history cannot be normalised.
    """
    stats = {}
    for ticker, series in prices.items():
        start = bisect.bisect_left(series.dates, window.start)
        end = bisect.bisect_right(series.dates, window.end)
        closes = series.closes[start:end]
        if len(closes) < 2:
            continue
        std = float(closes.std())  # population form: ddof=0
        if std != 0.0:
            stats[ticker] = (float(closes.mean()), std)
    return stats


def price_features(
    series: PriceSeries, stats: tuple[float, float], t: Date
) -> np.ndarray:
    """The 12 price features from the five trading closes strictly before t.

    Closes are z-scored with the supplied training-window (mean, std):
    the 5 normalized closes, oldest first, then their 4 first and 3
    second differences. Fewer than five prior closes is a skip, not an
    error.
    """
    mean, std = stats
    if std <= 0:
        raise ValidationError(f"{series.ticker}: std must be positive, got {std}")
    end = bisect.bisect_left(series.dates, t)
    if end < 5:
        raise FeatureSkip(INSUFFICIENT_HISTORY)
    p = (series.closes[end - 5 : end] - mean) / std
    dp = np.diff(p)
    return np.concatenate([p, dp, np.diff(dp)])


def subject_of_keyword(sentence: Sentence, target: str, keyword_offset: int) -> bool:
    """Whether the target ticker reads as the subject of the keyword.

    Heuristic stand-in for a dependency parse: the mention nearest to the
    keyword's left must belong to the target; a target mentioned only to
    the right, or preempted by a closer mention of another ticker, is not
    the subject.
    """
    best_ticker = None
    best_offset = -1
    for ticker, offset in sentence.mentions:
        if offset < keyword_offset and offset > best_offset:
            best_ticker = ticker
            best_offset = offset
    return best_ticker == target


def _fill_news(
    news: np.ndarray,
    sample: Sample,
    keywords: KeywordLexicon,
    categories: CategoryLexicon,
) -> None:
    """Write a sample's bok, ps and ct blocks into the zeroed row after its prices.

    One walk over each sentence's tokens counts every keyword hit (tf),
    signs it by the subject test, and counts category words. Then bok is
    tf·idf, ps is idf·(signed hits)·polarity for each keyword hit at
    least once, and ct is log(1 + N_c) per category.
    """
    k = len(keywords)
    index = keywords.index
    word_categories = categories.word_categories
    ct = news[2 * k :]
    tf: dict[int, int] = {}
    signed: dict[int, int] = {}
    for sentence in sample.sentences:
        for token, offset in tokenize_with_offsets(sentence.text):
            i = index.get(token)
            if i is not None:
                tf[i] = tf.get(i, 0) + 1
                sign = 1 if subject_of_keyword(sentence, sample.ticker, offset) else -1
                signed[i] = signed.get(i, 0) + sign
            for ci in word_categories.get(token, ()):
                ct[ci] += 1
    for i, n in tf.items():
        news[i] = n * keywords.entries[i].idf
    for i, total in signed.items():
        entry = keywords.entries[i]
        news[k + i] = entry.idf * total * entry.ps
    np.log1p(ct, out=ct)


@dataclass
class FeatureMatrix:
    """Feature rows for a set of samples, aligned with per-row metadata."""

    layout: FeatureLayout
    tickers: list[str]
    dates: list[Date]
    labels: list[str]  # POSITIVE or NEGATIVE
    # (n, layout.dimension) float64; rows that are only trained on may be
    # float32 (`load_feature_matrix`), as training reads float32 anyway.
    x: np.ndarray

    def __post_init__(self):
        n = len(self.tickers)
        if not (len(self.dates) == len(self.labels) == n):
            raise ValidationError("metadata columns have mismatched lengths")
        unknown = set(self.labels) - {POSITIVE, NEGATIVE}
        if unknown:
            raise ValidationError(f"unknown movement labels {sorted(unknown)}")
        if self.x.shape != (n, self.layout.dimension):
            raise ValidationError(
                f"matrix shape {self.x.shape} does not match "
                f"{n} rows of dimension {self.layout.dimension}"
            )

    def __len__(self) -> int:
        return len(self.tickers)


def featurize_samples(
    samples: Sequence[Sample],
    prices: Mapping[str, PriceSeries],
    stats: Mapping[str, tuple[float, float]],
    keywords: KeywordLexicon,
    categories: CategoryLexicon,
) -> tuple[FeatureMatrix, list[tuple[str, Date, str]]]:
    """Build the feature matrix of every block, in `BLOCK_ORDER`, for labeled samples.

    The layout's sizes are the two lexicons' sizes. ``stats`` holds each
    ticker's normalisation (see `training_stats`). Samples whose price
    block cannot be built are skipped and returned as (ticker, date,
    reason) records.
    """
    layout = FeatureLayout(
        BLOCK_ORDER, k=len(keywords), n_categories=len(categories.categories)
    )
    x = np.zeros((len(samples), layout.dimension))
    tickers: list[str] = []
    dates: list[Date] = []
    labels: list[str] = []
    skipped: list[tuple[str, Date, str]] = []
    for sample in samples:
        if sample.label is None:
            raise ValidationError(
                f"unlabeled sample ({sample.ticker}, {sample.date}) cannot be featurized"
            )
        # A skipped sample writes nothing, so the next one reuses its row.
        row = x[len(tickers)]
        series = prices.get(sample.ticker)
        normal = stats.get(sample.ticker)
        try:
            if series is None:
                raise FeatureSkip(NO_PRICE_HISTORY)
            if normal is None:
                raise FeatureSkip(UNNORMALIZABLE)
            row[:PRICE_DIM] = price_features(series, normal, sample.date)
        except FeatureSkip as skip:
            skipped.append((sample.ticker, sample.date, skip.reason))
            continue
        _fill_news(row[PRICE_DIM:], sample, keywords, categories)
        tickers.append(sample.ticker)
        dates.append(sample.date)
        labels.append(sample.label)
    return FeatureMatrix(layout, tickers, dates, labels, x[: len(tickers)]), skipped


def block_set(blocks: Iterable[str]) -> tuple[str, ...]:
    """The distinct names in ``blocks``, in `BLOCK_ORDER`.

    An empty set, or a name that is not a block, is rejected.
    """
    wanted = set(blocks)
    if not wanted:
        raise ValidationError("a feature combination cannot be empty")
    unknown = wanted - set(BLOCK_ORDER)
    if unknown:
        raise ValidationError(f"unknown blocks {sorted(unknown)}")
    return tuple(b for b in BLOCK_ORDER if b in wanted)


def block_columns(
    layout: FeatureLayout, blocks: Iterable[str]
) -> tuple[FeatureLayout, list[tuple[slice, slice]]]:
    """The layout of a subset of ``layout``'s blocks, and where its columns sit.

    Each ``(src, dst)`` pair is a run of blocks adjacent in both layouts:
    a row of the subset holds columns ``src`` of a row of ``layout`` as
    its columns ``dst``. A block ``layout`` lacks is rejected.
    """
    ordered = block_set(blocks)
    missing = set(ordered) - set(layout.blocks)
    if missing:
        raise ValidationError(f"matrix does not contain blocks {sorted(missing)}")
    sub = FeatureLayout(blocks=ordered, k=layout.k, n_categories=layout.n_categories)
    offsets = layout.offsets()
    runs: list[tuple[slice, slice]] = []
    for name, (at, stop) in sub.offsets().items():
        start = offsets[name][0]
        if runs and runs[-1][0].stop == start:
            src, dst = runs.pop()
            start, at = src.start, dst.start
        runs.append((slice(start, start + stop - at), slice(at, stop)))
    return sub, runs


def slice_blocks(matrix: FeatureMatrix, blocks: Sequence[str]) -> FeatureMatrix:
    """Project a matrix onto a subset of its blocks, preserving row metadata.

    Lets one full featurization pass serve every block combination. The
    rows are one C-ordered float64 array: the matrix's own ``x`` when it
    already is that array of the whole layout, else a copy of the blocks'
    columns, each cast as it is copied in.
    """
    sub, runs = block_columns(matrix.layout, blocks)
    x = matrix.x
    if sub != matrix.layout or x.dtype != np.float64 or not x.flags.c_contiguous:
        x = np.empty((len(matrix), sub.dimension))
        for src, dst in runs:
            x[:, dst] = matrix.x[:, src]
    return FeatureMatrix(
        layout=sub,
        tickers=list(matrix.tickers),
        dates=list(matrix.dates),
        labels=list(matrix.labels),
        x=x,
    )


def write_feature_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    """A blob: the layout and row metadata in the header, then the rows."""
    header = {
        "layout": matrix.layout.to_dict(),
        "rows": len(matrix),
        "tickers": matrix.tickers,
        "dates": [d.isoformat() for d in matrix.dates],
        "labels": matrix.labels,
    }
    write_blob(path, header, [matrix.x])


def _feature_matrix(dtype, header: dict, data: BinaryIO) -> FeatureMatrix:
    layout = FeatureLayout.from_dict(header["layout"])
    (x,) = unpack(data, [(int(header["rows"]), layout.dimension)], dtype)
    return FeatureMatrix(
        layout=layout,
        tickers=list(header["tickers"]),
        dates=[parse_date(d) for d in header["dates"]],
        labels=list(header["labels"]),
        x=x,
    )


def load_feature_matrix(path: str | Path, dtype=np.float64) -> FeatureMatrix:
    """The matrix `write_feature_matrix` wrote, its rows as ``dtype``.

    The rows are read into one array of ``dtype``. As any other dtype
    than float64 they are cast as they are read, so the load holds no
    float64 copy of them (`codec.unpack`).
    """
    return read_blob(path, partial(_feature_matrix, dtype))
