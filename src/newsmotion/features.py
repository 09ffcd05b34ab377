"""Numeric feature blocks for labeled samples: price, BoK, PS, CT.

A feature vector is the fixed-order concatenation of the enabled blocks:
12 normalized price values, one tf-idf component per lexicon keyword
(bag-of-keywords), one signed polarity component per keyword, and one
log-count per event category. Prices are z-scored with each ticker's
training-window mean and std, which only this module computes. The
subject test behind the polarity signs reads the mentions each sentence
carries from ingest. The layout descriptor travels with every matrix and
model file (both `codec` blobs) so train and serve can never disagree on
shapes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .errors import ParseError, PipelineError, ValidationError
from .dates import DateRange, parse_date
from .ingest import PriceSeries
from .lexicon import CategoryLexicon, KeywordLexicon
from .sampling import NEGATIVE, POSITIVE, Sample, Sentence
from .tokens import tokenize, tokenize_with_offsets

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


@dataclass(frozen=True)
class PriceFeature:
    """Normalized close window plus its first and second differences."""

    p: np.ndarray  # 5 z-scored closes, oldest first
    dp: np.ndarray  # 4 first differences
    ddp: np.ndarray  # 3 second differences

    def concat(self) -> np.ndarray:
        return np.concatenate([self.p, self.dp, self.ddp])


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
) -> PriceFeature:
    """Features from the five trading closes strictly before t.

    Closes are z-scored with the supplied training-window (mean, std);
    differences are taken on the normalized values. Fewer than five prior
    closes is a skip, not an error.
    """
    mean, std = stats
    if std <= 0:
        raise ValidationError(f"{series.ticker}: std must be positive, got {std}")
    end = bisect.bisect_left(series.dates, t)
    if end < 5:
        raise FeatureSkip(INSUFFICIENT_HISTORY)
    p = (series.closes[end - 5 : end] - mean) / std
    dp = np.diff(p)
    return PriceFeature(p=p, dp=dp, ddp=np.diff(dp))


def _token_counts(sample: Sample) -> dict[str, int]:
    counts: dict[str, int] = {}
    for sentence in sample.sentences:
        for token in tokenize(sentence.text):
            counts[token] = counts.get(token, 0) + 1
    return counts


def bok_features(sample: Sample, lexicon: KeywordLexicon) -> np.ndarray:
    """tf·idf per lexicon keyword; tf is the raw token count in the sample."""
    vec = np.zeros(len(lexicon))
    for word, tf in _token_counts(sample).items():
        i = lexicon.index.get(word)
        if i is not None:
            vec[i] = tf * lexicon.entries[i].idf
    return vec


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


def ps_features(sample: Sample, lexicon: KeywordLexicon) -> np.ndarray:
    """idf-weighted polarity per keyword, sign-flipped per non-subject occurrence."""
    signed: dict[int, int] = {}
    for sentence in sample.sentences:
        for token, offset in tokenize_with_offsets(sentence.text):
            i = lexicon.index.get(token)
            if i is None:
                continue
            sign = 1 if subject_of_keyword(sentence, sample.ticker, offset) else -1
            signed[i] = signed.get(i, 0) + sign
    vec = np.zeros(len(lexicon))
    for i, total in signed.items():
        entry = lexicon.entries[i]
        vec[i] = entry.idf * total * entry.ps
    return vec


def ct_features(sample: Sample, categories: CategoryLexicon) -> np.ndarray:
    """log(1 + N_c) per category, N_c counting category-word occurrences."""
    counts = np.zeros(len(categories.categories))
    for sentence in sample.sentences:
        for token in tokenize(sentence.text):
            for ci in categories.word_categories.get(token, ()):
                counts[ci] += 1
    return np.log1p(counts)


def assemble(parts: dict[str, np.ndarray], layout: FeatureLayout) -> np.ndarray:
    """Concatenate enabled blocks in fixed order, enforcing the layout's sizes."""
    pieces = []
    for name in layout.blocks:
        part = parts.get(name)
        if part is None:
            raise ValidationError(f"block {name!r} enabled but not supplied")
        if part.shape != (layout.block_size(name),):
            raise ValidationError(
                f"block {name!r} has shape {part.shape}, "
                f"expected ({layout.block_size(name)},)"
            )
        pieces.append(part)
    return np.concatenate(pieces)


@dataclass
class FeatureMatrix:
    """Feature rows for a set of samples, aligned with per-row metadata."""

    layout: FeatureLayout
    tickers: list[str]
    dates: list[Date]
    labels: list[str]  # POSITIVE or NEGATIVE
    x: np.ndarray  # (n, layout.dimension) float64

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
    keywords: KeywordLexicon | None,
    categories: CategoryLexicon | None,
    layout: FeatureLayout,
) -> tuple[FeatureMatrix, list[tuple[str, Date, str]]]:
    """Build the feature matrix for labeled samples.

    ``stats`` holds each ticker's normalisation (see `training_stats`).
    Samples whose price block cannot be built are skipped and returned as
    (ticker, date, reason) records. Keyword and category lexicons are only
    required when the layout enables the corresponding blocks.
    """
    if ("bok" in layout.blocks or "ps" in layout.blocks) and keywords is None:
        raise ValidationError("layout enables keyword blocks but no keyword lexicon given")
    if "ct" in layout.blocks and categories is None:
        raise ValidationError("layout enables ct block but no category lexicon given")
    if keywords is not None and layout.k != len(keywords):
        raise ValidationError(
            f"layout k={layout.k} does not match lexicon size {len(keywords)}"
        )
    if categories is not None and layout.n_categories != len(categories.categories):
        raise ValidationError(
            f"layout categories={layout.n_categories} does not match "
            f"{len(categories.categories)} lexicon categories"
        )
    rows: list[np.ndarray] = []
    tickers: list[str] = []
    dates: list[Date] = []
    labels: list[str] = []
    skipped: list[tuple[str, Date, str]] = []
    for sample in samples:
        if sample.label is None:
            raise ValidationError(
                f"unlabeled sample ({sample.ticker}, {sample.date}) cannot be featurized"
            )
        try:
            parts: dict[str, np.ndarray] = {}
            if "price" in layout.blocks:
                series = prices.get(sample.ticker)
                if series is None:
                    raise FeatureSkip(NO_PRICE_HISTORY)
                normal = stats.get(sample.ticker)
                if normal is None:
                    raise FeatureSkip(UNNORMALIZABLE)
                parts["price"] = price_features(series, normal, sample.date).concat()
            if "bok" in layout.blocks:
                parts["bok"] = bok_features(sample, keywords)
            if "ps" in layout.blocks:
                parts["ps"] = ps_features(sample, keywords)
            if "ct" in layout.blocks:
                parts["ct"] = ct_features(sample, categories)
        except FeatureSkip as skip:
            skipped.append((sample.ticker, sample.date, skip.reason))
            continue
        rows.append(assemble(parts, layout))
        tickers.append(sample.ticker)
        dates.append(sample.date)
        labels.append(sample.label)
    x = (
        np.vstack(rows)
        if rows
        else np.zeros((0, layout.dimension))
    )
    return FeatureMatrix(layout, tickers, dates, labels, x), skipped


def slice_blocks(matrix: FeatureMatrix, blocks: Sequence[str]) -> FeatureMatrix:
    """Project a matrix onto a subset of its blocks, preserving row metadata.

    Lets one full featurization pass serve every block combination: the
    projected matrix is column-identical to featurizing with the smaller
    layout directly.
    """
    wanted = set(blocks)
    unknown = wanted - set(BLOCK_ORDER)
    if unknown:
        raise ValidationError(f"unknown blocks {sorted(unknown)}")
    missing = wanted - set(matrix.layout.blocks)
    if missing:
        raise ValidationError(f"matrix does not contain blocks {sorted(missing)}")
    ordered = tuple(b for b in BLOCK_ORDER if b in wanted)
    sub = FeatureLayout(
        blocks=ordered, k=matrix.layout.k, n_categories=matrix.layout.n_categories
    )
    offsets = matrix.layout.offsets()
    cols = np.concatenate([np.arange(*offsets[b]) for b in ordered])
    return FeatureMatrix(
        layout=sub,
        tickers=list(matrix.tickers),
        dates=list(matrix.dates),
        labels=list(matrix.labels),
        x=matrix.x[:, cols],
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


def _feature_matrix(header: dict, data: bytes) -> FeatureMatrix:
    layout = FeatureLayout.from_dict(header["layout"])
    (x,) = unpack(data, [(int(header["rows"]), layout.dimension)])
    return FeatureMatrix(
        layout=layout,
        tickers=list(header["tickers"]),
        dates=[parse_date(d) for d in header["dates"]],
        labels=list(header["labels"]),
        x=x,
    )


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    return read_blob(path, _feature_matrix)
