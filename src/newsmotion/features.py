"""Numeric feature blocks for labeled samples: price, BoK, PS, CT.

A feature vector is the concatenation of four blocks in `BLOCK_ORDER`:
12 normalized price values, one tf-idf component per lexicon keyword
(bag-of-keywords), one signed polarity component per keyword, and one
log-count per event category. The featurizer always fills all four; a
subset of blocks is a set of column runs of that matrix, and
`block_columns` is the one place that computes a subset's layout and
where its columns sit in the full rows.
Most entries are zero, so a `FeatureMatrix` holds its rows as a packed
bit mask of the entries whose bits are not all zero, plus their values
in row-major order, in memory and in its file alike, and
`FeatureMatrix.decode` is the one way to read them: it writes chosen
rows' column runs into a buffer of the caller's dtype and layout. So
training decodes each mini-batch straight into its float32 batch
buffer, scoring decodes a block subset's rows as float64, and no dense
copy of a matrix is made.
Prices are z-scored with each ticker's training-window mean and std,
which only this module computes. The three news blocks are counts over
the same tokens, so each sentence is tokenized once and that one walk
fills all of them; each row is written into a small dense block of rows,
which is packed once full. The subject test behind the polarity signs
reads the mentions each sentence carries from ingest. The layout
descriptor travels with every matrix and model file (both `codec`
blobs) so train and serve can never disagree on shapes.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field
from datetime import date as Date
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


# `featurize_samples` packs its rows this many at a time.
_PACK_ROWS = 64
# `FeatureMatrix.decode` keeps its temporaries (unpacked mask bits, value
# indices and values) near this many bytes, at the matrix's mean number of
# values a row.
_DECODE_BYTES = 1 << 18


@dataclass
class FeatureMatrix:
    """Feature rows for a set of samples, aligned with per-row metadata.

    The rows are held as ``mask``, (n, ceil(dimension / 8)) uint8, the
    `np.packbits` of the entries whose bits are not all zero, so that a
    -0.0 is kept, and ``values``, those entries in row-major order, as
    float64. Padding bits are clear, the mask sets one bit per value, and
    no value's bits are all zero.
    """

    layout: FeatureLayout
    tickers: list[str]
    dates: list[Date]
    labels: list[str]  # POSITIVE or NEGATIVE
    mask: np.ndarray
    values: np.ndarray
    # row i's values are values[starts[i] : starts[i + 1]]
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.tickers)
        if not (len(self.dates) == len(self.labels) == n):
            raise ValidationError("metadata columns have mismatched lengths")
        unknown = set(self.labels) - {POSITIVE, NEGATIVE}
        if unknown:
            raise ValidationError(f"unknown movement labels {sorted(unknown)}")
        dim = self.layout.dimension
        shape = (n, -(-dim // 8))
        if self.mask.dtype != np.uint8 or self.mask.shape != shape:
            raise ValidationError(
                f"mask of {self.mask.dtype} {self.mask.shape} does not match "
                f"{n} rows of dimension {dim}: expected uint8 {shape}"
            )
        values = self.values
        if values.dtype != np.float64 or values.ndim != 1:
            raise ValidationError(
                f"values must be one float64 run, got {values.dtype} {values.shape}"
            )
        if dim % 8 and n and np.any(self.mask[:, -1] & (0xFF >> dim % 8)):
            raise ValidationError("mask sets a padding bit")
        self.starts = np.zeros(n + 1, np.int64)
        np.cumsum(np.bitwise_count(self.mask).sum(axis=1), out=self.starts[1:])
        if self.starts[-1] != values.size:
            raise ValidationError(
                f"mask sets {self.starts[-1]} entries but "
                f"{values.size} values are given"
            )
        bits = values.view(f"u{values.itemsize}")
        if np.count_nonzero(bits) != bits.size:
            raise ValidationError("a stored value is zero")

    def __len__(self) -> int:
        return len(self.tickers)

    @property
    def rows_per_decode(self) -> int:
        """How many rows `decode` decodes at a time (`_DECODE_BYTES`)."""
        values_per_row = self.values.size / max(1, len(self))
        # a byte per unpacked mask bit, an int64 index and a float64 a value
        per_row = self.layout.dimension + 16 * values_per_row
        return max(1, int(_DECODE_BYTES // per_row))

    def decode(
        self,
        out: np.ndarray,
        rows: np.ndarray | slice = slice(None),
        runs: Sequence[tuple[slice, slice]] | None = None,
    ) -> np.ndarray:
        """Writes ``rows``, in the column runs of `block_columns`, into ``out``.

        ``out`` is (..., width), of any dtype and strides, and is returned:
        its positions before the last axis take the rows in C order. Each
        value is cast to its dtype as it is written, and every entry the
        mask leaves clear becomes zero. ``runs`` default to every column;
        their ``dst`` runs fill ``out``'s width in order. Rows are decoded
        `rows_per_decode` at a time, or a whole position of ``out``'s first
        axis at a time when that holds more.
        """
        dim = self.layout.dimension
        keep = None
        if runs is not None and [src for src, _ in runs] != [slice(0, dim)]:
            keep = np.zeros(dim, bool)
            for src, _ in runs:
                keep[src] = True
        if not isinstance(rows, np.ndarray):
            rows = np.arange(len(self))[rows]
        out[...] = 0
        inner = math.prod(out.shape[1:-1])  # rows a position of axis 0 takes
        step = max(1, self.rows_per_decode // inner)
        for at in range(0, len(out), step):
            chunk = rows[at * inner : (at + step) * inner]
            # the chunk's values: row i's run of them starts at lo[i]
            lo = self.starts[chunk]
            counts = self.starts[chunk + 1] - lo
            ends = np.cumsum(counts)
            index = np.repeat(lo - ends + counts, counts)
            index += np.arange(ends[-1])
            values = self.values[index]
            bits = np.unpackbits(self.mask[chunk], axis=1, count=dim).view(bool)
            if keep is not None:
                values = values[np.broadcast_to(keep, bits.shape)[bits]]
                bits = bits[:, keep]
            part = out[at : at + step]
            part[bits.reshape(part.shape)] = values
        return out


def _shared(items: Iterable[str]) -> list[str]:
    """The strings as a list in which equal strings are one object."""
    seen: dict[str, str] = {}
    return [seen.setdefault(item, item) for item in items]


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
    reason) records. Rows are filled into a dense block of `_PACK_ROWS`
    rows, which is packed into the mask and values once full, so no dense
    matrix is made.
    """
    layout = FeatureLayout(
        BLOCK_ORDER, k=len(keywords), n_categories=len(categories.categories)
    )
    mask = np.zeros((len(samples), -(-layout.dimension // 8)), np.uint8)
    values = array("d")
    block = np.zeros((_PACK_ROWS, layout.dimension))
    tickers: list[str] = []
    dates: list[Date] = []
    labels: list[str] = []
    skipped: list[tuple[str, Date, str]] = []

    def pack(n: int) -> None:
        """Packs the block's first n rows, the last rows filled, and zeroes them."""
        rows = block[:n]
        bits = rows.view(np.uint64) != 0
        mask[len(tickers) - n : len(tickers)] = np.packbits(bits, axis=1)
        values.frombytes(rows[bits].view(np.uint8))
        rows[...] = 0.0

    for sample in samples:
        if sample.label is None:
            raise ValidationError(
                f"unlabeled sample ({sample.ticker}, {sample.date}) cannot be featurized"
            )
        # A skipped sample writes nothing, so the next one reuses its row.
        row = block[len(tickers) % _PACK_ROWS]
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
        if len(tickers) % _PACK_ROWS == 0:
            pack(_PACK_ROWS)
    pack(len(tickers) % _PACK_ROWS)
    matrix = FeatureMatrix(
        layout,
        tickers,
        dates,
        labels,
        mask[: len(tickers)],
        np.frombuffer(values, dtype=np.float64),
    )
    return matrix, skipped


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


def write_feature_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    """A blob: the layout, row metadata and value count in the header, then
    the mask (``|u1``) and the values (``<f8`` as `featurize_samples` makes
    them)."""
    header = {
        "layout": matrix.layout.to_dict(),
        "rows": len(matrix),
        "values": matrix.values.size,
        "tickers": matrix.tickers,
        "dates": [d.isoformat() for d in matrix.dates],
        "labels": matrix.labels,
    }
    write_blob(path, header, [matrix.mask, matrix.values])


def _feature_matrix(header: dict, data: BinaryIO) -> FeatureMatrix:
    layout = FeatureLayout.from_dict(header["layout"])
    shapes = [(int(header["rows"]), -(-layout.dimension // 8)), (int(header["values"]),)]
    mask, values = unpack(data, header, shapes)
    # each distinct day is parsed once, and equal strings are one object
    days = {text: parse_date(text) for text in dict.fromkeys(header["dates"])}
    return FeatureMatrix(
        layout=layout,
        tickers=_shared(header["tickers"]),
        dates=[days[text] for text in header["dates"]],
        labels=_shared(header["labels"]),
        mask=mask,
        values=values,
    )


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """The matrix `write_feature_matrix` wrote.

    The mask and the values are each read into one array in their stored
    dtypes (`codec.unpack`). A mask or values that break `FeatureMatrix`'s
    rules are a `ParseError` naming the file.
    """
    return read_blob(path, _feature_matrix)
