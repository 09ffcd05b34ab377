"""Test-local oracle for the featurizer: one function per feature block.

Each news block walks the sample's sentences on its own and tokenizes
them again, and a row is the concatenation of its blocks' vectors.
`newsmotion.features.featurize_samples` fills all four blocks in one
walk, in place; each block combination sliced from its matrix must
reproduce `oracle_rows` for that combination's layout byte for byte.
"""

from __future__ import annotations

import bisect
from datetime import date as Date
from typing import Mapping, Sequence

import numpy as np

from newsmotion.features import (
    INSUFFICIENT_HISTORY,
    NO_PRICE_HISTORY,
    UNNORMALIZABLE,
    FeatureLayout,
    subject_of_keyword,
)
from newsmotion.ingest import PriceSeries
from newsmotion.lexicon import CategoryLexicon, KeywordLexicon
from newsmotion.sampling import Sample
from newsmotion.tokens import tokenize, tokenize_with_offsets


def price_block(
    series: PriceSeries, stats: tuple[float, float], t: Date
) -> np.ndarray | None:
    """Five z-scored closes before t, then their first and second differences."""
    mean, std = stats
    end = bisect.bisect_left(series.dates, t)
    if end < 5:
        return None
    p = (series.closes[end - 5 : end] - mean) / std
    dp = np.diff(p)
    return np.concatenate([p, dp, np.diff(dp)])


def bok_features(sample: Sample, lexicon: KeywordLexicon) -> np.ndarray:
    """tf·idf per lexicon keyword; tf is the raw token count in the sample."""
    counts: dict[str, int] = {}
    for sentence in sample.sentences:
        for token in tokenize(sentence.text):
            counts[token] = counts.get(token, 0) + 1
    vec = np.zeros(len(lexicon))
    for word, tf in counts.items():
        i = lexicon.index.get(word)
        if i is not None:
            vec[i] = tf * lexicon.entries[i].idf
    return vec


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


def oracle_rows(
    samples: Sequence[Sample],
    prices: Mapping[str, PriceSeries],
    stats: Mapping[str, tuple[float, float]],
    keywords: KeywordLexicon,
    categories: CategoryLexicon,
    layout: FeatureLayout,
) -> tuple[np.ndarray, list[str]]:
    """The feature rows of the samples that are not skipped, and the skip reasons."""
    rows, reasons = [], []
    for sample in samples:
        parts: dict[str, np.ndarray] = {}
        if "price" in layout.blocks:
            series = prices.get(sample.ticker)
            normal = stats.get(sample.ticker)
            if series is None:
                reasons.append(NO_PRICE_HISTORY)
                continue
            if normal is None:
                reasons.append(UNNORMALIZABLE)
                continue
            parts["price"] = price_block(series, normal, sample.date)
            if parts["price"] is None:
                reasons.append(INSUFFICIENT_HISTORY)
                continue
        if "bok" in layout.blocks:
            parts["bok"] = bok_features(sample, keywords)
        if "ps" in layout.blocks:
            parts["ps"] = ps_features(sample, keywords)
        if "ct" in layout.blocks:
            parts["ct"] = ct_features(sample, categories)
        rows.append(np.concatenate([parts[b] for b in layout.blocks]))
    x = np.vstack(rows) if rows else np.zeros((0, layout.dimension))
    return x, reasons
