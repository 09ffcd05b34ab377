"""Keyword and category lexicons learned from embeddings and labeled samples.

The keyword lexicon holds the top vocabulary words by similarity to a
small set of movement seed words, together with document frequency, idf,
and a polarity score derived from how often each word appears in
positively versus negatively labeled samples. Category lexicons expand
per-category seed lists the same way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .codec import decoding, read_table, utf8_text, write_table
from .embedding import EmbeddingTable, rank_by_seed_similarity
from .errors import ParseError, ValidationError
from .sampling import NEGATIVE, POSITIVE, Sample
from .tokens import tokenize

log = logging.getLogger(__name__)

SEED_WORDS = (
    "surge",
    "rise",
    "shrink",
    "jump",
    "drop",
    "fall",
    "plunge",
    "gain",
    "slump",
)

KEYWORDS_HEADER = "word,seed_flag,similarity,df,idf,ps"
CATEGORIES_HEADER = "category,word,seed_flag,similarity"


@dataclass(frozen=True)
class KeywordEntry:
    word: str
    seed: bool
    similarity: float
    df: int
    idf: float
    ps: float


@dataclass(frozen=True)
class CategoryEntry:
    category: str
    word: str
    seed: bool
    similarity: float


class KeywordLexicon:
    """Ordered keyword list with per-word idf and polarity scores."""

    def __init__(self, entries: Sequence[KeywordEntry]):
        self.entries = list(entries)
        self.index = {e.word: i for i, e in enumerate(self.entries)}
        if len(self.index) != len(self.entries):
            raise ValidationError("duplicate words in keyword lexicon")

    def __len__(self) -> int:
        return len(self.entries)


class CategoryLexicon:
    """Per-category keyword sets in a fixed category order."""

    def __init__(self, categories: Sequence[str], entries: Sequence[CategoryEntry]):
        self.categories = list(categories)
        if len(set(self.categories)) != len(self.categories):
            raise ValidationError("duplicate category names")
        self.category_index = {c: i for i, c in enumerate(self.categories)}
        self.entries = list(entries)
        self.word_categories: dict[str, list[int]] = {}
        seen: set[tuple[str, str]] = set()
        for e in self.entries:
            if e.category not in self.category_index:
                raise ValidationError(f"entry for unknown category {e.category!r}")
            if (e.category, e.word) in seen:
                raise ValidationError(
                    f"duplicate entry {e.word!r} in category {e.category!r}"
                )
            seen.add((e.category, e.word))
            self.word_categories.setdefault(e.word, []).append(
                self.category_index[e.category]
            )


def polarity_score(pos_df: int, neg_df: int, n_pos: int, n_neg: int) -> float:
    """Add-one PMI difference between the positive and negative classes.

    Counts are at sample level: pos_df/neg_df are how many positive and
    negative samples contain the word. Swapping the classes negates the
    score exactly, because both logs see the same two products.
    """
    if min(pos_df, neg_df, n_pos, n_neg) < 0:
        raise ValidationError("counts must be non-negative")
    num = float((pos_df + 1) * (n_neg + 1))
    den = float((neg_df + 1) * (n_pos + 1))
    return math.log(num) - math.log(den)


def compute_idf(df: int, n_samples: int) -> float:
    """Smoothed inverse document frequency log((N+1)/(df+1))."""
    if df < 0 or n_samples < 0:
        raise ValidationError("counts must be non-negative")
    return math.log((n_samples + 1) / (df + 1))


def sample_tokens(sample: Sample) -> list[str]:
    tokens: list[str] = []
    for sentence in sample.sentences:
        tokens.extend(tokenize(sentence.text))
    return tokens


def _document_counts(
    samples: Sequence[Sample],
) -> tuple[dict[str, int], dict[str, int], dict[str, int], int, int]:
    df: dict[str, int] = {}
    pos_df: dict[str, int] = {}
    neg_df: dict[str, int] = {}
    n_pos = n_neg = 0
    for sample in samples:
        if sample.label == POSITIVE:
            n_pos += 1
        elif sample.label == NEGATIVE:
            n_neg += 1
        distinct = set(sample_tokens(sample))
        for word in distinct:
            df[word] = df.get(word, 0) + 1
            if sample.label == POSITIVE:
                pos_df[word] = pos_df.get(word, 0) + 1
            elif sample.label == NEGATIVE:
                neg_df[word] = neg_df.get(word, 0) + 1
    return df, pos_df, neg_df, n_pos, n_neg


def build_keyword_lexicon(
    table: EmbeddingTable, samples: Sequence[Sample], k: int
) -> KeywordLexicon:
    """Select the top-k corpus words by best similarity to a SEED_WORDS word.

    Candidates are words that occur in the given samples (seeds present in
    the embedding vocabulary always qualify). When fewer than k candidates
    exist, all of them are kept and a warning is logged.
    """
    if k <= 0:
        raise ValidationError("k must be positive")
    df, pos_df, neg_df, n_pos, n_neg = _document_counts(samples)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            "polarity scores need both positive and negative training samples"
        )
    candidates = set(df) | {s for s in SEED_WORDS if s in table}
    ranked = [
        (word, score)
        for word, score in rank_by_seed_similarity(table, SEED_WORDS)
        if word in candidates
    ]
    if len(ranked) < k:
        log.warning("only %d keyword candidates for k=%d; keeping all", len(ranked), k)
    n_samples = len(samples)
    entries = [
        KeywordEntry(
            word=word,
            seed=word in SEED_WORDS,
            similarity=score,
            df=df.get(word, 0),
            idf=compute_idf(df.get(word, 0), n_samples),
            ps=polarity_score(pos_df.get(word, 0), neg_df.get(word, 0), n_pos, n_neg),
        )
        for word, score in ranked[:k]
    ]
    return KeywordLexicon(entries)


def build_category_lexicon(
    table: EmbeddingTable,
    category_seeds: dict[str, list[str]],
    m: int,
) -> CategoryLexicon:
    """Expand each category's seed list to its top-m most similar vocabulary words."""
    if m <= 0:
        raise ValidationError("m must be positive")
    if not category_seeds:
        raise ValidationError("no categories given")
    entries: list[CategoryEntry] = []
    for category, seeds in category_seeds.items():
        if not seeds:
            raise ValidationError(f"category {category!r} has no seed words")
        try:
            ranked = rank_by_seed_similarity(table, seeds)
        except ValidationError as exc:
            raise ValidationError(f"category {category!r}: {exc}") from exc
        if len(ranked) < m:
            log.warning(
                "category %s: only %d candidates for m=%d; keeping all",
                category,
                len(ranked),
                m,
            )
        seed_set = set(seeds)
        entries.extend(
            CategoryEntry(
                category=category, word=word, seed=word in seed_set, similarity=score
            )
            for word, score in ranked[:m]
        )
    return CategoryLexicon(list(category_seeds), entries)


def load_category_seeds(path: str | Path) -> dict[str, list[str]]:
    """Parse the category seed file: '[category]' headers, one seed per line.

    A category name may not hold a comma, as it becomes a field of
    categories.csv. A line with only one of the brackets is an error, not
    a seed word: no token could match it.
    """
    path = Path(path)
    with utf8_text(path):
        text = path.read_text(encoding="utf-8")
    categories: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        opens, closes = line.startswith("["), line.endswith("]")
        if opens != closes:
            raise ParseError(f"{path}:{lineno}: a [category] header needs both brackets")
        if opens:
            current = line[1:-1].strip()
            if not current:
                raise ParseError(f"{path}:{lineno}: empty category name")
            if "," in current:
                raise ParseError(f"{path}:{lineno}: comma in category {current!r}")
            if current in categories:
                raise ParseError(f"{path}:{lineno}: duplicate category {current!r}")
            categories[current] = []
        elif current is None:
            raise ParseError(f"{path}:{lineno}: seed word before any [category] header")
        else:
            if len(line.split()) != 1:
                raise ParseError(f"{path}:{lineno}: expected one seed word per line")
            categories[current].append(line)
    if not categories:
        raise ParseError(f"{path}: no categories defined")
    for category, seeds in categories.items():
        if not seeds:
            raise ParseError(f"{path}: category {category!r} has no seed words")
    return categories


def write_keyword_lexicon(lexicon: KeywordLexicon, path: str | Path) -> None:
    rows = (
        (e.word, f"{e.seed:d}", repr(e.similarity), str(e.df), repr(e.idf), repr(e.ps))
        for e in lexicon.entries
    )
    write_table(path, KEYWORDS_HEADER, rows)


def _keyword_entry(parts: list[str]) -> KeywordEntry:
    word, seed, similarity, df, idf, ps = parts
    return KeywordEntry(
        word, bool(int(seed)), float(similarity), int(df), float(idf), float(ps)
    )


def load_keyword_lexicon(path: str | Path) -> KeywordLexicon:
    _, entries = read_table(path, KEYWORDS_HEADER, _keyword_entry)
    with decoding(path):
        return KeywordLexicon(entries)


def write_category_lexicon(lexicon: CategoryLexicon, path: str | Path) -> None:
    rows = (
        (e.category, e.word, f"{e.seed:d}", repr(e.similarity)) for e in lexicon.entries
    )
    write_table(path, CATEGORIES_HEADER, rows)


def _category_entry(parts: list[str]) -> CategoryEntry:
    category, word, seed, similarity = parts
    return CategoryEntry(category, word, bool(int(seed)), float(similarity))


def load_category_lexicon(path: str | Path) -> CategoryLexicon:
    _, entries = read_table(path, CATEGORIES_HEADER, _category_entry)
    categories = list(dict.fromkeys(e.category for e in entries))
    with decoding(path):
        return CategoryLexicon(categories, entries)
