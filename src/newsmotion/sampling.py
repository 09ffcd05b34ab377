"""From raw articles to labeled training samples.

An article body is split into sentences, sentences are scanned for stock
mentions against an alias table, and the surviving sentences are grouped
into one sample per (publication date, ticker). A sample's label is the
direction of the ticker's next trading close relative to its most recent
close on or before the publication date; ties and missing prices leave
the sample unlabeled. The alias scan runs once, at ingest: the sample
checkpoint keeps each sentence's mentions, and later stages read them
from there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date as Date
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .codec import read_records
from .errors import ParseError, ValidationError
from .dates import parse_date
from .ingest import Article, PriceSeries

POSITIVE = "positive"
NEGATIVE = "negative"

_TERMINATORS = frozenset(".?!")


def default_abbreviations() -> frozenset[str]:
    text = resources.files("newsmotion.data").joinpath("abbreviations.txt").read_text()
    return _parse_abbreviations(text)


def _parse_abbreviations(text: str) -> frozenset[str]:
    out = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return frozenset(out)


def split_sentences(text: str, abbreviations: frozenset[str]) -> list[str]:
    """Split text at sentence terminators (. ? !).

    A terminator only ends a sentence when followed by whitespace or end
    of text (which also keeps decimal points like "3.50" intact), and a
    period terminating a known abbreviation never does. Output sentences
    are stripped slices of the input, so their concatenation reproduces
    the input up to whitespace.
    """
    sentences = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS:
            continue
        if i + 1 < n and not text[i + 1].isspace():
            continue
        if ch == ".":
            j = i
            while j > 0 and not text[j - 1].isspace():
                j -= 1
            if text[j : i + 1] in abbreviations:
                continue
        chunk = text[start : i + 1].strip()
        if chunk:
            sentences.append(chunk)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


class AliasMatcher:
    """Longest-match scanner mapping company surface forms to tickers.

    Aliases with any lowercase letter are company names and match
    case-insensitively; all-caps aliases are symbols and match exactly.
    Matches must start and end at non-alphanumeric boundaries, and the
    scan consumes each match, so an alias inside a longer matching alias
    never fires.
    """

    def __init__(self, aliases: dict[str, str]):
        # first character -> (alias, lowered alias or None, ticker), longest first
        buckets: dict[str, list[tuple[str, str | None, str]]] = {}
        for alias, ticker in aliases.items():
            if not alias:
                raise ValidationError("empty alias")
            case_sensitive = alias == alias.upper()
            entry = (alias, None if case_sensitive else alias.lower(), ticker)
            first = alias[0]
            keys = {first} if case_sensitive else {first.lower(), first.upper()}
            for key in keys:
                buckets.setdefault(key, []).append(entry)
        self._buckets = {
            key: sorted(entries, key=lambda e: (-len(e[0]), e[0]))
            for key, entries in buckets.items()
        }

    def find(self, text: str) -> list[tuple[str, int]]:
        """All alias occurrences as (ticker, character offset), left to right."""
        mentions = []
        n = len(text)
        i = 0
        while i < n:
            matched = 0
            for alias, lowered, ticker in self._buckets.get(text[i], ()):
                end = i + len(alias)
                if end > n:
                    continue
                piece = text[i:end]
                if lowered is None:
                    if piece != alias:
                        continue
                elif piece.lower() != lowered:
                    continue
                if i > 0 and text[i - 1].isalnum():
                    continue
                if end < n and text[end].isalnum():
                    continue
                mentions.append((ticker, i))
                matched = len(alias)
                break
            i += matched if matched else 1
        return mentions


def load_aliases(path: str | Path) -> dict[str, str]:
    """Read the 'alias,ticker' CSV into a dict."""
    path = Path(path)
    aliases: dict[str, str] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            alias, sep, ticker = line.rpartition(",")
            if not sep or not alias or not ticker.strip():
                raise ParseError(f"{path}:{lineno}: expected 'alias,ticker'")
            aliases[alias] = ticker.strip()
    return aliases


@dataclass(frozen=True)
class Sentence:
    text: str
    article_date: Date
    mentions: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for _, offset in self.mentions:
            if not 0 <= offset < len(self.text):
                raise ValidationError(
                    f"mention offset {offset} outside sentence of length {len(self.text)}"
                )

    def tickers(self) -> list[str]:
        seen = []
        for ticker, _ in self.mentions:
            if ticker not in seen:
                seen.append(ticker)
        return seen


@dataclass(frozen=True)
class Sample:
    """All sentences from one date that mention one ticker."""

    ticker: str
    date: Date
    sentences: tuple[Sentence, ...]
    label: str | None  # POSITIVE, NEGATIVE, or None when unlabeled


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Sample, ...]
    validation: tuple[Sample, ...]
    test: tuple[Sample, ...]


def extract_sentences(
    articles: Iterable[Article],
    matcher: AliasMatcher,
    abbreviations: frozenset[str] | None = None,
) -> list[Sentence]:
    """Split article bodies and keep only sentences mentioning a known stock."""
    if abbreviations is None:
        abbreviations = default_abbreviations()
    kept = []
    for article in articles:
        for text in split_sentences(article.body, abbreviations):
            mentions = matcher.find(text)
            if mentions:
                kept.append(
                    Sentence(
                        text=text,
                        article_date=article.date,
                        mentions=tuple(mentions),
                    )
                )
    return kept


def movement_label(series: PriceSeries, d: Date) -> str | None:
    """Direction of the first close after d relative to the last close on or before d.

    News published on a non-trading day is judged against the next trading
    close versus the most recent prior close. Equal closes or missing
    prices yield None.
    """
    i = series.last_index_on_or_before(d)
    j = series.first_index_after(d)
    if i is None or j is None:
        return None
    ref = series.closes[i]
    nxt = series.closes[j]
    if nxt > ref:
        return POSITIVE
    if nxt < ref:
        return NEGATIVE
    return None


def build_samples(
    sentences: Sequence[Sentence], prices: Mapping[str, PriceSeries]
) -> list[Sample]:
    """Group sentences into one sample per (date, ticker) and label each.

    A sentence mentioning k distinct tickers lands in k samples. Output is
    sorted by (date, ticker) so downstream stages are reproducible.
    """
    grouped: dict[tuple[Date, str], list[Sentence]] = {}
    for sentence in sentences:
        for ticker in sentence.tickers():
            grouped.setdefault((sentence.article_date, ticker), []).append(sentence)
    samples = []
    for (d, ticker) in sorted(grouped):
        series = prices.get(ticker)
        label = movement_label(series, d) if series is not None else None
        samples.append(
            Sample(ticker=ticker, date=d, sentences=tuple(grouped[(d, ticker)]), label=label)
        )
    return samples


def split_by_date(
    samples: Sequence[Sample], train_end: Date, valid_end: Date
) -> DatasetSplit:
    """Partition labeled samples by date; boundaries are inclusive upper bounds."""
    if train_end >= valid_end:
        raise ValidationError(
            f"train_end {train_end} must precede valid_end {valid_end}"
        )
    train, validation, test = [], [], []
    for sample in samples:
        if sample.label is None:
            continue
        if sample.date <= train_end:
            train.append(sample)
        elif sample.date <= valid_end:
            validation.append(sample)
        else:
            test.append(sample)
    return DatasetSplit(tuple(train), tuple(validation), tuple(test))


def write_samples(samples: Iterable[Sample], path: str | Path) -> None:
    """Checkpoint samples as one JSON record per line.

    A record holds ticker, date, label and sentences; each sentence is
    its text with its mentions as [ticker, offset] pairs.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            record = {
                "ticker": s.ticker,
                "date": s.date.isoformat(),
                "label": s.label,
                "sentences": [
                    {"text": sent.text, "mentions": sent.mentions}
                    for sent in s.sentences
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _sentence(record, ticker: str, d: Date) -> Sentence:
    """One checkpointed sentence of ticker's sample: text and mention pairs."""
    if not isinstance(record, dict):
        raise ValidationError("sentence is not an object with text and mentions")
    mentions = tuple(tuple(pair) for pair in record["mentions"])
    for pair in mentions:
        if len(pair) != 2 or not isinstance(pair[0], str) or type(pair[1]) is not int:
            raise ValidationError(f"bad mention {list(pair)!r}")
    if ticker not in (t for t, _ in mentions):
        raise ValidationError(f"a sentence does not mention {ticker}")
    return Sentence(text=record["text"], article_date=d, mentions=mentions)


def _sample(record: dict) -> Sample:
    d = parse_date(record["date"])
    label = record["label"]
    if label is not None and label not in (POSITIVE, NEGATIVE):
        raise ValidationError(f"bad label {label!r}")
    ticker = record["ticker"]
    sentences = tuple(_sentence(s, ticker, d) for s in record["sentences"])
    return Sample(ticker, d, sentences, label)


def load_samples(path: str | Path) -> list[Sample]:
    """Rehydrate checkpointed samples with the mentions ingest found.

    Raises ParseError naming the line on bad JSON, a missing field, or a
    sentence whose mentions do not include the sample's ticker.
    """
    return list(read_records(path, _sample))
