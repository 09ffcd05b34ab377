"""From raw articles to labeled training samples.

An article body is split into sentences, sentences are scanned for stock
mentions against an alias table, and the surviving sentences are grouped
into one sample per (publication date, ticker). A sample's label is the
direction of the ticker's next trading close relative to its most recent
close on or before the publication date; ties and missing prices leave
the sample unlabeled. Splitting and the alias scan are each one compiled
pattern (see split_sentences and AliasMatcher). The alias scan runs once,
at ingest: the sample checkpoint keeps each sentence's mentions, and later
stages read them from there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .codec import read_records, utf8_text, write_records
from .errors import ParseError, ValidationError
from .dates import parse_date
from .ingest import Article, PriceSeries

POSITIVE = "positive"
NEGATIVE = "negative"

# A whitespace chunk ending in a terminator; the lookbehind anchors the
# match at the chunk's start, so the match is the whole chunk.
_SENTENCE_END = re.compile(r"(?<!\S)\S*[.?!](?!\S)")


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """The tokens whose trailing period does not end a sentence, one per
    line of the file, such as the package's ``abbreviations.txt``."""
    return frozenset(Path(path).read_text(encoding="utf-8").split())


def split_sentences(text: str, abbreviations: frozenset[str]) -> list[str]:
    """Split text at sentence terminators (. ? !).

    A sentence ends after each whitespace chunk whose last character is a
    terminator, unless the chunk ends in a period and is a known
    abbreviation. A terminator inside a chunk never ends one, which keeps
    decimal points like "3.50" intact. Output sentences are stripped
    slices of the input, so their concatenation reproduces the input up
    to whitespace.
    """
    ends = [
        m.end()
        for m in _SENTENCE_END.finditer(text)
        if not (m.group().endswith(".") and m.group() in abbreviations)
    ]
    pieces = (text[a:b].strip() for a, b in zip([0, *ends], [*ends, len(text)]))
    return [piece for piece in pieces if piece]


class AliasMatcher:
    """Longest-match scanner mapping company surface forms to tickers.

    Aliases that differ from their own upper case are company names and
    match as Python's re.IGNORECASE compares them; the others are symbols
    and match exactly. All aliases form one alternation, longest first
    and then by string, between alphanumeric boundaries, and the scan
    consumes each match, so an alias inside a longer matching alias never
    fires. A matched text maps to the ticker of the first alias in that
    order that matches it in full, which is the branch the scan took.
    """

    def __init__(self, aliases: dict[str, str]):
        if "" in aliases:
            raise ValidationError("empty alias")
        ordered = sorted(aliases.items(), key=lambda e: (-len(e[0]), e[0]))
        self._branches = [
            (re.escape(a) if a == a.upper() else f"(?i:{re.escape(a)})", ticker)
            for a, ticker in ordered
        ]
        # An empty alternation would match everywhere; (?!) matches nowhere.
        alternation = "|".join(branch for branch, _ in self._branches) or "(?!)"
        # [^\W_] is alphanumeric as str.isalnum has it: a word character but not "_".
        self._scan = re.compile(rf"(?<![^\W_])(?:{alternation})(?![^\W_])")
        self._tickers: dict[str, str] = {}

    def _ticker(self, found: str) -> str:
        ticker = self._tickers.get(found)
        if ticker is None:
            ticker = next(t for branch, t in self._branches if re.fullmatch(branch, found))
            self._tickers[found] = ticker
        return ticker

    def find(self, text: str) -> list[tuple[str, int]]:
        """All alias occurrences as (ticker, character offset), left to right."""
        return [(self._ticker(m.group()), m.start()) for m in self._scan.finditer(text)]


def load_aliases(path: str | Path) -> dict[str, str]:
    """Read the 'alias,ticker' CSV into a dict; an alias names one ticker.

    Both fields are stripped of surrounding whitespace.
    """
    path = Path(path)
    aliases: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with utf8_text(path), path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            alias, sep, ticker = line.rpartition(",")
            alias, ticker = alias.strip(), ticker.strip()
            if not sep or not alias or not ticker:
                raise ParseError(f"{path}:{lineno}: expected 'alias,ticker'")
            known = aliases.setdefault(alias, ticker)
            if known != ticker:
                raise ValidationError(
                    f"{path}:{lineno}: alias {alias!r} is given for {ticker} here"
                    f" and for {known} on line {first_line[alias]}"
                )
            first_line.setdefault(alias, lineno)
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
    abbreviations: frozenset[str],
) -> list[Sentence]:
    """Split article bodies and keep only sentences mentioning a known stock."""
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
    records = (
        {
            "ticker": s.ticker,
            "date": s.date.isoformat(),
            "label": s.label,
            "sentences": [
                {"text": sent.text, "mentions": sent.mentions} for sent in s.sentences
            ],
        }
        for s in samples
    )
    write_records(path, records)


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
