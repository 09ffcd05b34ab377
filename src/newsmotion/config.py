"""Pipeline configuration: one INI file, full defaults, flag overrides win.

The schema is one frozen :class:`~newsmotion.record.Record` per INI
section, all defined here: ``[paths]``, ``[dates]``, ``[lexicon]``,
``[embedding]`` (:class:`SkipGramConfig`), ``[training]``
(:class:`TrainConfig`), ``[graph]``, ``[sweep]``, ``[synth]``
(:class:`SynthConfig`) and ``[pipeline]`` (:class:`RunConfig`). The
embedding, mlp and synth modules import their section's class from here.
This module imports no numpy, no stage module and no ``dataclasses``, so
a stage that only checks its manifest stays cheap. A section's keys,
defaults and types are its annotated fields, read once at import into
``SCHEMA``, and its ``__post_init__`` is the only range check for it;
only the ordering of the ``[dates]`` boundaries is checked here. The one
``pipeline.seed`` key fills the ``seed`` field of the embedding and
training sections, which have no ``seed`` key of their own.

Every key has a default, so an empty config file runs the whole pipeline
on files named ``articles.jsonl``, ``prices.csv``, and ``aliases.csv``
next to the config. Relative paths resolve against the config file's
directory. Overrides use dotted ``section.key=value`` form. An empty
value of an optional key means None. A ``;`` after whitespace starts a
comment, so the README's annotated block loads as written.
"""

# No ``from __future__ import annotations``: ``SCHEMA`` takes each key's
# type from its section's annotations, evaluated as the class is defined.

import configparser
import math
from datetime import date as Date
from pathlib import Path
from typing import Any, Callable, Sequence, get_args

from .dates import DateRange, iso_date
from .errors import ConfigError, ValidationError
from .record import Record

# How many tickers synth can name: the length of its ``_STEMS``.
SYNTH_NAMES = 52

# The data files the package ships, by key: a unit reads one as its input
# ``data.<key>``, or as ``paths.<key>`` when that key is left blank.
PACKAGED = {
    key: Path(__file__).resolve().parent / "data" / f"{key}.txt"
    for key in ("abbreviations", "category_seeds")
}


class PathsConfig(Record):
    """[paths]: the input files and the work dir."""

    articles: Path = Path("articles.jsonl")
    prices: Path = Path("prices.csv")
    aliases: Path = Path("aliases.csv")
    category_seeds: Path | None = None  # None means the packaged seed list
    work_dir: Path = Path("work")


class DatesConfig(Record):
    """[dates]: the boundaries of the train, validation and test splits."""

    train_start: Date = Date(1900, 1, 1)
    train_end: Date = Date(2012, 12, 31)
    valid_end: Date = Date(2013, 6, 15)


class LexiconConfig(Record):
    """[lexicon]: how many keywords and words per category to keep."""

    keywords: int = 1000
    category_words: int = 100

    def __post_init__(self):
        for name in ("keywords", "category_words"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


class GraphConfig(Record):
    """[graph]: the correlation graph and how predictions spread over it."""

    threshold: float = 0.8
    min_overlap: int = 252
    window_start: Date | None = None  # no start and end mean all common dates
    window_end: Date | None = None
    iterations: int = 1
    clamp_observed: bool = False

    def __post_init__(self):
        if not 0 <= self.threshold <= 1:
            raise ValidationError("threshold must be in [0, 1]")
        if self.min_overlap < 2:
            raise ValidationError("min_overlap must be at least 2")
        if self.iterations < 0:
            raise ValidationError("iterations must be non-negative")
        if (self.window_start is None) != (self.window_end is None):
            raise ValidationError("window_start and window_end must be set together")
        if self.window_start is not None and self.window_start > self.window_end:
            raise ValidationError(
                f"graph window {self.window_start}..{self.window_end} is empty"
            )

    @property
    def window(self) -> DateRange | None:
        if self.window_start is None:
            return None
        return DateRange(self.window_start, self.window_end)


class SweepConfig(Record):
    """[sweep]: the propagation thresholds swept and the one predict uses."""

    taus: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    predict_tau: float = 0.8

    def __post_init__(self):
        if not self.taus:
            raise ValidationError("taus needs at least one value")
        if any(t < 0 for t in self.taus):
            raise ValidationError("taus must be non-negative")
        if self.predict_tau < 0:
            raise ValidationError("predict_tau must be non-negative")


class SkipGramConfig(Record):
    """[embedding]: the skip-gram word embedding."""

    dimension: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 5
    seed: int = 1

    def __post_init__(self):
        for name in ("dimension", "window", "negatives", "epochs", "min_count"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")


class TrainConfig(Record):
    """[training]: the movement classifier and its training."""

    hidden: tuple[int, ...] = (1024, 1024, 1024, 1024)
    learning_rate: float = 0.05
    decay: float = 0.5
    decay_every: int = 10
    batch_size: int = 64
    epochs: int = 30
    l2: float = 0.0
    seed: int = 1
    patience: int = 8  # epochs without validation improvement; 0 disables

    def __post_init__(self):
        if not self.hidden:
            raise ValidationError("hidden needs at least one layer size")
        if any(h <= 0 for h in self.hidden):
            raise ValidationError(f"hidden sizes must be positive, got {self.hidden}")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if not 0 < self.decay <= 1:
            raise ValidationError("decay must be in (0, 1]")
        if self.decay_every <= 0 or self.batch_size <= 0:
            raise ValidationError("decay_every and batch_size must be positive")
        if self.epochs < 0 or self.l2 < 0 or self.patience < 0:
            raise ValidationError("epochs, l2, and patience must be non-negative")


class SynthConfig(Record):
    """[synth]: the synthetic fixture's size, calendar and dynamics."""

    tickers: int = 50
    group_count: int = 12
    group_size: int = 3
    actives_per_group: int = 2
    start: Date = Date(2011, 1, 3)
    end: Date = Date(2013, 12, 31)
    news_start: Date = Date(2011, 2, 1)
    samples_per_day: float = 7.0
    noise: float = 0.1
    driver_weight: float = 0.97
    mean_reversion: float = 0.9
    volatility: float = 0.08
    seed: int = 7

    def __post_init__(self):
        if not 0 < self.tickers <= SYNTH_NAMES:
            raise ValidationError(
                f"tickers must be in 1..{SYNTH_NAMES}, got {self.tickers}"
            )
        if self.group_count < 0 or self.group_size < 2:
            raise ValidationError("need group_size >= 2 and group_count >= 0")
        if not 1 <= self.actives_per_group < self.group_size:
            raise ValidationError(
                "actives_per_group must leave at least one quiet member per group"
            )
        if self.group_count * self.group_size > self.tickers:
            raise ValidationError("groups need more tickers than available")
        if not self.start <= self.news_start <= self.end:
            raise ValidationError("need start <= news_start <= end")
        if self.samples_per_day <= 0:
            raise ValidationError("samples_per_day must be positive")
        if not 0 <= self.noise <= 0.5:
            raise ValidationError("noise must be in [0, 0.5]")
        if not 0 < self.driver_weight <= 1:
            raise ValidationError("driver_weight must be in (0, 1]")
        if not 0 <= self.mean_reversion < 1:
            raise ValidationError("mean_reversion must be in [0, 1)")
        if self.volatility <= 0:
            raise ValidationError("volatility must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


class RunConfig(Record):
    """[pipeline]: the master seed and the store's size."""

    seed: int = 1  # master seed for embeddings and training
    store_entries: int = 4  # past outputs kept per cache unit; 0 keeps none

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.store_entries < 0:
            raise ValidationError("store_entries must be non-negative")


class PipelineConfig(Record):
    """Typed view of the merged defaults, config file, and overrides.

    One field per INI section, named after it.
    """

    paths: PathsConfig
    dates: DatesConfig
    lexicon: LexiconConfig
    embedding: SkipGramConfig
    training: TrainConfig
    graph: GraphConfig
    sweep: SweepConfig
    synth: SynthConfig
    pipeline: RunConfig


# Sections whose ``seed`` field is pipeline.seed rather than a key of their own.
_SEEDED = ("embedding", "training")

SECTIONS: dict[str, type] = dict(PipelineConfig.__annotations__)

# The full schema: section -> its keys, each with its type, in field order.
SCHEMA: dict[str, dict[str, Any]] = {
    name: {
        key: kind
        for key, kind in cls.__annotations__.items()
        if not (name in _SEEDED and key == "seed")
    }
    for name, cls in SECTIONS.items()
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text: str) -> bool:
    value = text.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(text)


def _items(kind: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda text: tuple(kind(part) for part in text.split(",") if part.strip())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _path(text: str) -> Path:
    if not text:
        raise ValueError("empty path")
    return Path(text)


# Field type -> (what a value must look like, parser of its config text).
_PARSERS: dict[Any, tuple[str, Callable[[str], Any]]] = {
    int: ("an integer", int),
    float: ("a finite number", _finite),
    bool: ("a boolean", _bool),
    Date: ("a YYYY-MM-DD date", iso_date),
    tuple[int, ...]: ("comma-separated integers", _items(int)),
    tuple[float, ...]: ("comma-separated finite numbers", _items(_finite)),
    Path: ("a non-empty path", _path),
}


def _parse(kind: Any, text: str, key: str) -> Any:
    args = get_args(kind)
    if type(None) in args:  # optional: empty means None
        if not text:
            return None
        (kind,) = (a for a in args if a is not type(None))
    what, parse = _PARSERS[kind]
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {what}, got {text!r}") from exc


def _section(name: str, given: dict[str, str], base: Path, **extra: Any) -> Any:
    """Build one section from its given values, defaults filling the rest."""
    cls = SECTIONS[name]
    values = dict(extra)
    for key, kind in SCHEMA[name].items():
        if key in given:
            value = _parse(kind, given[key], f"{name}.{key}")
        else:
            value = cls._field_defaults[key]
        values[key] = base / value if isinstance(value, Path) else value
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _merge(path: Path, overrides: Sequence[str]) -> dict[str, dict[str, str]]:
    """The values the file and the overrides give, per section."""
    merged: dict[str, dict[str, str]] = {section: {} for section in SCHEMA}
    parser = configparser.RawConfigParser(inline_comment_prefixes=(";",))
    parser.optionxform = str  # keep keys case-sensitive
    try:
        with path.open("r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in merged:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            merged[section][key] = value.strip()
    for item in overrides:
        dotted, sep, value = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if key not in SCHEMA.get(section, ()):
            raise ConfigError(f"override names unknown key {section}.{key}")
        merged[section][key] = value.strip()
    return merged


def load_config(path: str | Path, overrides: Sequence[str]) -> PipelineConfig:
    """Parse and validate the config; raises ConfigError before any work runs."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    base = path.resolve().parent
    given = _merge(path, overrides)
    seed = _section("pipeline", given["pipeline"], base).seed
    sections = {}
    for name in SECTIONS:
        extra = {"seed": seed} if name in _SEEDED else {}
        sections[name] = _section(name, given[name], base, **extra)
    config = PipelineConfig(**sections)
    dates = config.dates
    if dates.train_start > dates.train_end:
        raise ConfigError("dates.train_start must not be after dates.train_end")
    if dates.train_end >= dates.valid_end:
        raise ConfigError("dates.train_end must precede dates.valid_end")
    return config
