"""Tests for the synthetic prices-and-news fixture generator."""

from __future__ import annotations

import hashlib
from datetime import date
from pathlib import Path

import pytest

from newsmotion.config import PACKAGED, SYNTH_NAMES, SynthConfig
from newsmotion.dates import DateRange
from newsmotion.errors import ValidationError
from newsmotion.graph import build_graph
from newsmotion.ingest import load_articles, load_prices
from newsmotion.sampling import (
    AliasMatcher,
    build_samples,
    extract_sentences,
    load_abbreviations,
    load_aliases,
)
from newsmotion.synth import _STEMS, generate_synthetic_fixture

ABBR = load_abbreviations(PACKAGED["abbreviations"])

SMALL = SynthConfig(
    tickers=9,
    group_count=3,
    group_size=3,
    actives_per_group=2,
    start=date(2012, 1, 2),
    end=date(2012, 6, 29),
    news_start=date(2012, 1, 16),
    samples_per_day=4.0,
    seed=7,
)


def _ticker_index(symbol: str) -> int:
    return int("".join(ch for ch in symbol if ch.isdigit()))


def _paths(out_dir: Path) -> tuple[Path, Path, Path]:
    """The articles, prices and aliases paths of a fixture under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "articles.jsonl", out_dir / "prices.csv", out_dir / "aliases.csv"


class TestDeterminism:
    def test_same_config_writes_byte_identical_files(self, tmp_path):
        a, b = _paths(tmp_path / "a"), _paths(tmp_path / "b")
        generate_synthetic_fixture(SMALL, *a)
        generate_synthetic_fixture(SMALL, *b)
        for first, second in zip(a, b):
            assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_the_articles(self, tmp_path):
        a, b = _paths(tmp_path / "a"), _paths(tmp_path / "b")
        generate_synthetic_fixture(SMALL, *a)
        reseeded = SynthConfig(
            tickers=SMALL.tickers,
            group_count=SMALL.group_count,
            group_size=SMALL.group_size,
            actives_per_group=SMALL.actives_per_group,
            start=SMALL.start,
            end=SMALL.end,
            news_start=SMALL.news_start,
            samples_per_day=SMALL.samples_per_day,
            seed=8,
        )
        generate_synthetic_fixture(reseeded, *b)
        assert a[0].read_bytes() != b[0].read_bytes()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _paths(tmp_path_factory.mktemp("synth"))


@pytest.fixture(scope="module")
def fixture(paths):
    return generate_synthetic_fixture(SMALL, *paths)


class TestGeneratedFiles:
    def test_summary_counts_are_consistent(self, fixture, paths):
        assert fixture.tickers == 9
        assert fixture.active_tickers + fixture.quiet_tickers == 9
        assert fixture.quiet_tickers == 3
        weekdays = sum(
            1 for d in DateRange(SMALL.start, SMALL.end).days() if d.weekday() < 5
        )
        assert fixture.trading_days == weekdays
        assert fixture.articles == len(list(load_articles(paths[0])))

    def test_all_tickers_priced_on_every_trading_day(self, fixture, paths):
        prices = load_prices(paths[1])
        assert len(prices) == 9
        for series in prices.values():
            assert len(series.dates) == fixture.trading_days

    def test_aliases_cover_names_and_symbols(self, fixture, paths):
        aliases = load_aliases(paths[2])
        tickers = set(aliases.values())
        assert len(tickers) == 9
        for ticker in tickers:
            named = [a for a, t in aliases.items() if t == ticker and a != ticker]
            assert ticker in aliases and len(named) == 1

    def test_quiet_members_never_reach_the_news(self, fixture, paths):
        aliases = load_aliases(paths[2])
        matcher = AliasMatcher(aliases)
        sentences = extract_sentences(load_articles(paths[0]), matcher, ABBR)
        mentioned = {t for s in sentences for t in s.tickers()}
        quiet = {
            t
            for t in set(aliases.values())
            if _ticker_index(t) % SMALL.group_size >= SMALL.actives_per_group
        }
        assert len(quiet) == fixture.quiet_tickers
        assert not mentioned & quiet
        assert len(mentioned) == fixture.active_tickers

    def test_expected_samples_matches_the_ingest_pipeline(self, fixture, paths):
        articles, prices_path, aliases = paths
        prices = load_prices(prices_path)
        matcher = AliasMatcher(load_aliases(aliases))
        sentences = extract_sentences(load_articles(articles), matcher, ABBR)
        samples = build_samples(sentences, prices)
        labeled = [s for s in samples if s.label is not None]
        assert len(labeled) == fixture.expected_samples

    def test_groups_reappear_as_correlation_edges(self, tmp_path):
        config = SynthConfig(
            tickers=9,
            group_count=3,
            group_size=3,
            actives_per_group=2,
            start=date(2012, 1, 2),
            end=date(2012, 12, 31),
            news_start=date(2012, 2, 1),
            driver_weight=0.98,
            seed=11,
        )
        articles, prices_path, aliases = _paths(tmp_path)
        generate_synthetic_fixture(config, articles, prices_path, aliases)
        window = DateRange(config.start, config.end)
        prices = load_prices(prices_path)
        graph = build_graph(
            prices, list(prices), window=window, threshold=0.8, min_overlap=60
        )
        found = {
            tuple(sorted((graph.nodes[i], graph.nodes[j])))
            for i, j, _ in graph.edges()
        }
        expected = set()
        nodes = list(prices)
        for a in nodes:
            for b in nodes:
                ga, gb = _ticker_index(a) // 3, _ticker_index(b) // 3
                if a < b and ga == gb:
                    expected.add((a, b))
        assert found == expected


class TestDefaultFixture:
    # The fixture of the default config (seed 7), pinned so that a change in
    # how synth draws or frames its files shows here. Measured with numpy 2.4.6.
    DIGESTS = {
        "aliases.csv": "d9e50bf128d73a204e7b181953f8fa18e73e59c2600007f21652559ef5b6f335",
        "articles.jsonl": "7a22a3150f37f208f25dfdf278b3248c5089def154c9f0addb29476fd7a22720",
        "prices.csv": "fa00fd104fa37810b96729c542c0194fc0fde8a24a2a7b6f5b32d333fe135780",
    }

    def test_default_config_writes_the_pinned_bytes(self, tmp_path):
        paths = _paths(tmp_path)
        generate_synthetic_fixture(SynthConfig(), *paths)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == self.DIGESTS


class TestSynthConfig:
    def test_ticker_cap_is_the_number_of_names(self):
        assert SYNTH_NAMES == len(_STEMS)
        SynthConfig(tickers=SYNTH_NAMES, group_count=0)
        with pytest.raises(ValidationError, match=f"1..{len(_STEMS)}"):
            SynthConfig(tickers=SYNTH_NAMES + 1)

    def test_group_layout_validated(self):
        with pytest.raises(ValidationError):
            SynthConfig(tickers=5, group_count=2, group_size=3)
        with pytest.raises(ValidationError):
            SynthConfig(group_size=3, actives_per_group=3)
        with pytest.raises(ValidationError):
            SynthConfig(group_size=1, actives_per_group=1)

    def test_date_ordering_validated(self):
        with pytest.raises(ValidationError):
            SynthConfig(start=date(2012, 1, 2), end=date(2012, 6, 1), news_start=date(2011, 1, 1))

    def test_noise_range_validated(self):
        with pytest.raises(ValidationError):
            SynthConfig(noise=0.6)
        with pytest.raises(ValidationError):
            SynthConfig(noise=-0.1)

    def test_rate_and_weight_validated(self):
        with pytest.raises(ValidationError):
            SynthConfig(samples_per_day=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(driver_weight=1.5)
        with pytest.raises(ValidationError):
            SynthConfig(volatility=0.0)
