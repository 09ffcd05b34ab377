"""Tests for the synthetic prices-and-news fixture generator."""

from __future__ import annotations

from datetime import date

import pytest

from newsmotion.config import SYNTH_NAMES, SynthConfig
from newsmotion.dates import DateRange
from newsmotion.errors import ValidationError
from newsmotion.graph import build_graph
from newsmotion.ingest import load_articles, load_prices
from newsmotion.sampling import (
    AliasMatcher,
    build_samples,
    extract_sentences,
    load_aliases,
)
from newsmotion.synth import _STEMS, generate_synthetic_fixture

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


class TestDeterminism:
    def test_same_config_writes_byte_identical_files(self, tmp_path):
        a = generate_synthetic_fixture(SMALL, tmp_path / "a")
        b = generate_synthetic_fixture(SMALL, tmp_path / "b")
        for first, second in (
            (a.articles_path, b.articles_path),
            (a.prices_path, b.prices_path),
            (a.aliases_path, b.aliases_path),
        ):
            assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_the_articles(self, tmp_path):
        a = generate_synthetic_fixture(SMALL, tmp_path / "a")
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
        b = generate_synthetic_fixture(reseeded, tmp_path / "b")
        assert a.articles_path.read_bytes() != b.articles_path.read_bytes()


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    return generate_synthetic_fixture(SMALL, tmp_path_factory.mktemp("synth"))


class TestGeneratedFiles:
    def test_summary_counts_are_consistent(self, fixture):
        assert fixture.tickers == 9
        assert fixture.active_tickers + fixture.quiet_tickers == 9
        assert fixture.quiet_tickers == 3
        weekdays = sum(
            1 for d in DateRange(SMALL.start, SMALL.end).days() if d.weekday() < 5
        )
        assert fixture.trading_days == weekdays
        assert fixture.articles == len(list(load_articles(fixture.articles_path)))

    def test_all_tickers_priced_on_every_trading_day(self, fixture):
        prices = load_prices(fixture.prices_path)
        assert len(prices) == 9
        for series in prices.values():
            assert len(series.dates) == fixture.trading_days

    def test_aliases_cover_names_and_symbols(self, fixture):
        aliases = load_aliases(fixture.aliases_path)
        tickers = set(aliases.values())
        assert len(tickers) == 9
        for ticker in tickers:
            named = [a for a, t in aliases.items() if t == ticker and a != ticker]
            assert ticker in aliases and len(named) == 1

    def test_quiet_members_never_reach_the_news(self, fixture):
        aliases = load_aliases(fixture.aliases_path)
        matcher = AliasMatcher(aliases)
        sentences = extract_sentences(load_articles(fixture.articles_path), matcher)
        mentioned = {t for s in sentences for t in s.tickers()}
        quiet = {
            t
            for t in set(aliases.values())
            if _ticker_index(t) % SMALL.group_size >= SMALL.actives_per_group
        }
        assert len(quiet) == fixture.quiet_tickers
        assert not mentioned & quiet
        assert len(mentioned) == fixture.active_tickers

    def test_expected_samples_matches_the_ingest_pipeline(self, fixture):
        prices = load_prices(fixture.prices_path)
        matcher = AliasMatcher(load_aliases(fixture.aliases_path))
        sentences = extract_sentences(load_articles(fixture.articles_path), matcher)
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
        summary = generate_synthetic_fixture(config, tmp_path)
        window = DateRange(config.start, config.end)
        prices = load_prices(summary.prices_path)
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
