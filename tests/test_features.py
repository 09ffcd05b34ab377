"""Tests for feature blocks, layouts, and the feature matrix format."""

from __future__ import annotations

import io
import json
import math
import re
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from newsmotion import codec, features, tokens
from newsmotion.errors import ParseError, PipelineError, ValidationError
from newsmotion.evaluation import DEFAULT_COMBINATIONS
from newsmotion.features import (
    BLOCK_ORDER,
    PRICE_DIM,
    FeatureLayout,
    FeatureMatrix,
    FeatureSkip,
    INSUFFICIENT_HISTORY,
    NO_PRICE_HISTORY,
    UNNORMALIZABLE,
    block_columns,
    block_set,
    featurize_samples,
    load_feature_matrix,
    price_features,
    subject_of_keyword,
    write_feature_matrix,
)
from newsmotion.ingest import PriceSeries
from newsmotion.lexicon import (
    CategoryEntry,
    CategoryLexicon,
    KeywordEntry,
    KeywordLexicon,
)
from newsmotion.sampling import NEGATIVE, POSITIVE, Sample, Sentence
from newsmotion.tokens import tokenize_with_offsets

from feature_oracle import oracle_rows
from support import dense, packed, sliced, traced_peak

DAY = date(2012, 3, 5)


def _series(ticker: str, closes, start: date = date(2012, 1, 2)) -> PriceSeries:
    dates = tuple(start + timedelta(days=i) for i in range(len(closes)))
    return PriceSeries(
        ticker=ticker, dates=dates, closes=np.asarray(closes, dtype=np.float64)
    )


def _stats(series: PriceSeries) -> tuple[float, float]:
    return float(series.closes.mean()), float(series.closes.std())


def _ptable(series_list, skip_stats=()):
    """Prices and their normalisation stats, for featurize_samples."""
    series = {s.ticker: s for s in series_list}
    stats = {t: _stats(s) for t, s in series.items() if t not in skip_stats}
    return series, stats


def _sample(ticker: str, *sentences: Sentence, label: str = POSITIVE) -> Sample:
    return Sample(ticker=ticker, date=DAY, sentences=tuple(sentences), label=label)


def _text_sample(ticker: str, text: str) -> Sample:
    return _sample(ticker, Sentence(text=text, article_date=DAY, mentions=()))


def _keywords(*rows: tuple[str, float, float]) -> KeywordLexicon:
    return KeywordLexicon(
        [
            KeywordEntry(word=w, seed=False, similarity=0.9, df=1, idf=idf, ps=ps)
            for w, idf, ps in rows
        ]
    )


def _categories() -> CategoryLexicon:
    entries = [
        CategoryEntry("energy", "oil", True, 1.0),
        CategoryEntry("energy", "gas", False, 0.9),
        CategoryEntry("tech", "chip", True, 1.0),
    ]
    return CategoryLexicon(["energy", "tech"], entries)


def _row(
    sample: Sample,
    blocks: tuple[str, ...],
    keywords: KeywordLexicon | None = None,
    categories: CategoryLexicon | None = None,
) -> np.ndarray:
    """The given blocks of the sample's feature row, sliced from the full row.

    The sample's ticker gets six closes before DAY; a lexicon left
    out is a small stand-in whose blocks the slice drops.
    """
    keywords = keywords or _keywords(("placeholder", 1.0, 0.0))
    categories = categories or _categories()
    table = _ptable([_series(sample.ticker, [10.0, 11.0, 12.0, 11.5, 12.5, 13.0])])
    matrix, skipped = featurize_samples([sample], *table, keywords, categories)
    assert skipped == []
    return dense(matrix, blocks)[0]


class TestPriceFeatures:
    def test_hand_z_scores(self):
        series = _series("AAA", [1.0, 2.0, 3.0, 4.0, 5.0])
        t = series.dates[-1] + timedelta(days=1)
        feature = price_features(series, (3.0, math.sqrt(2.0)), t)
        scale = 1.0 / math.sqrt(2.0)
        assert feature.shape == (PRICE_DIM,)
        assert np.allclose(feature[:5], np.array([-2, -1, 0, 1, 2]) * scale, atol=1e-12)
        assert np.allclose(feature[5:9], np.full(4, scale), atol=1e-12)
        assert np.allclose(feature[9:], np.zeros(3), atol=1e-12)

    def test_close_on_t_is_excluded(self):
        series = _series("AAA", [1.0, 2.0, 3.0, 4.0, 5.0, 99.0])
        feature = price_features(series, (3.0, 1.0), series.dates[-1])
        assert np.allclose(feature[:5], np.array([1.0, 2.0, 3.0, 4.0, 5.0]) - 3.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            closes = rng.uniform(10.0, 50.0, size=8)
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(1.0, 20.0))
            base = _series("AAA", closes)
            scaled = _series("AAA", a * closes + b)
            t = base.dates[-1] + timedelta(days=1)
            f1 = price_features(base, _stats(base), t)
            f2 = price_features(scaled, _stats(scaled), t)
            assert np.allclose(f1, f2, atol=1e-9)

    def test_too_few_prior_closes_is_a_skip(self):
        series = _series("AAA", [1.0, 2.0, 3.0, 4.0])
        t = series.dates[-1] + timedelta(days=1)
        with pytest.raises(FeatureSkip) as exc:
            price_features(series, (2.5, 1.0), t)
        assert exc.value.reason == INSUFFICIENT_HISTORY

    def test_zero_std_rejected(self):
        series = _series("AAA", [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValidationError):
            price_features(series, (3.0, 0.0), DAY)


class TestBokFeatures:
    def test_tf_times_idf(self):
        lexicon = _keywords(("surge", 2.0, 0.5), ("drop", 3.0, -0.5))
        sample = _text_sample("AAA", "surge surge drop and more")
        vec = _row(sample, ("bok",), keywords=lexicon)
        assert vec.tolist() == [2 * 2.0, 1 * 3.0]

    def test_counts_span_sentences(self):
        lexicon = _keywords(("surge", 2.0, 0.5))
        sample = _sample(
            "AAA",
            Sentence("a surge today", DAY, ()),
            Sentence("another surge tomorrow", DAY, ()),
        )
        assert _row(sample, ("bok",), keywords=lexicon).tolist() == [2 * 2.0]

    def test_unknown_words_leave_zeros(self):
        lexicon = _keywords(("surge", 2.0, 0.5))
        sample = _text_sample("AAA", "nothing relevant here")
        assert _row(sample, ("bok",), keywords=lexicon).tolist() == [0.0]


class TestSubjectHeuristic:
    def _sentence(self) -> Sentence:
        text = "Apple rose while Samsung and Microsoft fell"
        return Sentence(
            text=text,
            article_date=DAY,
            mentions=(("AAPL", 0), ("SSNLF", 17), ("MSFT", 29)),
        )

    def test_nearest_left_mention_is_the_subject(self):
        sentence = self._sentence()
        rose = sentence.text.index("rose")
        assert subject_of_keyword(sentence, "AAPL", rose)
        assert not subject_of_keyword(sentence, "SSNLF", rose)

    def test_closer_mention_preempts_farther_ones(self):
        sentence = self._sentence()
        fell = sentence.text.index("fell")
        assert subject_of_keyword(sentence, "MSFT", fell)
        assert not subject_of_keyword(sentence, "SSNLF", fell)
        assert not subject_of_keyword(sentence, "AAPL", fell)

    def test_mention_only_to_the_right_is_not_subject(self):
        sentence = Sentence("rose before Apple", DAY, (("AAPL", 12),))
        assert not subject_of_keyword(sentence, "AAPL", 0)


class TestPsFeatures:
    def _ps(self, sample: Sample) -> np.ndarray:
        lexicon = _keywords(("rose", 2.0, 0.5), ("fell", 3.0, -0.4))
        return _row(sample, ("ps",), keywords=lexicon)

    def test_subject_occurrence_is_positive(self):
        sentence = Sentence("Apple rose sharply", DAY, (("AAPL", 0),))
        vec = self._ps(_sample("AAPL", sentence))
        assert vec.tolist() == [2.0 * 1 * 0.5, 0.0]

    def test_non_subject_occurrence_flips_sign(self):
        sentence = Sentence("Samsung fell behind Apple", DAY, (("SSNLF", 0), ("AAPL", 20)))
        vec = self._ps(_sample("AAPL", sentence))
        assert vec.tolist() == [0.0, 3.0 * -1 * -0.4]

    def test_opposite_occurrences_cancel(self):
        first = Sentence("Apple rose early", DAY, (("AAPL", 0),))
        second = Sentence("Samsung rose late", DAY, (("SSNLF", 0),))
        vec = self._ps(_sample("AAPL", first, second))
        assert vec.tolist() == [0.0, 0.0]

    def test_repeated_subject_occurrences_accumulate(self):
        first = Sentence("Apple rose early", DAY, (("AAPL", 0),))
        second = Sentence("Apple rose again", DAY, (("AAPL", 0),))
        vec = self._ps(_sample("AAPL", first, second))
        assert vec.tolist() == [2.0 * 2 * 0.5, 0.0]


class TestCtFeatures:
    def test_log1p_of_occurrence_counts(self):
        sample = _text_sample("AAA", "oil oil gas chip unrelated")
        vec = _row(sample, ("ct",), categories=_categories())
        assert vec == pytest.approx([math.log(4.0), math.log(2.0)], abs=1e-12)

    def test_word_in_two_categories_counts_in_both(self):
        entries = [
            CategoryEntry("energy", "fuel", True, 1.0),
            CategoryEntry("transport", "fuel", False, 0.8),
        ]
        categories = CategoryLexicon(["energy", "transport"], entries)
        vec = _row(_text_sample("AAA", "fuel prices"), ("ct",), categories=categories)
        assert vec == pytest.approx([math.log(2.0), math.log(2.0)], abs=1e-12)

    def test_no_category_words_gives_zeros(self):
        vec = _row(_text_sample("AAA", "quiet day"), ("ct",), categories=_categories())
        assert vec.tolist() == [0.0, 0.0]


class TestFeatureLayout:
    def test_full_dimension_adds_up(self):
        layout = FeatureLayout(blocks=BLOCK_ORDER, k=1000, n_categories=10)
        assert layout.dimension == 2022
        assert layout.offsets() == {
            "price": (0, 12),
            "bok": (12, 1012),
            "ps": (1012, 2012),
            "ct": (2012, 2022),
        }

    def test_block_order_enforced(self):
        with pytest.raises(ValidationError, match="ordered"):
            FeatureLayout(blocks=("bok", "price"), k=10, n_categories=0)

    def test_keyword_blocks_require_k(self):
        with pytest.raises(ValidationError):
            FeatureLayout(blocks=("price", "bok"), k=0, n_categories=0)

    def test_ct_requires_categories(self):
        with pytest.raises(ValidationError):
            FeatureLayout(blocks=("price", "ct"), k=0, n_categories=0)

    def test_dict_round_trip(self):
        layout = FeatureLayout(blocks=("price", "ps"), k=7, n_categories=0)
        assert FeatureLayout.from_dict(layout.to_dict()) == layout

    def test_tampered_sizes_rejected(self):
        data = FeatureLayout(blocks=("price",), k=0, n_categories=0).to_dict()
        data["sizes"]["price"] = 13
        with pytest.raises(ParseError, match="sizes"):
            FeatureLayout.from_dict(data)


class TestFeaturizeSamples:
    def _fixture(self):
        table = _ptable(
            [
                _series("AAA", [10.0, 11.0, 12.0, 11.5, 12.5, 13.0]),
                _series("BBB", [20.0, 21.0, 22.0]),
                _series("DDD", [5.0, 5.5, 6.0, 6.5, 7.0, 7.5]),
            ],
            skip_stats={"DDD"},
        )
        keywords = _keywords(("surge", 2.0, 0.5), ("drop", 3.0, -0.5))
        samples = [
            _text_sample("AAA", "a surge in oil demand"),
            _text_sample("BBB", "chip makers drop"),
            _text_sample("CCC", "no prices at all"),
            _text_sample("DDD", "flat closes all year"),
        ]
        return table, keywords, _categories(), samples

    def test_rows_and_skips(self):
        table, keywords, categories, samples = self._fixture()
        matrix, skipped = featurize_samples(samples, *table, keywords, categories)
        assert matrix.tickers == ["AAA"]
        assert matrix.layout == FeatureLayout(BLOCK_ORDER, k=2, n_categories=2)
        assert dense(matrix).shape == (1, matrix.layout.dimension)
        assert skipped == [
            ("BBB", DAY, INSUFFICIENT_HISTORY),
            ("CCC", DAY, NO_PRICE_HISTORY),
            ("DDD", DAY, UNNORMALIZABLE),
        ]

    def test_row_content_matches_block_functions(self):
        table, keywords, categories, samples = self._fixture()
        matrix, _ = featurize_samples(samples, *table, keywords, categories)
        sample = samples[0]
        prices, stats = table
        expected = np.concatenate(
            [
                price_features(prices["AAA"], stats["AAA"], DAY),
                _row(sample, ("bok",), keywords=keywords),
                _row(sample, ("ps",), keywords=keywords),
                _row(sample, ("ct",), categories=categories),
            ]
        )
        assert np.array_equal(dense(matrix)[0], expected)

    def test_each_sentence_is_tokenized_once(self, monkeypatch):
        table, keywords, categories, _ = self._fixture()
        samples = [
            _sample(
                "AAA",
                Sentence("a surge in oil demand", DAY, ()),
                Sentence("chip makers drop", DAY, ()),
            ),
            _text_sample("AAA", "oil drop"),
        ]
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize_with_offsets(text)

        # tokens.tokenize goes through tokens.tokenize_with_offsets too.
        monkeypatch.setattr(tokens, "tokenize_with_offsets", counting)
        monkeypatch.setattr(features, "tokenize_with_offsets", counting)
        featurize_samples(samples, *table, keywords, categories)
        assert calls == [s.text for sample in samples for s in sample.sentences]

    def test_unlabeled_sample_rejected(self):
        table, keywords, categories, _ = self._fixture()
        bad = Sample(ticker="AAA", date=DAY, sentences=(), label=None)
        with pytest.raises(ValidationError, match="unlabeled"):
            featurize_samples([bad], *table, keywords, categories)

    def test_all_skipped_gives_empty_matrix(self):
        table, keywords, categories, _ = self._fixture()
        samples = [_text_sample("CCC", "nothing")]
        matrix, skipped = featurize_samples(samples, *table, keywords, categories)
        assert len(matrix) == 0
        assert dense(matrix).shape == (0, matrix.layout.dimension)
        assert len(skipped) == 1


class TestOneWalkMatchesOracle:
    """Each ablation combination, sliced from the full matrix, against the oracle."""

    def _lexicons(self):
        # "drop" has a negative polarity; "oil" is a keyword and a category word.
        keywords = _keywords(
            ("surge", 2.0, 0.5), ("drop", 3.0, -0.5), ("oil", 1.5, -0.25)
        )
        entries = [
            CategoryEntry("energy", "oil", True, 1.0),
            CategoryEntry("energy", "fuel", False, 0.9),
            CategoryEntry("transport", "fuel", False, 0.8),
            CategoryEntry("tech", "chip", True, 1.0),
        ]
        return keywords, CategoryLexicon(["energy", "transport", "tech"], entries)

    def _samples(self) -> list[Sample]:
        text = "Acme drop; Bolt drop"
        cancel = Sentence(text, DAY, (("AAA", 0), ("BBB", 11)))
        return [
            _sample("AAA", cancel),
            _sample(
                "AAA",
                Sentence("Acme surge on oil and fuel", DAY, (("AAA", 0),)),
                Sentence("Bolt chip drop as oil falls", DAY, (("BBB", 0),)),
                Sentence("fuel fuel, Oil!", DAY, ()),
                label=NEGATIVE,
            ),
            _sample("BBB", Sentence("surge before Bolt", DAY, (("BBB", 13),))),
            _text_sample("CCC", "no prices, but a surge"),
            _sample("AAA"),
            _text_sample("DDD", "surge"),
        ]

    def _random_samples(self, n: int) -> list[Sample]:
        rng = np.random.default_rng(31)
        words = ["surge", "drop", "oil", "fuel", "chip", "Acme", "Bolt", "the", "up"]
        tickers = {"Acme": "AAA", "Bolt": "BBB"}
        samples = []
        for i in range(n):
            sentences = []
            for _ in range(int(rng.integers(1, 4))):
                text = " ".join(rng.choice(words, size=int(rng.integers(1, 9))))
                mentions = tuple(
                    (tickers[m.group()], m.start()) for m in re.finditer("Acme|Bolt", text)
                )
                sentences.append(Sentence(text, DAY, mentions))
            ticker = "AAA" if i % 2 else "BBB"
            samples.append(_sample(ticker, *sentences))
        return samples

    def _check(self, samples: list[Sample]) -> None:
        keywords, categories = self._lexicons()
        prices, stats = _ptable(
            [
                _series("AAA", [10.0, 11.0, 12.0, 11.5, 12.5, 13.0]),
                _series("BBB", [20.0, 21.0, 22.5, 21.0, 20.5, 23.0, 24.0]),
                _series("DDD", [5.0, 5.5, 6.0]),
            ]
        )
        full, skipped = featurize_samples(samples, prices, stats, keywords, categories)
        for blocks in DEFAULT_COMBINATIONS:
            layout = block_columns(full.layout, blocks)[0]
            rows = dense(full, blocks)
            expected, reasons = oracle_rows(
                samples, prices, stats, keywords, categories, layout
            )
            assert rows.shape == expected.shape, blocks
            assert rows.tobytes() == expected.tobytes(), blocks
            assert [reason for *_, reason in skipped] == reasons, blocks

    def test_edge_cases_match(self):
        self._check(self._samples())

    def test_random_samples_match(self):
        self._check(self._random_samples(60))

    def test_cancelled_negative_polarity_is_negative_zero(self):
        keywords, categories = self._lexicons()
        row = _row(self._samples()[0], ("ps",), keywords=keywords)
        assert row[1] == 0.0 and np.signbit(row[1])


class TestSliceBlocks:
    """A block subset's rows, decoded from the full matrix's packed rows."""

    def _full(self):
        table, keywords, categories, samples = TestFeaturizeSamples()._fixture()
        matrix, _ = featurize_samples(samples, *table, keywords, categories)
        return matrix

    def test_slice_keeps_the_rows_and_narrows_the_layout(self):
        matrix = self._full()
        layout, _ = block_columns(matrix.layout, ["price", "ps"])
        assert layout == FeatureLayout(("price", "ps"), k=2, n_categories=2)
        rows = dense(matrix, ["price", "ps"])
        assert np.array_equal(rows, dense(matrix)[:, list(range(12)) + [14, 15]])

    @pytest.mark.parametrize("blocks", DEFAULT_COMBINATIONS)
    def test_slice_is_c_ordered_and_equals_the_column_gather(self, blocks):
        layout = FeatureLayout(BLOCK_ORDER, k=3, n_categories=4)
        x = np.random.default_rng(30).normal(size=(5, layout.dimension))
        matrix = packed(
            layout, ["AAA"] * 5, [DAY + timedelta(days=i) for i in range(5)],
            [POSITIVE] * 5, x,
        )
        offsets = matrix.layout.offsets()
        cols = [c for b in block_set(blocks) for c in range(*offsets[b])]
        rows = dense(matrix, blocks)
        assert rows.flags.c_contiguous
        assert rows.tobytes() == x[:, cols].tobytes()

    def test_block_request_order_does_not_matter(self):
        matrix = self._full()
        layout, _ = block_columns(matrix.layout, ["ct", "price"])
        assert layout.blocks == ("price", "ct")

    def test_unknown_block_rejected(self):
        matrix = self._full()
        with pytest.raises(ValidationError, match="unknown"):
            dense(matrix, ["price", "volume"])

    def test_absent_block_rejected(self):
        matrix = self._full()
        narrowed = sliced(matrix, ["price"])
        with pytest.raises(ValidationError, match="ct"):
            dense(narrowed, ["price", "ct"])


class TestBlockColumns:
    LAYOUT = FeatureLayout(BLOCK_ORDER, k=3, n_categories=4)

    def _matrix(self, x: np.ndarray) -> FeatureMatrix:
        n = x.shape[0]
        return packed(
            self.LAYOUT, ["AAA"] * n, [DAY + timedelta(days=i) for i in range(n)],
            [POSITIVE] * n, x,
        )

    def _x(self, dtype=np.float64) -> np.ndarray:
        rng = np.random.default_rng(31)
        return rng.normal(size=(6, self.LAYOUT.dimension)).astype(dtype)

    def test_the_full_layout_is_one_run_of_every_column(self):
        layout, runs = block_columns(self.LAYOUT, BLOCK_ORDER)
        width = self.LAYOUT.dimension
        assert layout == self.LAYOUT
        assert runs == [(slice(0, width), slice(0, width))]

    def test_blocks_adjacent_in_both_layouts_share_a_run(self):
        # price 0:12, bok 12:15, ps 15:18, ct 18:22
        layout, runs = block_columns(self.LAYOUT, ("price", "bok", "ct"))
        assert layout == FeatureLayout(("price", "bok", "ct"), k=3, n_categories=4)
        assert runs == [(slice(0, 15), slice(0, 15)), (slice(18, 22), slice(15, 19))]
        _, runs = block_columns(self.LAYOUT, ("bok", "ps", "ct"))
        assert runs == [(slice(12, 22), slice(0, 10))]

    @pytest.mark.parametrize("blocks", DEFAULT_COMBINATIONS)
    def test_runs_place_each_block_where_the_layouts_put_it(self, blocks):
        layout, runs = block_columns(self.LAYOUT, blocks)
        full, sub = self.LAYOUT.offsets(), layout.offsets()
        want = [
            (c, c - full[b][0] + sub[b][0]) for b in blocks for c in range(*full[b])
        ]
        got = [
            pair
            for src, dst in runs
            for pair in zip(range(src.start, src.stop), range(dst.start, dst.stop))
        ]
        assert got == want

    def test_the_full_layout_decodes_to_the_rows_exactly(self):
        x = self._x()
        x[0, :3] = [0.0, -0.0, 5e-324]
        assert dense(self._matrix(x)).tobytes() == x.tobytes()

    def test_a_subset_is_a_copy(self):
        x = self._x()
        matrix = self._matrix(x)
        rows = dense(matrix, ("price", "bok", "ps"))
        assert not np.shares_memory(rows, matrix.values)
        assert np.array_equal(rows, x[:, : rows.shape[1]])

    def test_float32_rows_are_a_float64_cast_copy(self):
        x = self._x(np.float32)
        matrix = self._matrix(x)
        rows = dense(matrix, BLOCK_ORDER)
        assert rows.dtype == np.float64 and not np.shares_memory(rows, matrix.values)
        assert rows.tobytes() == x.astype(np.float64).tobytes()

    def test_rows_not_in_c_order_are_copied_into_c_order(self):
        x = np.asfortranarray(self._x())
        rows = dense(self._matrix(x), BLOCK_ORDER)
        assert rows.flags.c_contiguous and not np.shares_memory(rows, x)
        assert np.array_equal(rows, x)

    @pytest.mark.parametrize("strided", [False, True])
    def test_decode_writes_chosen_rows_into_any_strides(self, strided):
        x = self._x()
        x[x < 0.3] = 0.0
        matrix = self._matrix(x)
        rows = np.array([4, 0, 4, 2])
        runs = block_columns(self.LAYOUT, ("price", "ps", "ct"))[1]
        want = np.concatenate([x[rows, :12], x[rows, 15:22]], axis=1)
        buffer = np.full((want.shape[1], len(rows)) if strided else want.shape, 7.0)
        out = buffer.T if strided else buffer
        assert matrix.decode(out, rows, runs) is out
        assert np.array_equal(out, want)
        assert np.signbit(out).tolist() == np.signbit(want).tolist()


class TestFeatureMatrixFile:
    def _matrix(self) -> FeatureMatrix:
        rng = np.random.default_rng(29)
        layout = FeatureLayout(blocks=("price", "ct"), k=0, n_categories=3)
        n = 7
        x = rng.normal(size=(n, layout.dimension))
        x[x < 0.2] = 0.0
        x[1, 2] = -0.0
        return packed(
            layout,
            [f"T{i}" for i in range(n)],
            [DAY + timedelta(days=i) for i in range(n)],
            [POSITIVE if i % 2 else NEGATIVE for i in range(n)],
            x,
        )

    def _data_bytes(self, matrix: FeatureMatrix) -> int:
        return matrix.mask.nbytes + 8 * matrix.values.size

    def test_round_trip_is_exact(self, tmp_path):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        loaded = load_feature_matrix(path)
        assert loaded.layout == matrix.layout
        assert loaded.tickers == matrix.tickers
        assert loaded.dates == matrix.dates
        assert loaded.labels == matrix.labels
        assert loaded.mask.tobytes() == matrix.mask.tobytes()
        assert loaded.values.tobytes() == matrix.values.tobytes()
        assert dense(loaded).tobytes() == dense(matrix).tobytes()

    def test_negative_zero_entries_survive_a_round_trip(self, tmp_path):
        matrix = self._matrix()
        assert np.signbit(dense(matrix)[1, 2]) and dense(matrix)[1, 2] == 0.0
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        for dtype in (np.float64, np.float32):
            row = dense(load_feature_matrix(path, dtype))[1]
            assert row[2] == 0.0 and np.signbit(row[2]), dtype

    def test_the_file_holds_a_mask_bit_per_row_entry_and_the_values(self, tmp_path):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        header, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(header)["dtypes"] == ["|u1", "<f8"]
        assert json.loads(header)["values"] == matrix.values.size
        # 15 columns take two mask bytes a row
        assert matrix.mask.shape == (7, 2)
        assert body == matrix.mask.tobytes() + matrix.values.astype("<f8").tobytes()

    def test_a_load_holds_the_rows_once(self, tmp_path):
        layout = FeatureLayout(BLOCK_ORDER, k=300, n_categories=2)  # 614 columns
        n = 2000
        x = np.random.default_rng(32).normal(size=(n, layout.dimension))
        matrix = packed(
            layout,
            [f"T{i % 50}" for i in range(n)],
            [DAY + timedelta(days=i % 300) for i in range(n)],
            [POSITIVE if i % 2 else NEGATIVE for i in range(n)],
            x,
        )
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        loaded, peak = traced_peak(lambda: load_feature_matrix(path))
        assert np.array_equal(dense(loaded), x)
        # Every entry is non-zero: the values take x.nbytes and the mask
        # 1/64 of it; the header and the row metadata take the rest. A
        # second copy does not fit.
        assert peak < 1.1 * x.nbytes

    def test_a_float32_load_holds_no_float64_copy(self, tmp_path):
        layout = FeatureLayout(BLOCK_ORDER, k=1000, n_categories=10)  # 2022 columns
        n = 2000
        x = np.random.default_rng(33).normal(size=(n, layout.dimension))
        matrix = packed(
            layout,
            [f"T{i % 50}" for i in range(n)],
            [DAY + timedelta(days=i % 300) for i in range(n)],
            [POSITIVE if i % 2 else NEGATIVE for i in range(n)],
            x,
        )
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        loaded, peak = traced_peak(lambda: load_feature_matrix(path, np.float32))
        rows = x.astype(np.float32)
        assert dense(loaded, dtype=np.float32).tobytes() == rows.tobytes()
        # The values are read into one float32 array, through one float64
        # chunk buffer; the mask, the header and the row metadata take the
        # rest. The float64 values (2 x rows.nbytes) do not fit beside them.
        assert peak < 1.1 * rows.nbytes

    def test_a_load_holds_each_distinct_ticker_date_and_label_once(self, tmp_path):
        layout = FeatureLayout(("price",), k=0, n_categories=0)
        n = 3000
        x = np.random.default_rng(34).normal(size=(n, layout.dimension))
        matrix = packed(
            layout,
            [f"TICK{i % 50}" for i in range(n)],
            [DAY + timedelta(days=i % 300) for i in range(n)],
            [POSITIVE if i % 3 else NEGATIVE for i in range(n)],
            x,
        )
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        tracemalloc.start()
        try:
            loaded = load_feature_matrix(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = loaded.mask.nbytes + loaded.values.nbytes + loaded.starts.nbytes
        # Three list slots a row (24 bytes) and one object per distinct
        # ticker, day and label; an object per row takes 50 bytes or more.
        assert (held - arrays) / n < 40
        assert len({id(t) for t in loaded.tickers}) == 50
        assert len({id(d) for d in loaded.dates}) == 300
        assert len({id(label) for label in loaded.labels}) == 2

    @pytest.mark.parametrize("cut", [8, 3])
    def test_a_float32_load_names_the_same_byte_counts(self, tmp_path, cut):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ParseError) as caught:
            load_feature_matrix(path, np.float32)
        size = self._data_bytes(matrix)
        assert str(caught.value) == (
            f"{path}: expected {size} data bytes, found {size - cut}"
        )

    def test_a_short_chunked_read_counts_the_bytes_it_read(self, monkeypatch):
        monkeypatch.setattr(codec, "_CHUNK", 4)
        values = np.arange(10.0)
        data = io.BytesIO(values.astype("<f8").tobytes()[:-3])
        out = np.zeros(10, dtype=np.float32)
        assert codec._read_values(data, out) == 77
        assert out.tolist() == [*range(8), 0.0, 0.0]

    def test_float32_rows_are_the_cast_of_the_file_rows(self, tmp_path):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        loaded = load_feature_matrix(path, np.float32)
        assert loaded.values.dtype == np.float32 and loaded.values.flags.c_contiguous
        rows = dense(loaded, dtype=np.float32)
        assert rows.tobytes() == dense(matrix).astype(np.float32).tobytes()
        assert (loaded.layout, loaded.tickers, loaded.dates, loaded.labels) == (
            matrix.layout,
            matrix.tickers,
            matrix.dates,
            matrix.labels,
        )

    @pytest.mark.parametrize("cut", [8, 3])
    def test_truncation_names_the_byte_counts(self, tmp_path, cut):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ParseError) as caught:
            load_feature_matrix(path)
        size = self._data_bytes(matrix)
        assert str(caught.value) == (
            f"{path}: expected {size} data bytes, found {size - cut}"
        )

    def test_truncated_body_rejected(self, tmp_path):
        matrix = self._matrix()
        path = tmp_path / "features.bin"
        write_feature_matrix(matrix, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="bytes"):
            load_feature_matrix(path)

    def test_unknown_label_rejected(self, tmp_path):
        matrix = self._matrix()
        path = tmp_path / "features_test.bin"
        write_feature_matrix(matrix, path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = header.replace(f'"{NEGATIVE}"'.encode(), b'"up"', 1)
        path.write_bytes(header + b"\n" + body)
        with pytest.raises(ParseError, match="'up'") as err:
            load_feature_matrix(path)
        assert str(path) in str(err.value)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"not json\n")
        with pytest.raises(ParseError, match="header"):
            load_feature_matrix(path)

    def test_metadata_length_mismatch_rejected(self):
        layout = FeatureLayout(blocks=("price",), k=0, n_categories=0)
        with pytest.raises(ValidationError, match="mismatch"):
            packed(layout, ["A"], [], [POSITIVE], np.zeros((1, 12)))


class TestFeatureBlobHardening:
    """A features blob that breaks the mask-and-values rules is a ParseError."""

    def _written(self, tmp_path) -> tuple[Path, FeatureMatrix, int]:
        """A 15-column matrix file and where its data starts."""
        matrix = TestFeatureMatrixFile()._matrix()
        path = tmp_path / "features_train.bin"
        write_feature_matrix(matrix, path)
        return path, matrix, path.read_bytes().index(b"\n") + 1

    def _rejected(self, path: Path, pattern: str) -> None:
        for dtype in (np.float64, np.float32):
            with pytest.raises(ParseError, match=pattern) as caught:
                load_feature_matrix(path, dtype)
            assert str(path) in str(caught.value)

    def _edit(self, path: Path, at: int, byte: int) -> None:
        data = bytearray(path.read_bytes())
        data[at] = byte
        path.write_bytes(bytes(data))

    def test_a_set_padding_bit(self, tmp_path):
        path, matrix, start = self._written(tmp_path)
        # row 3's second mask byte holds columns 8-14 and one padding bit
        self._edit(path, start + 3 * 2 + 1, matrix.mask[3, 1] | 1)
        self._rejected(path, "padding bit")

    def test_a_popcount_that_disagrees_with_the_value_count(self, tmp_path):
        path, matrix, start = self._written(tmp_path)
        row = int(np.flatnonzero(matrix.mask[:, 0] != 0xFF)[0])
        free = 0xFF ^ int(matrix.mask[row, 0])
        self._edit(path, start + 2 * row, matrix.mask[row, 0] | (free & -free))
        self._rejected(path, f"sets {matrix.values.size + 1} entries but "
                       f"{matrix.values.size} values")

    def test_a_stored_value_whose_bits_are_all_zero(self, tmp_path):
        path, matrix, start = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        at = start + matrix.mask.nbytes + 8 * 3
        data[at : at + 8] = bytes(8)
        path.write_bytes(bytes(data))
        self._rejected(path, "stored value is zero")

    def test_a_truncated_array(self, tmp_path):
        path, matrix, _ = self._written(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        self._rejected(path, "data bytes")

    def test_an_unknown_dtype_tag(self, tmp_path):
        path, _, _ = self._written(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"<f8"', b'"<f2"', 1))
        self._rejected(path, "unknown dtype tag '<f2'")

    def test_byte_mutants_load_or_raise_a_pipeline_error(self, tmp_path):
        path, _, _ = self._written(tmp_path)
        original = path.read_bytes()
        rng = np.random.default_rng(2012)
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(300):
            data = bytearray(original)
            for _ in range(rng.integers(1, 5)):
                kind = rng.integers(4)
                at = int(rng.integers(len(data))) if data else 0
                if kind == 0 and data:
                    data[at] ^= 1 << int(rng.integers(8))
                elif kind == 1:
                    data.insert(at, int(rng.integers(256)))
                elif kind == 2 and data:
                    del data[at]
                else:
                    del data[at:]
            path.write_bytes(bytes(data))
            try:
                # a mutated value may be out of float32's range
                with np.errstate(over="ignore", invalid="ignore"):
                    load_feature_matrix(path, (np.float64, np.float32)[i % 2])
            except PipelineError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
        assert sum(outcomes.values()) == 300
        assert outcomes["rejected"] > 100 and outcomes["loaded"] > 10, outcomes


class TestFeaturizeMemory:
    def test_a_sparse_matrix_is_built_without_its_dense_rows(self):
        k, n = 300, 2000
        keywords = _keywords(*((f"kw{i}", 1.0 + i / k, 0.5) for i in range(k)))
        rng = np.random.default_rng(35)
        samples = [
            _text_sample(
                "AAA", " ".join(f"kw{i}" for i in rng.choice(k, 20, replace=False))
            )
            for _ in range(n)
        ]
        table = _ptable([_series("AAA", [10.0, 11.0, 12.0, 11.5, 12.5, 13.0])])
        (matrix, skipped), peak = traced_peak(
            lambda: featurize_samples(samples, *table, keywords, _categories())
        )
        assert skipped == [] and len(matrix) == n
        dense_bytes = n * matrix.layout.dimension * 8
        density = matrix.values.size / (n * matrix.layout.dimension)
        assert 0.05 < density < 0.1
        # the mask, the values and one block of rows; the dense float64
        # rows do not fit, nor a copy of the values beside them
        assert peak < dense_bytes / 4
