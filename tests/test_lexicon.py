"""Tests for polarity scores, idf, and lexicon construction."""

from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest

from newsmotion.config import PACKAGED
from newsmotion.embedding import EmbeddingTable
from newsmotion.errors import ParseError, ValidationError
from newsmotion.lexicon import (
    SEED_WORDS,
    CategoryEntry,
    CategoryLexicon,
    KeywordEntry,
    KeywordLexicon,
    build_category_lexicon,
    build_keyword_lexicon,
    compute_idf,
    load_category_lexicon,
    load_category_seeds,
    load_keyword_lexicon,
    polarity_score,
    write_category_lexicon,
    write_keyword_lexicon,
)
from newsmotion.sampling import NEGATIVE, POSITIVE, Sample, Sentence
from newsmotion.tokens import tokenize

from support import polarity_score_of

DAY = date(2012, 3, 5)


def _sample(label: str | None, *texts: str, ticker: str = "AAPL") -> Sample:
    sentences = tuple(Sentence(text=t, article_date=DAY, mentions=()) for t in texts)
    return Sample(ticker=ticker, date=DAY, sentences=sentences, label=label)


def _table(words: list[str], vectors) -> EmbeddingTable:
    arr = np.asarray(vectors, dtype=np.float64)
    return EmbeddingTable(words=list(words), vectors=arr)


def _invert(sample: Sample) -> Sample:
    flipped = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}.get(sample.label)
    return Sample(
        ticker=sample.ticker,
        date=sample.date,
        sentences=sample.sentences,
        label=flipped,
    )


class TestPolarityScore:
    def test_all_positive_word_scores_log_three(self):
        # word in 2 of 2 positive samples and 0 of 2 negative ones
        assert polarity_score(2, 0, 2, 2) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_balanced_word_scores_zero(self):
        assert polarity_score(3, 3, 5, 5) == 0.0

    def test_absent_word_with_balanced_classes_scores_zero(self):
        assert polarity_score(0, 0, 4, 4) == 0.0

    def test_class_swap_negates_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_pos = int(rng.integers(1, 30))
            n_neg = int(rng.integers(1, 30))
            pos_df = int(rng.integers(0, n_pos + 1))
            neg_df = int(rng.integers(0, n_neg + 1))
            score = polarity_score(pos_df, neg_df, n_pos, n_neg)
            assert polarity_score(neg_df, pos_df, n_neg, n_pos) == -score

    def test_matches_log_ratio_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_pos = int(rng.integers(1, 40))
            n_neg = int(rng.integers(1, 40))
            pos_df = int(rng.integers(0, n_pos + 1))
            neg_df = int(rng.integers(0, n_neg + 1))
            expected = math.log((pos_df + 1) * (n_neg + 1)) - math.log(
                (neg_df + 1) * (n_pos + 1)
            )
            assert polarity_score(pos_df, neg_df, n_pos, n_neg) == expected

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            polarity_score(-1, 0, 2, 2)


class TestPolarityScoreOf:
    def _fixture(self) -> list[Sample]:
        return [
            _sample(POSITIVE, "shares surge on strong outlook"),
            _sample(POSITIVE, "the stock could surge again"),
            _sample(NEGATIVE, "margins remain under pressure"),
            _sample(NEGATIVE, "weak demand weighs on shipments"),
        ]

    def test_word_in_every_positive_sample(self):
        score = polarity_score_of("surge", self._fixture())
        assert score == pytest.approx(math.log(3.0), abs=1e-12)

    def test_repeated_occurrences_count_once_per_sample(self):
        samples = [
            _sample(POSITIVE, "surge surge surge surge"),
            _sample(POSITIVE, "another surge"),
            _sample(NEGATIVE, "flat session"),
            _sample(NEGATIVE, "quiet day"),
        ]
        assert polarity_score_of("surge", samples) == pytest.approx(
            math.log(3.0), abs=1e-12
        )

    def test_label_inversion_negates_exactly(self):
        samples = self._fixture()
        inverted = [_invert(s) for s in samples]
        for word in ("surge", "shares", "weak", "absent"):
            assert polarity_score_of(word, inverted) == -polarity_score_of(
                word, samples
            )

    def test_single_class_rejected(self):
        samples = [_sample(POSITIVE, "only winners here")] * 3
        with pytest.raises(ValidationError, match="positive and negative"):
            polarity_score_of("winners", samples)

    def test_random_corpora_match_brute_force_counts(self):
        rng = np.random.default_rng(13)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(20):
            samples = []
            for _ in range(int(rng.integers(2, 16))):
                words = rng.choice(vocab, size=int(rng.integers(1, 6)))
                label = POSITIVE if rng.random() < 0.5 else NEGATIVE
                samples.append(_sample(label, " ".join(words)))
            n_pos = sum(1 for s in samples if s.label == POSITIVE)
            n_neg = sum(1 for s in samples if s.label == NEGATIVE)
            if n_pos == 0 or n_neg == 0:
                continue
            for word in vocab:
                pos_df = neg_df = 0
                for s in samples:
                    tokens = set()
                    for sentence in s.sentences:
                        tokens.update(tokenize(sentence.text))
                    if word in tokens:
                        if s.label == POSITIVE:
                            pos_df += 1
                        else:
                            neg_df += 1
                expected = math.log((pos_df + 1) * (n_neg + 1)) - math.log(
                    (neg_df + 1) * (n_pos + 1)
                )
                assert polarity_score_of(word, samples) == pytest.approx(
                    expected, abs=1e-12
                )


class TestComputeIdf:
    def test_one_of_three_samples(self):
        assert compute_idf(1, 3) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_word_in_every_sample_scores_zero(self):
        assert compute_idf(3, 3) == 0.0

    def test_absent_word(self):
        assert compute_idf(0, 3) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_no_samples_scores_zero(self):
        assert compute_idf(0, 0) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            compute_idf(-1, 10)


class TestBuildKeywordLexicon:
    def _planted(self) -> tuple[EmbeddingTable, list[Sample]]:
        """Seeds share one direction, one neighbor sits nearby, fillers far."""
        words = list(SEED_WORDS) + ["rebound"]
        vectors = [[1.0, 0.0]] * len(SEED_WORDS) + [[0.99, 0.141]]
        fillers = [f"filler{i}" for i in range(10)]
        angles = np.linspace(1.2, 2.8, num=10)
        words += fillers
        vectors += [[math.cos(a), math.sin(a)] for a in angles]
        table = _table(words, vectors)
        samples = [
            _sample(POSITIVE, "rebound " + " ".join(fillers[:5])),
            _sample(POSITIVE, "surge rise " + " ".join(fillers[5:])),
            _sample(NEGATIVE, "drop fall " + " ".join(fillers[:5])),
            _sample(NEGATIVE, "slump " + " ".join(fillers[5:])),
        ]
        return table, samples

    def test_top_k_is_seeds_plus_planted_neighbor(self):
        table, samples = self._planted()
        lexicon = build_keyword_lexicon(table, samples, k=10)
        assert {e.word for e in lexicon.entries} == set(SEED_WORDS) | {"rebound"}

    def test_seeds_rank_first_in_word_order(self):
        table, samples = self._planted()
        lexicon = build_keyword_lexicon(table, samples, k=10)
        head = [e.word for e in lexicon.entries[:9]]
        assert head == sorted(SEED_WORDS)
        assert all(e.seed and e.similarity == 1.0 for e in lexicon.entries[:9])
        tail = lexicon.entries[9]
        assert tail.word == "rebound" and not tail.seed

    def test_statistics_match_the_component_formulas(self):
        table, samples = self._planted()
        lexicon = build_keyword_lexicon(table, samples, k=20)
        for entry in lexicon.entries:
            assert entry.idf == compute_idf(entry.df, len(samples))
            assert entry.ps == polarity_score_of(entry.word, samples)

    def test_keyword_file_counts_each_sample_once_per_word(self, tmp_path):
        table, samples = self._planted()
        # a word twice in one sentence, and in two sentences of one sample
        samples.append(_sample(NEGATIVE, "rebound rebound drop", "drop filler3"))
        path = tmp_path / "keywords.csv"
        write_keyword_lexicon(build_keyword_lexicon(table, samples, k=20), path)
        texts = [{w for s in sample.sentences for w in s.text.split()} for sample in samples]
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 20
        for word, _, _, df, idf, _ in rows:
            count = sum(word in words for words in texts)
            assert int(df) == count, word
            assert float(idf) == math.log((len(samples) + 1) / (count + 1)), word
        by_word = {row[0]: int(row[3]) for row in rows}
        assert (by_word["rebound"], by_word["drop"], by_word["filler3"]) == (2, 2, 3)

    def test_words_outside_the_samples_are_not_candidates(self):
        table, samples = self._planted()
        boosted = _table(
            table.words + ["soar"],
            np.vstack([table.vectors, [1.0, 0.0]]),
        )
        lexicon = build_keyword_lexicon(boosted, samples, k=20)
        assert "soar" not in lexicon.index

    def test_shortfall_keeps_all_candidates_and_warns(self, caplog):
        table, samples = self._planted()
        with caplog.at_level("WARNING"):
            lexicon = build_keyword_lexicon(table, samples, k=1000)
        assert len(lexicon) == 20
        assert "keeping all" in caplog.text

    def test_exactly_k_candidates_do_not_warn(self, caplog):
        table, samples = self._planted()
        with caplog.at_level("WARNING"):
            lexicon = build_keyword_lexicon(table, samples, k=20)
        assert len(lexicon) == 20
        assert caplog.records == []

    def test_single_class_rejected(self):
        table, samples = self._planted()
        positives = [s for s in samples if s.label == POSITIVE]
        with pytest.raises(ValidationError, match="positive and negative"):
            build_keyword_lexicon(table, positives, k=10)

    def test_one_sample_of_each_class_and_one_keyword(self):
        table, samples = self._planted()
        lexicon = build_keyword_lexicon(table, samples[1:3], k=1)
        assert [e.word for e in lexicon.entries] == [min(SEED_WORDS)]

    def test_k_must_be_positive(self):
        table, samples = self._planted()
        with pytest.raises(ValidationError):
            build_keyword_lexicon(table, samples, k=0)


class TestBuildCategoryLexicon:
    def _table(self) -> EmbeddingTable:
        words = ["oil", "gas", "petroleum", "chip", "semiconductor", "unrelated"]
        vectors = [
            [1.0, 0.0],
            [0.95, -0.31],
            [0.99, 0.14],
            [0.0, 1.0],
            [0.14, 0.99],
            [-1.0, 0.1],
        ]
        return _table(words, vectors)

    def test_top_m_per_category(self):
        lexicon = build_category_lexicon(
            self._table(), {"energy": ["oil", "gas"], "tech": ["chip"]}, m=3
        )
        per_category = {c: set() for c in lexicon.categories}
        for e in lexicon.entries:
            per_category[e.category].add(e.word)
        assert per_category["energy"] == {"oil", "gas", "petroleum"}
        assert per_category["tech"] == {"chip", "semiconductor", "petroleum"}

    def test_seed_flags_are_per_category(self):
        lexicon = build_category_lexicon(
            self._table(), {"energy": ["oil", "gas"], "tech": ["chip"]}, m=3
        )
        flags = {(e.category, e.word): e.seed for e in lexicon.entries}
        assert flags[("energy", "oil")] and flags[("tech", "chip")]
        assert not flags[("energy", "petroleum")]
        assert not flags[("tech", "semiconductor")]

    def test_expansion_draws_on_the_whole_vocabulary(self):
        lexicon = build_category_lexicon(self._table(), {"energy": ["oil"]}, m=2)
        assert {e.word for e in lexicon.entries} == {"oil", "petroleum"}

    def test_shared_word_lands_in_both_categories(self):
        lexicon = build_category_lexicon(
            self._table(), {"a": ["oil"], "b": ["oil"]}, m=1
        )
        assert lexicon.word_categories["oil"] == [0, 1]

    def test_unknown_seeds_error_names_the_category(self):
        with pytest.raises(ValidationError, match="ghost"):
            build_category_lexicon(self._table(), {"ghost": ["phantom"]}, m=3)

    def test_shortfall_warns_per_category(self, caplog):
        with caplog.at_level("WARNING"):
            lexicon = build_category_lexicon(self._table(), {"energy": ["oil"]}, m=100)
        assert len(lexicon.entries) == 6
        assert "energy" in caplog.text

    def test_exactly_m_candidates_do_not_warn(self, caplog):
        with caplog.at_level("WARNING"):
            lexicon = build_category_lexicon(self._table(), {"energy": ["oil"]}, m=6)
        assert len(lexicon.entries) == 6
        assert caplog.records == []

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            build_category_lexicon(self._table(), {}, m=3)
        with pytest.raises(ValidationError):
            build_category_lexicon(self._table(), {"energy": []}, m=3)
        with pytest.raises(ValidationError):
            build_category_lexicon(self._table(), {"energy": ["oil"]}, m=0)


class TestLoadCategorySeeds:
    def test_packaged_default(self):
        categories = load_category_seeds(PACKAGED["category_seeds"])
        assert len(categories) == 10
        for seeds in categories.values():
            assert seeds and all(len(s.split()) == 1 for s in seeds)

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# heading\n\n[energy]\noil\ngas\n\n[tech]\nchip\n")
        assert load_category_seeds(path) == {
            "energy": ["oil", "gas"],
            "tech": ["chip"],
        }

    def test_a_header_needs_both_brackets(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("[energy]\n[oil\ngas]\n")
        assert load_category_seeds(path) == {"energy": ["[oil", "gas]"]}

    def test_seed_before_any_header(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("oil\n[energy]\ngas\n")
        with pytest.raises(ParseError, match=":1"):
            load_category_seeds(path)

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_bytes(b"[energy]\noil\ng\x80s\n")
        with pytest.raises(ParseError) as caught:
            load_category_seeds(path)
        assert str(caught.value) == f"{path}:3: not UTF-8 text (byte 0x80)"

    def test_duplicate_category(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("[energy]\noil\n[energy]\ngas\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_category_seeds(path)

    def test_multiword_seed_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("[energy]\ncrude oil\n")
        with pytest.raises(ParseError, match=":2"):
            load_category_seeds(path)

    def test_comma_in_category_name(self, tmp_path):
        # categories.csv could not hold it: featurize would reject the file
        path = tmp_path / "seeds.txt"
        path.write_text("[energy]\noil\n[movers, shakers]\nrise\n")
        with pytest.raises(ParseError, match=r"seeds\.txt:3: comma in category"):
            load_category_seeds(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="no categories"):
            load_category_seeds(path)

    def test_category_without_seeds(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("[energy]\noil\n[tech]\n")
        with pytest.raises(ParseError, match="tech"):
            load_category_seeds(path)


class TestLexiconCollections:
    def test_keyword_lookup(self):
        entry = KeywordEntry("surge", True, 1.0, 3, 0.1, 0.5)
        lexicon = KeywordLexicon([entry])
        assert lexicon.index == {"surge": 0} and lexicon.entries == [entry]

    def test_duplicate_keywords_rejected(self):
        entry = KeywordEntry("surge", True, 1.0, 3, 0.1, 0.5)
        with pytest.raises(ValidationError, match="duplicate"):
            KeywordLexicon([entry, entry])

    def test_category_entry_for_unknown_category_rejected(self):
        entry = CategoryEntry("ghost", "oil", False, 0.5)
        with pytest.raises(ValidationError, match="ghost"):
            CategoryLexicon(["energy"], [entry])

    def test_duplicate_category_entry_rejected(self):
        entry = CategoryEntry("energy", "oil", True, 1.0)
        with pytest.raises(ValidationError, match="duplicate"):
            CategoryLexicon(["energy"], [entry, entry])


class TestLexiconFiles:
    def _keyword_lexicon(self) -> KeywordLexicon:
        rng = np.random.default_rng(19)
        entries = [
            KeywordEntry(
                word=f"word{i}",
                seed=i < 2,
                similarity=float(rng.uniform(-1.0, 1.0)),
                df=int(rng.integers(0, 50)),
                idf=float(rng.uniform(0.0, 4.0)),
                ps=float(rng.normal()),
            )
            for i in range(25)
        ]
        return KeywordLexicon(entries)

    def test_keyword_round_trip_is_exact(self, tmp_path):
        lexicon = self._keyword_lexicon()
        path = tmp_path / "keywords.csv"
        write_keyword_lexicon(lexicon, path)
        assert load_keyword_lexicon(path).entries == lexicon.entries

    def test_keyword_file_bytes(self, tmp_path):
        lexicon = KeywordLexicon(
            [
                KeywordEntry("surge", True, 1.0, 3, 0.5, 0.25),
                KeywordEntry("rally", False, 0.1, 0, 2.0794415416798357, -1.5),
            ]
        )
        path = tmp_path / "keywords.csv"
        write_keyword_lexicon(lexicon, path)
        assert path.read_bytes() == (
            b"word,seed_flag,similarity,df,idf,ps\n"
            b"surge,1,1.0,3,0.5,0.25\n"
            b"rally,0,0.1,0,2.0794415416798357,-1.5\n"
        )
        assert load_keyword_lexicon(path).entries == lexicon.entries

    def test_keyword_bad_header(self, tmp_path):
        path = tmp_path / "keywords.csv"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match=":1"):
            load_keyword_lexicon(path)

    def test_keyword_short_row(self, tmp_path):
        path = tmp_path / "keywords.csv"
        path.write_text("word,seed_flag,similarity,df,idf,ps\nsurge,1,1.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_keyword_lexicon(path)

    def test_category_round_trip_preserves_order(self, tmp_path):
        lexicon = build_category_lexicon(
            _table(["oil", "gas", "chip"], [[1.0, 0.0], [0.9, 0.44], [0.0, 1.0]]),
            {"energy": ["oil"], "tech": ["chip"]},
            m=2,
        )
        path = tmp_path / "categories.csv"
        write_category_lexicon(lexicon, path)
        loaded = load_category_lexicon(path)
        assert loaded.categories == lexicon.categories
        assert loaded.entries == lexicon.entries

    def test_category_file_bytes(self, tmp_path):
        entries = [
            CategoryEntry("energy", "oil", True, 1.0),
            CategoryEntry("energy", "gas", False, 0.8980265101338746),
            CategoryEntry("tech", "chip", True, 1.0),
        ]
        lexicon = CategoryLexicon(["energy", "tech"], entries)
        path = tmp_path / "categories.csv"
        write_category_lexicon(lexicon, path)
        assert path.read_bytes() == (
            b"category,word,seed_flag,similarity\n"
            b"energy,oil,1,1.0\n"
            b"energy,gas,0,0.8980265101338746\n"
            b"tech,chip,1,1.0\n"
        )
        loaded = load_category_lexicon(path)
        assert (loaded.categories, loaded.entries) == (lexicon.categories, entries)

    def test_category_bad_field_count(self, tmp_path):
        path = tmp_path / "categories.csv"
        path.write_text("category,word,seed_flag,similarity\nenergy,oil\n")
        with pytest.raises(ParseError, match=":2"):
            load_category_lexicon(path)
