"""Sentence splitting, alias matching, sample building, and date splits."""

from __future__ import annotations

import json
from datetime import date

import numpy as np
import pytest

from newsmotion.errors import ParseError, ValidationError
from newsmotion.ingest import Article, PriceSeries
from newsmotion.sampling import (
    NEGATIVE,
    POSITIVE,
    AliasMatcher,
    Sample,
    Sentence,
    build_samples,
    default_abbreviations,
    extract_sentences,
    load_aliases,
    load_samples,
    movement_label,
    split_by_date,
    split_sentences,
    write_samples,
)

ABBR = default_abbreviations()


def _series(ticker, observations):
    return PriceSeries(
        ticker,
        tuple(d for d, _ in observations),
        np.asarray([c for _, c in observations], dtype=np.float64),
    )


def _table(*series_list):
    return {s.ticker: s for s in series_list}


class TestSplitSentences:
    def test_splits_on_terminators(self):
        text = "Shares rose. Analysts cheered! Will it last?"
        assert split_sentences(text, ABBR) == [
            "Shares rose.",
            "Analysts cheered!",
            "Will it last?",
        ]

    def test_decimal_points_do_not_split(self):
        text = "The stock fell 3.50 points. Volume doubled."
        assert split_sentences(text, ABBR) == [
            "The stock fell 3.50 points.",
            "Volume doubled.",
        ]

    def test_known_abbreviations_do_not_split(self):
        text = "Apple Inc. shares slid. Mr. Cook spoke."
        assert split_sentences(text, ABBR) == [
            "Apple Inc. shares slid.",
            "Mr. Cook spoke.",
        ]

    def test_tail_without_terminator_is_kept(self):
        assert split_sentences("First one. trailing words", ABBR) == [
            "First one.",
            "trailing words",
        ]

    def test_only_a_chunk_ending_in_a_terminator_ends_a_sentence(self):
        text = 'He said "up." Then it fell! Done?'
        assert split_sentences(text, ABBR) == ['He said "up." Then it fell!', "Done?"]

    def test_any_whitespace_after_a_terminator_ends_a_sentence(self):
        for space in ("\t", "\u00a0"):
            assert split_sentences(f"Up.{space}Down!", ABBR) == ["Up.", "Down!"]

    def test_concatenation_preserves_text_up_to_whitespace(self):
        rng = np.random.default_rng(5)
        words = ["Alpha", "beta", "3.5", "Inc.", "ends.", "next!", "what?"]
        for _ in range(100):
            size = int(rng.integers(1, 30))
            text = " ".join(rng.choice(words, size=size))
            joined = "".join(split_sentences(text, ABBR))
            assert joined.replace(" ", "") == text.replace(" ", "")


class TestAliasMatcher:
    def test_name_matches_case_insensitively(self):
        matcher = AliasMatcher({"Apple": "AAPL"})
        assert matcher.find("apple fell while APPLE rose") == [("AAPL", 0), ("AAPL", 17)]

    def test_symbol_matches_exactly(self):
        matcher = AliasMatcher({"AAPL": "AAPL"})
        assert matcher.find("AAPL rose but aapl is not a symbol") == [("AAPL", 0)]

    def test_longest_alias_wins(self):
        matcher = AliasMatcher({"Apple": "AAPL", "Apple Insurance": "APIN"})
        assert matcher.find("Apple Insurance filed forms") == [("APIN", 0)]

    def test_word_boundaries_required(self):
        matcher = AliasMatcher({"Apple": "AAPL"})
        assert matcher.find("Pineapples and Applesauce") == []

    def test_offsets_point_at_match_start(self):
        matcher = AliasMatcher({"Apple": "AAPL", "Samsung": "SSNLF"})
        text = "Shares of Apple fell behind Samsung."
        assert matcher.find(text) == [("AAPL", 10), ("SSNLF", 28)]

    def test_empty_table_finds_nothing(self):
        assert AliasMatcher({}).find("Apple and AAPL rose") == []
        assert AliasMatcher({}).find("") == []

    def test_same_length_aliases_are_tried_in_string_order(self):
        matcher = AliasMatcher({"ABC": "T1", "Abc": "T2"})
        assert matcher.find("ABC abc aBC") == [("T1", 0), ("T2", 4), ("T2", 8)]

    def test_underscore_and_hyphen_are_boundaries(self):
        matcher = AliasMatcher({"Apple": "AAPL"})
        assert matcher.find("_Apple x-Apple") == [("AAPL", 1), ("AAPL", 9)]

    def test_titlecase_first_letter_matches_its_own_spelling(self):
        # U+01C5 is titlecase: its lower and upper forms both differ from it.
        matcher = AliasMatcher({"\u01c5emal Corp": "DZ"})
        assert matcher.find("\u01c5emal Corp rose") == [("DZ", 0)]

    def test_load_aliases_handles_commas_in_names(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text(
            "# alias,ticker\nApple, Inc.,AAPL\nAAPL,AAPL\nApple, Inc., AAPL\n",
            encoding="utf-8",
        )
        aliases = load_aliases(path)
        assert aliases == {"Apple, Inc.": "AAPL", "AAPL": "AAPL"}

    def test_load_aliases_names_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_bytes(b"# alias,ticker\r\nAcme,ACM\r\nCaf\xe9,CAF\r\n")
        with pytest.raises(ParseError) as caught:
            load_aliases(path)
        assert str(caught.value) == f"{path}:3: not UTF-8 text (byte 0xe9)"

    def test_load_aliases_rejects_bare_lines(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("justoneword\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_aliases(path)

    @pytest.mark.parametrize("blank", [" ", "\t"])
    def test_load_aliases_rejects_a_blank_alias(self, tmp_path, blank):
        path = tmp_path / "aliases.csv"
        path.write_text(f"# alias,ticker\nAcme Corp,ACM\n{blank},ACX\n", encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_aliases(path)
        assert str(caught.value) == f"{path}:3: expected 'alias,ticker'"

    @pytest.mark.parametrize("first, second", [("ACM", "ACX"), ("ACX", "ACM")])
    def test_load_aliases_rejects_an_alias_given_for_two_tickers(
        self, tmp_path, first, second
    ):
        path = tmp_path / "aliases.csv"
        path.write_text(
            f"# alias,ticker\nAcme Corp,{first}\nAcme Corp,{second}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as caught:
            load_aliases(path)
        assert str(caught.value) == (
            f"{path}:3: alias 'Acme Corp' is given for {second} here"
            f" and for {first} on line 2"
        )


class TestMovementLabel:
    def test_up_move_is_positive(self):
        s = _series("AAA", [(date(2012, 1, 2), 10.0), (date(2012, 1, 3), 11.0)])
        assert movement_label(s, date(2012, 1, 2)) == POSITIVE

    def test_down_move_is_negative(self):
        s = _series("AAA", [(date(2012, 1, 2), 10.0), (date(2012, 1, 3), 9.0)])
        assert movement_label(s, date(2012, 1, 2)) == NEGATIVE

    def test_flat_move_is_unlabeled(self):
        s = _series("AAA", [(date(2012, 1, 2), 10.0), (date(2012, 1, 3), 10.0)])
        assert movement_label(s, date(2012, 1, 2)) is None

    def test_no_later_close_is_unlabeled(self):
        s = _series("AAA", [(date(2012, 1, 2), 10.0)])
        assert movement_label(s, date(2012, 1, 2)) is None

    def test_weekend_news_uses_surrounding_closes(self):
        s = _series(
            "AAA",
            [(date(2012, 1, 6), 10.0), (date(2012, 1, 9), 12.0)],  # Fri, Mon
        )
        assert movement_label(s, date(2012, 1, 7)) == POSITIVE  # Saturday


class TestBuildSamples:
    def _sentences(self):
        return [
            Sentence("AAA shares rose.", date(2012, 1, 2), (("AAA", 0),)),
            Sentence("AAA and BBB fell.", date(2012, 1, 2), (("AAA", 0), ("BBB", 8))),
            Sentence("BBB recovered.", date(2012, 1, 3), (("BBB", 0),)),
        ]

    def _prices(self):
        return _table(
            _series(
                "AAA",
                [
                    (date(2012, 1, 2), 10.0),
                    (date(2012, 1, 3), 11.0),
                    (date(2012, 1, 4), 12.0),
                ],
            ),
            _series(
                "BBB",
                [
                    (date(2012, 1, 2), 20.0),
                    (date(2012, 1, 3), 19.0),
                    (date(2012, 1, 4), 21.0),
                ],
            ),
        )

    def test_groups_by_date_and_ticker(self):
        samples = build_samples(self._sentences(), self._prices())
        keys = [(s.date, s.ticker) for s in samples]
        assert keys == [
            (date(2012, 1, 2), "AAA"),
            (date(2012, 1, 2), "BBB"),
            (date(2012, 1, 3), "BBB"),
        ]
        assert len(samples[0].sentences) == 2
        assert len(samples[1].sentences) == 1

    def test_labels_follow_next_day_movement(self):
        samples = build_samples(self._sentences(), self._prices())
        by_key = {(s.date, s.ticker): s.label for s in samples}
        assert by_key[(date(2012, 1, 2), "AAA")] == POSITIVE
        assert by_key[(date(2012, 1, 2), "BBB")] == NEGATIVE
        assert by_key[(date(2012, 1, 3), "BBB")] == POSITIVE

    def test_unknown_ticker_is_unlabeled(self):
        sentences = [Sentence("ZZZ dipped.", date(2012, 1, 2), (("ZZZ", 0),))]
        samples = build_samples(sentences, self._prices())
        assert samples[0].label is None


class TestSplitByDate:
    def _samples(self):
        sentences = [
            Sentence("AAA moved.", d, (("AAA", 0),))
            for d in (
                date(2012, 1, 2),
                date(2012, 1, 3),
                date(2012, 1, 4),
                date(2012, 1, 5),
            )
        ]
        prices = _table(
            _series(
                "AAA",
                [(date(2012, 1, d), 10.0 + d) for d in range(2, 9)],
            )
        )
        return build_samples(sentences, prices)

    def test_boundaries_are_inclusive(self):
        split = split_by_date(self._samples(), date(2012, 1, 3), date(2012, 1, 4))
        assert [s.date for s in split.train] == [date(2012, 1, 2), date(2012, 1, 3)]
        assert [s.date for s in split.validation] == [date(2012, 1, 4)]
        assert [s.date for s in split.test] == [date(2012, 1, 5)]

    def test_unlabeled_samples_are_dropped(self):
        sentences = [Sentence("ZZZ dipped.", date(2012, 1, 2), (("ZZZ", 0),))]
        samples = build_samples(sentences, self._prices_empty())
        split = split_by_date(samples, date(2012, 1, 3), date(2012, 1, 4))
        assert not split.train and not split.validation and not split.test

    def _prices_empty(self):
        return _table()

    def test_reversed_boundaries_rejected(self):
        with pytest.raises(ValidationError):
            split_by_date([], date(2012, 1, 4), date(2012, 1, 4))


class TestSampleCheckpoint:
    def test_round_trip_of_extracted_samples(self, tmp_path):
        matcher = AliasMatcher({"Apple": "AAPL", "AAPL": "AAPL"})
        articles = [
            Article(
                id="a1",
                date=date(2012, 1, 2),
                title="t",
                body="Apple shares rose. AAPL gained again.",
                source="wire",
            )
        ]
        prices = _table(
            _series("AAPL", [(date(2012, 1, 2), 10.0), (date(2012, 1, 3), 11.0)])
        )
        samples = build_samples(extract_sentences(articles, matcher), prices)
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path)
        again = load_samples(path)
        assert again == samples

    def test_round_trip_keeps_mentions(self, tmp_path):
        # No alias table could tag these: only the checkpoint knows them.
        text = "Apple and its rival both rose."
        sentence = Sentence(text, date(2012, 1, 2), (("AAPL", 0), ("MSFT", 14)))
        samples = [
            Sample(ticker, date(2012, 1, 2), (sentence,), POSITIVE)
            for ticker in ("AAPL", "MSFT")
        ]
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path)
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert first["sentences"] == [
            {"text": text, "mentions": [["AAPL", 0], ["MSFT", 14]]}
        ]
        again = load_samples(path)
        assert again == samples
        assert again[1].sentences[0].mentions == (("AAPL", 0), ("MSFT", 14))

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_samples(path)

    @pytest.mark.parametrize(
        "sentence, message",
        [
            ({"text": "A rose."}, "missing field 'mentions'"),
            ("A rose.", "not an object"),
            ({"text": "A rose.", "mentions": []}, "does not mention A"),
            ({"text": "A rose.", "mentions": [["B", 0]]}, "does not mention A"),
            ({"text": "A rose.", "mentions": [["A", "0"]]}, "bad mention"),
            ({"text": "A rose.", "mentions": [["A", 9]]}, "outside sentence"),
        ],
    )
    def test_sentence_without_its_mentions_rejected(self, tmp_path, sentence, message):
        good = {"text": "A fell.", "mentions": [["A", 0]]}
        path = tmp_path / "samples.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for day, s in (("2012-01-02", good), ("2012-01-03", sentence)):
                record = {"ticker": "A", "date": day, "label": POSITIVE, "sentences": [s]}
                fh.write(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=f"samples.jsonl:2: .*{message}"):
            load_samples(path)
