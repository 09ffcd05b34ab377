"""Article files, price series, and date plumbing."""

from __future__ import annotations

import collections
import csv
import json
import random
import re
from datetime import date

import numpy as np
import pytest

from newsmotion.codec import write_blob
from newsmotion.config import SynthConfig
from newsmotion.dates import DateRange, parse_date
from newsmotion.errors import ParseError, ValidationError
from newsmotion.features import training_stats
from newsmotion.ingest import (
    Article,
    PriceSeries,
    load_articles,
    load_price_table,
    load_prices,
    write_articles,
    write_price_table,
)
from newsmotion.synth import generate_synthetic_fixture

from graph_oracle import align_series
from price_oracle import oracle_prices, random_prices_text
from support import write_prices


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDates:
    def test_parse_date_iso(self):
        assert parse_date("2012-05-07") == date(2012, 5, 7)

    def test_parse_date_rejects_other_formats(self):
        with pytest.raises(ValidationError):
            parse_date("07/05/2012")

    def test_range_membership_is_inclusive(self):
        r = DateRange(date(2012, 1, 1), date(2012, 1, 31))
        assert date(2012, 1, 1) in r
        assert date(2012, 1, 31) in r
        assert date(2012, 2, 1) not in r

    def test_range_rejects_reversed_bounds(self):
        with pytest.raises(ValidationError):
            DateRange(date(2012, 2, 1), date(2012, 1, 1))

    def test_range_parse_round_trip(self):
        r = DateRange.parse("2011-01-03:2013-12-31")
        assert str(r) == "2011-01-03:2013-12-31"

    def test_days_enumerates_every_date(self):
        r = DateRange(date(2012, 2, 27), date(2012, 3, 2))
        assert len(list(r.days())) == 5


class TestArticles:
    def test_round_trip(self, tmp_path):
        articles = [
            Article(id="a1", date=date(2012, 3, 1), title="T", body="One.", source="wire"),
            Article(id="a2", date=date(2012, 3, 2), title="U", body="Two.", source="wire"),
        ]
        path = tmp_path / "articles.jsonl"
        write_articles(articles, path)
        assert list(load_articles(path)) == articles

    def test_bad_json_names_the_line(self, tmp_path):
        path = _write(tmp_path, "a.jsonl", '{"id": "x"\n')
        with pytest.raises(ParseError, match=":1"):
            list(load_articles(path))

    def test_missing_field_is_named(self, tmp_path):
        record = '{"id": "x", "date": "2012-01-02", "title": "t", "body": "b"}\n'
        path = _write(tmp_path, "a.jsonl", record)
        with pytest.raises(ParseError, match="source"):
            list(load_articles(path))

    def test_empty_title_is_accepted(self, tmp_path):
        record = (
            '{"id": "x", "date": "2012-01-02", "title": "", '
            '"body": "b", "source": "s"}\n'
        )
        path = _write(tmp_path, "a.jsonl", record)
        (article,) = load_articles(path)
        assert article.title == ""
        assert article.body == "b"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("title", "null"),
            ("body", "null"),
            ("source", "3"),
            ("body", '["b"]'),
            ("id", "null"),
            ("id", "7"),
        ],
    )
    def test_text_field_of_another_type_names_the_line(self, tmp_path, field, value):
        record = {"id": "x", "date": "2012-01-02", "title": "t", "body": "b", "source": "s"}
        good = json.dumps(record)
        bad = good.replace(f'"{field}": "{record[field]}"', f'"{field}": {value}')
        path = _write(tmp_path, "a.jsonl", f"{good}\n{bad}\n")
        with pytest.raises(ParseError) as caught:
            list(load_articles(path))
        assert str(caught.value) == f"{path}:2: {field} must be a string, got {value}"

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        good = (
            '{"id": "x", "date": "2012-01-02", "title": "t", '
            '"body": "b", "source": "s"}\n'
        )
        path = tmp_path / "a.jsonl"
        path.write_bytes(good.encode() + good.replace('"b"', '"\xff"').encode("latin-1"))
        with pytest.raises(ParseError) as caught:
            list(load_articles(path))
        assert str(caught.value) == f"{path}:2: not UTF-8 text (byte 0xff)"

    @pytest.mark.parametrize("text", ["20120102", "2012-W01-1"])
    def test_date_that_is_not_yyyy_mm_dd_names_the_line(self, tmp_path, text):
        record = {"id": "x", "date": text, "title": "t", "body": "b", "source": "s"}
        path = _write(tmp_path, "a.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ParseError) as caught:
            list(load_articles(path))
        assert str(caught.value) == (
            f"{path}:1: invalid date {text!r}: Invalid isoformat string: {text!r}"
        )

    def test_duplicate_id_names_the_line(self, tmp_path):
        record = {"id": "a1", "date": "2012-01-02", "title": "t", "body": "b", "source": "s"}
        other = {**record, "date": "2012-01-03", "body": "c"}
        path = _write(tmp_path, "a.jsonl", f"{json.dumps(record)}\n{json.dumps(other)}\n")
        with pytest.raises(ParseError) as caught:
            list(load_articles(path))
        assert str(caught.value) == f"{path}:2: duplicate article id 'a1'"

    def test_blank_lines_are_skipped(self, tmp_path):
        record = (
            '\n{"id": "x", "date": "2012-01-02", "title": "t", '
            '"body": "b", "source": "s"}\n\n'
        )
        path = _write(tmp_path, "a.jsonl", record)
        assert len(list(load_articles(path))) == 1


class TestPriceSeries:
    def test_index_helpers(self):
        s = PriceSeries(
            "AAA",
            (date(2012, 1, 2), date(2012, 1, 3), date(2012, 1, 5)),
            np.array([10.0, 11.0, 12.0]),
        )
        assert s.last_index_on_or_before(date(2012, 1, 4)) == 1
        assert s.last_index_on_or_before(date(2012, 1, 1)) is None
        assert s.first_index_after(date(2012, 1, 3)) == 2
        assert s.first_index_after(date(2012, 1, 5)) is None

    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValidationError):
            PriceSeries(
                "AAA", (date(2012, 1, 3), date(2012, 1, 2)), np.array([1.0, 2.0])
            )

    def test_rejects_nonpositive_closes(self):
        with pytest.raises(ValidationError):
            PriceSeries("AAA", (date(2012, 1, 2),), np.array([0.0]))

    @pytest.mark.parametrize("close", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_closes(self, close):
        days = (date(2012, 1, 2), date(2012, 1, 3))
        with pytest.raises(ValidationError) as caught:
            PriceSeries("AAA", days, np.array([10.0, close]))
        assert str(caught.value) == "AAA: closes must be finite and > 0"


YEAR_2012 = DateRange(date(2012, 1, 1), date(2012, 12, 31))


class TestLoadPrices:
    """Loading, and the training-window stats the featurizer takes from it."""

    def test_training_stats_use_population_std(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n"
            "2012-01-02,AAA,10\n2012-01-03,AAA,20\n2012-01-04,AAA,30\n",
        )
        mean, std = training_stats(load_prices(path), YEAR_2012)["AAA"]
        assert mean == pytest.approx(20.0, abs=1e-12)
        assert std == pytest.approx(np.sqrt(200.0 / 3.0), abs=1e-12)

    def test_stats_window_excludes_later_closes(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n"
            "2012-01-02,AAA,10\n2012-01-03,AAA,20\n2013-01-03,AAA,999\n",
        )
        mean, _ = training_stats(load_prices(path), YEAR_2012)["AAA"]
        assert mean == pytest.approx(15.0, abs=1e-12)

    def test_constant_closes_are_unnormalizable(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n2012-01-02,AAA,10\n2012-01-03,AAA,10\n",
        )
        prices = load_prices(path)
        assert "AAA" in prices
        assert training_stats(prices, YEAR_2012) == {}

    def test_duplicate_row_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n2012-01-02,AAA,10\n2012-01-02,AAA,11\n",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_prices(path)

    def test_bad_header_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv", "day,sym,price\n2012-01-02,AAA,10\n")
        with pytest.raises(ParseError, match="header"):
            load_prices(path)

    def test_comma_in_ticker_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            'date,ticker,close\n2012-01-02,AAA,10\n2012-01-02,"Q,Z",11\n',
        )
        with pytest.raises(ParseError, match=r"p\.csv:3: comma in ticker 'Q,Z'"):
            load_prices(path)

    def test_round_trip(self, tmp_path):
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n"
            "2012-01-02,AAA,10.5\n2012-01-02,BBB,3.25\n2012-01-03,AAA,11.75\n",
        )
        prices = load_prices(path)
        out = tmp_path / "copy.csv"
        write_prices(prices, out)
        again = load_prices(out)
        assert list(again) == list(prices) == ["AAA", "BBB"]
        for ticker in prices:
            assert again[ticker].dates == prices[ticker].dates
            np.testing.assert_array_equal(again[ticker].closes, prices[ticker].closes)



def _iso_error(text: str) -> str:
    """What ``date.fromisoformat`` says about ``text`` on this Python."""
    try:
        date.fromisoformat(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is a valid date")


_GOOD = "2012-01-02,AAA,10\n"


class TestLoadPricesErrors:
    """Each bad row raises its own exact message, naming the file and line."""

    @pytest.mark.parametrize(
        "body, kind, message",
        [
            ("2012-01-03,AAA\n", ParseError, "3: expected 3 columns, got 2"),
            ("2012-01-03,AAA,10,x\n", ParseError, "3: expected 3 columns, got 4"),
            (
                "07/05/2012,AAA,10\n",
                ValidationError,
                f"3: invalid date '07/05/2012': {_iso_error('07/05/2012')}",
            ),
            (
                "2012-01-03 ,AAA,10\n",
                ValidationError,
                f"3: invalid date '2012-01-03 ': {_iso_error('2012-01-03 ')}",
            ),
            # date.fromisoformat takes these two from Python 3.11 on
            (
                "20120102,AAA,10\n",
                ValidationError,
                "3: invalid date '20120102': Invalid isoformat string: '20120102'",
            ),
            (
                "2012-W01-1,AAA,10\n",
                ValidationError,
                "3: invalid date '2012-W01-1': Invalid isoformat string: '2012-W01-1'",
            ),
            ("2012-01-03, ,10\n", ValidationError, "3: empty ticker"),
            ("2012-01-03,AAA,ten\n", ParseError, "3: bad close 'ten'"),
            ("2012-01-03,AAA,\n", ParseError, "3: bad close ''"),
            ("2012-01-03,AAA,0\n", ValidationError, "3: close must be > 0, got 0.0"),
            ("2012-01-03,AAA,-1.5\n", ValidationError, "3: close must be > 0, got -1.5"),
            ("2012-01-02,AAA,11\n", ValidationError, "3: duplicate (2012-01-02, AAA)"),
            ("2012-01-02, AAA ,11\n", ValidationError, "3: duplicate (2012-01-02, AAA)"),
            ('2012-01-02,"Q,Z",11\n', ParseError, "3: comma in ticker 'Q,Z'"),
        ],
    )
    def test_bad_row_message(self, tmp_path, body, kind, message):
        path = _write(tmp_path, "p.csv", "date,ticker,close\n" + _GOOD + body)
        with pytest.raises(kind) as caught:
            load_prices(path)
        assert type(caught.value) is kind
        assert str(caught.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "text",
        ["", "\n2012-01-02,AAA,10\n", "day,sym,price\n" + _GOOD, "date,ticker\n" + _GOOD],
    )
    def test_bad_header_message(self, tmp_path, text):
        path = _write(tmp_path, "p.csv", text)
        with pytest.raises(ParseError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}: expected header 'date,ticker,close'"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("good_rows", [1, 1000])
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, newline, good_rows):
        rows = [f"2012-01-{d:02d},T{k},10" for k in range(36) for d in range(1, 29)]
        lines = ["date,ticker,close", *rows[:good_rows], "2012-01-02,Z\xff,1", ""]
        path = tmp_path / "p.csv"
        path.write_bytes(newline.join(lines).encode("latin-1"))
        with pytest.raises(ParseError) as caught:
            load_prices(path)
        line = good_rows + 2
        assert str(caught.value) == f"{path}:{line}: not UTF-8 text (byte 0xff)"

    def test_first_bad_line_wins(self, tmp_path):
        """A duplicate is reported at its own line, before a later bad row."""
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n"
            "2012-01-02,AAA,10\n2012-01-02,BBB,5\n"
            "2012-01-02,AAA,11\n2012-01-03,AAA,ten\n",
        )
        with pytest.raises(ValidationError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:4: duplicate (2012-01-02, AAA)"

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        path = _write(tmp_path, "p.csv", "date,ticker,close\n\n" + _GOOD + "\n2012-01-03,AAA,x\n")
        with pytest.raises(ParseError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:5: bad close 'x'"

    def test_duplicate_after_an_earlier_date_is_caught(self, tmp_path):
        """A row that is out of order is not the only one checked for a duplicate."""
        path = _write(
            tmp_path,
            "p.csv",
            "date,ticker,close\n2012-01-06,A,1\n2012-01-02,A,2\n2012-01-06,A,3\n",
        )
        with pytest.raises(ValidationError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:4: duplicate (2012-01-06, A)"

    def test_quoted_line_break_counts_as_one_row(self, tmp_path):
        """Errors name the row counted from the header, not the physical line."""
        path = _write(
            tmp_path, "p.csv", 'date,ticker,close\n2012-01-02,"A\nB",1\n2012-01-03,A,x\n'
        )
        with pytest.raises(ParseError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:3: bad close 'x'"

    @pytest.mark.parametrize(
        "head, line",
        [("", 1), ("date,ticker,close\n", 2), ("date,ticker,close\n" + _GOOD, 3)],
        ids=["header", "first row", "second row"],
    )
    def test_malformed_csv_names_the_row(self, tmp_path, head, line):
        """A quote left open runs on until its field outgrows csv's limit."""
        rows = "".join(f"2012-01-{d:02d},T{k},10\n" for k in range(300) for d in range(3, 30))
        path = _write(tmp_path, "p.csv", head + '2012-01-02,"AAA,10\n' + rows)
        with pytest.raises(ParseError) as caught:
            load_prices(path)
        limit = csv.field_size_limit()
        assert str(caught.value) == f"{path}:{line}: field larger than field limit ({limit})"

    @pytest.mark.parametrize("close", ["nan", "NaN", "inf", "+Infinity", "1e999"])
    def test_non_finite_close_names_the_file(self, tmp_path, close):
        path = _write(tmp_path, "p.csv", f"date,ticker,close\n{_GOOD}2012-01-03,AAA,{close}\n")
        with pytest.raises(ValidationError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:3: close must be finite and > 0"

    def test_negative_infinity_is_not_positive(self, tmp_path):
        path = _write(tmp_path, "p.csv", f"date,ticker,close\n{_GOOD}2012-01-03,AAA,-inf\n")
        with pytest.raises(ValidationError) as caught:
            load_prices(path)
        assert str(caught.value) == f"{path}:3: close must be > 0, got -inf"


def _closes(*values: float) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLoadPricesEquivalence:
    """Layouts the loader accepts, pinned to the series they load as."""

    EXPECTED = {
        "AAA": ((date(2012, 1, 2), date(2012, 1, 3), date(2012, 1, 5)), _closes(10.5, 11.25, 0.1)),
        "BBB": ((date(2012, 1, 2), date(2012, 1, 4)), _closes(3.0, 1e-05)),
    }

    def _check(self, path):
        prices = load_prices(path)
        assert list(prices) == ["AAA", "BBB"]
        for ticker, (dates, closes) in self.EXPECTED.items():
            assert prices[ticker].ticker == ticker
            assert prices[ticker].dates == dates
            assert prices[ticker].closes.dtype == np.float64
            assert prices[ticker].closes.tobytes() == closes

    ROWS = (
        "2012-01-02,AAA,10.5",
        "2012-01-02,BBB,3",
        "2012-01-03,AAA,11.25",
        "2012-01-04,BBB,1e-5",
        "2012-01-05,AAA,.1",
    )

    def test_sorted_rows(self, tmp_path):
        self._check(_write(tmp_path, "p.csv", "date,ticker,close\n" + "\n".join(self.ROWS)))

    def test_unsorted_rows(self, tmp_path):
        rows = [self.ROWS[i] for i in (4, 3, 0, 2, 1)]
        self._check(_write(tmp_path, "p.csv", "date,ticker,close\n" + "\n".join(rows) + "\n"))

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(("date,ticker,close\r\n" + "\r\n".join(self.ROWS) + "\r\n").encode())
        self._check(path)

    def test_blank_lines(self, tmp_path):
        text = "date,ticker,close\n\n" + "\n\n".join(self.ROWS) + "\n\n\r\n"
        self._check(_write(tmp_path, "p.csv", text))

    def test_header_with_spaces(self, tmp_path):
        text = " date , ticker ,close \n" + "\n".join(self.ROWS) + "\n"
        self._check(_write(tmp_path, "p.csv", text))

    def test_quoted_fields_and_padded_tickers(self, tmp_path):
        rows = [
            '"2012-01-02","AAA"," 10.5 "',
            "2012-01-02, BBB ,3",
            '2012-01-03,"AAA",11.25',
            '"2012-01-04",BBB,1e-5',
            '2012-01-05,"AAA",.1',
        ]
        text = '"date","ticker","close"\n' + "\n".join(rows) + "\n"
        self._check(_write(tmp_path, "p.csv", text))


class TestLoadPricesOracle:
    def test_generated_files_match_the_oracle(self, tmp_path):
        """Series bytes, or exception type and message, equal the csv.reader oracle's."""
        rng = random.Random(19)
        path = tmp_path / "p.csv"
        outcomes = collections.Counter()
        for _ in range(2000):
            path.write_bytes(random_prices_text(rng).encode("utf-8"))
            expected, got = _outcome(oracle_prices, path), _outcome(load_prices, path)
            assert got == expected, path.read_bytes()
            outcomes[expected[0]] += 1
        # every kind of outcome occurs, each many times
        assert set(outcomes) == {"ok", ParseError, ValidationError}
        assert min(outcomes.values()) > 300


def _outcome(load, path) -> tuple:
    try:
        prices = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return "ok", [
        (ticker, s.ticker, s.dates, s.closes.dtype, s.closes.tobytes())
        for ticker, s in prices.items()
    ]


def _series(prices) -> list[tuple]:
    return [
        (ticker, s.ticker, s.dates, s.closes.dtype, s.closes.tobytes())
        for ticker, s in prices.items()
    ]


JAN_3 = float(date(2012, 1, 3).toordinal())


class TestPriceTable:
    """prices.bin: the checked series, loaded without parsing the CSV again."""

    def _round_trip(self, csv_path, tmp_path):
        prices = load_prices(csv_path)
        table = tmp_path / "prices.bin"
        write_price_table(prices, table)
        assert _series(load_price_table(table)) == _series(prices)
        return table

    def test_seed_7_fixture_loads_bit_for_bit(self, tmp_path):
        paths = [tmp_path / name for name in ("a.jsonl", "prices.csv", "aliases.csv")]
        generate_synthetic_fixture(SynthConfig(), *paths)
        self._round_trip(paths[1], tmp_path)

    def test_calendars_and_row_order_survive(self, tmp_path):
        rows = [
            "2012-01-05,BBB,7.25",
            "2012-01-02,AAA,10.5",
            "2013-03-01,CCC,1e-3",
            "2012-01-03,BBB,0.1",
            "2012-01-04,AAA,11.0",
            "2012-01-02,CCC,3",
            "2012-01-03,AAA,12.125",
        ]
        path = _write(tmp_path, "p.csv", "date,ticker,close\n" + "\n".join(rows))
        table = load_price_table(self._round_trip(path, tmp_path))
        assert list(table) == ["AAA", "BBB", "CCC"]
        assert table["CCC"].dates == (date(2012, 1, 2), date(2013, 3, 1))

    def test_empty_table_round_trips(self, tmp_path):
        path = tmp_path / "prices.bin"
        write_price_table({}, path)
        assert load_price_table(path) == {}

    def _table(self, tmp_path):
        rows = "2012-01-02,AAA,10\n2012-01-03,AAA,11\n2012-01-02,BBB,3\n"
        path = _write(tmp_path, "p.csv", "date,ticker,close\n" + rows)
        return self._round_trip(path, tmp_path)

    def test_truncated_table_names_the_file(self, tmp_path):
        path = self._table(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError) as caught:
            load_price_table(path)
        assert str(caught.value) == f"{path}: expected 48 data bytes, found 40"

    def test_lengths_that_disagree_with_the_bytes_name_the_file(self, tmp_path):
        path = self._table(tmp_path)
        header, data = path.read_bytes().split(b"\n", 1)
        assert json.loads(header) == {"lengths": [2, 1], "tickers": ["AAA", "BBB"]}
        path.write_bytes(b'{"lengths":[2,2],"tickers":["AAA","BBB"]}\n' + data)
        with pytest.raises(ParseError) as caught:
            load_price_table(path)
        assert str(caught.value) == f"{path}: expected 64 data bytes, found 48"

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"tickers": ["AAA"]}, "missing header field 'lengths'"),
            ({"tickers": "AAA", "lengths": [3]}, "tickers must be non-empty strings"),
            ({"tickers": ["BBB", "AAA"], "lengths": [2, 1]}, "distinct and in order"),
            ({"tickers": ["AAA", "AAA"], "lengths": [2, 1]}, "distinct and in order"),
            ({"tickers": ["AAA", "BBB"], "lengths": [3]}, "one count >= 0 per ticker"),
            ({"tickers": ["AAA", "BBB"], "lengths": [4, -1]}, "one count >= 0"),
            ({"tickers": ["AAA", "BBB"], "lengths": [2.0, 1]}, "one count >= 0"),
        ],
    )
    def test_bad_header_field_names_the_file(self, tmp_path, header, message):
        path = self._table(tmp_path)
        data = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(json.dumps(header).encode() + b"\n" + data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_price_table(path)

    @pytest.mark.parametrize(
        "ordinal, close, message",
        [
            (JAN_3 + 0.5, 10.0, "dates must be whole day ordinals"),
            (0.0, 10.0, "dates must be whole day ordinals"),
            (np.nan, 10.0, "dates must be whole day ordinals"),
            (JAN_3 - 2, 10.0, "AAA: dates not strictly ascending at 2012-01-01"),
            (JAN_3, np.inf, "AAA: closes must be finite and > 0"),
            (JAN_3, -1.0, "AAA: closes must be finite and > 0"),
        ],
    )
    def test_bad_values_name_the_file(self, tmp_path, ordinal, close, message):
        # AAA's second row; its first is 2012-01-02 at 10.0.
        path = tmp_path / "prices.bin"
        values = [np.array([JAN_3 - 1, ordinal]), np.array([10.0, close])]
        write_blob(path, {"tickers": ["AAA"], "lengths": [2]}, values)
        with pytest.raises(ParseError) as caught:
            load_price_table(path)
        assert str(caught.value) == f"{path}: {message}"


class TestAlignSeries:
    """The per-pair date alignment behind the graph build's test oracle."""

    def test_common_dates_in_order(self):
        a = PriceSeries(
            "AAA",
            (date(2012, 1, 2), date(2012, 1, 3), date(2012, 1, 4)),
            np.array([1.0, 2.0, 3.0]),
        )
        b = PriceSeries(
            "BBB",
            (date(2012, 1, 3), date(2012, 1, 4), date(2012, 1, 5)),
            np.array([10.0, 20.0, 30.0]),
        )
        u, v = align_series(a, b)
        np.testing.assert_array_equal(u, [2.0, 3.0])
        np.testing.assert_array_equal(v, [10.0, 20.0])

    def test_window_restricts_dates(self):
        a = PriceSeries(
            "AAA", (date(2012, 1, 2), date(2012, 1, 3)), np.array([1.0, 2.0])
        )
        b = PriceSeries(
            "BBB", (date(2012, 1, 2), date(2012, 1, 3)), np.array([5.0, 6.0])
        )
        u, v = align_series(a, b, DateRange(date(2012, 1, 3), date(2012, 1, 3)))
        np.testing.assert_array_equal(u, [2.0])
        np.testing.assert_array_equal(v, [6.0])

    def test_disjoint_series_align_empty(self):
        a = PriceSeries("AAA", (date(2012, 1, 2),), np.array([1.0]))
        b = PriceSeries("BBB", (date(2012, 1, 3),), np.array([2.0]))
        u, v = align_series(a, b)
        assert len(u) == 0 and len(v) == 0
