"""Article files, price series, and date plumbing."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from newsmotion.dates import DateRange, parse_date
from newsmotion.errors import ParseError, ValidationError
from newsmotion.features import training_stats
from newsmotion.ingest import (
    Article,
    PriceSeries,
    load_articles,
    load_prices,
    write_articles,
)

from graph_oracle import align_series
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
