"""Calendar dates: ISO parsing and inclusive date ranges.

This module imports no numpy and no ``dataclasses``, so the config
schema and the CLI's skip check can use it without loading any stage
module.
"""

from __future__ import annotations

import re
from datetime import date as Date
from datetime import timedelta
from typing import Iterator

from .errors import ValidationError
from .record import Record


_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> Date:
    """The date ``text`` names as YYYY-MM-DD; ValueError for any other form.

    From Python 3.11 on, ``date.fromisoformat`` alone also takes forms such
    as ``20120102`` and ``2012-W01-1``.
    """
    if isinstance(text, str) and not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return Date.fromisoformat(text)


def parse_date(text: str) -> Date:
    try:
        return iso_date(text)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid date {text!r}: {exc}") from exc


class DateRange(Record):
    """Inclusive calendar-date interval, a frozen record of its two ends."""

    start: Date
    end: Date

    def __post_init__(self):
        if self.start > self.end:
            raise ValidationError(f"empty date range {self.start}..{self.end}")

    def __contains__(self, d: Date) -> bool:
        return self.start <= d <= self.end

    def __str__(self) -> str:
        return f"{self.start.isoformat()}:{self.end.isoformat()}"

    @classmethod
    def parse(cls, text: str) -> "DateRange":
        left, sep, right = text.partition(":")
        if not sep:
            raise ValidationError(f"date range needs 'start:end', got {text!r}")
        return cls(parse_date(left), parse_date(right))

    def days(self) -> Iterator[Date]:
        d = self.start
        while d <= self.end:
            yield d
            d += timedelta(days=1)
