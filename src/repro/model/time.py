"""Time points and frequencies for the Matrix data model.

Statistical cubes distinguish *time dimensions* from ordinary ones
(Section 3 of the paper): a cube with a single time dimension is a time
series, and operators such as ``shift`` and frequency conversion
(``quarter(d)`` in the paper's statement (1)) act on time values.

A :class:`TimePoint` is an immutable pair ``(frequency, ordinal)`` where
the ordinal is a count of periods since a fixed epoch:

========== ==========================================
frequency  ordinal meaning
========== ==========================================
DAY        proleptic Gregorian ordinal (``date.toordinal``)
WEEK       ISO week count since week 1 of year 1
MONTH      ``year * 12 + (month - 1)``
QUARTER    ``year * 4 + (quarter - 1)``
YEAR       ``year``
========== ==========================================

Because ordinals are plain integers, shifting a time point by *s*
periods — the paper's ``shift`` operator — is integer addition, and
time points order and hash naturally.
"""

from __future__ import annotations

import datetime as _dt
import enum
import functools
import re
from dataclasses import dataclass

from ..errors import TimeError

__all__ = [
    "Frequency",
    "TimePoint",
    "day",
    "week",
    "month",
    "quarter",
    "year",
    "convert",
    "parse_timepoint",
    "rollup_path",
]


class Frequency(enum.Enum):
    """Sampling frequency of a time dimension, highest to lowest."""

    DAY = "D"
    WEEK = "W"
    MONTH = "M"
    QUARTER = "Q"
    YEAR = "A"

    @property
    def rank(self) -> int:
        """Position in the frequency hierarchy; higher means finer."""
        return _RANKS[self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frequency.{self.name}"


_RANKS = {
    Frequency.YEAR: 0,
    Frequency.QUARTER: 1,
    Frequency.MONTH: 2,
    Frequency.WEEK: 3,
    Frequency.DAY: 4,
}


@functools.total_ordering
@dataclass(frozen=True)
class TimePoint:
    """An immutable point on a calendar axis at a given frequency."""

    freq: Frequency
    ordinal: int

    def __post_init__(self):
        if not isinstance(self.freq, Frequency):
            raise TimeError(f"freq must be a Frequency, got {self.freq!r}")
        if not isinstance(self.ordinal, int):
            raise TimeError(f"ordinal must be an int, got {self.ordinal!r}")
        # time points are hashed far more often than constructed (fact
        # sets, functional indexes, dictionary encoding), and the
        # generated dataclass hash builds a fresh (freq, ordinal) tuple
        # per call — precompute the same value once instead
        object.__setattr__(self, "_hash", hash((self.freq, self.ordinal)))

    def __hash__(self) -> int:
        return self._hash

    # -- ordering -----------------------------------------------------
    def __lt__(self, other: "TimePoint") -> bool:
        if not isinstance(other, TimePoint):
            return NotImplemented
        if self.freq is not other.freq:
            raise TimeError(
                f"cannot compare time points of different frequencies: "
                f"{self.freq.name} vs {other.freq.name}"
            )
        return self.ordinal < other.ordinal

    # -- arithmetic ---------------------------------------------------
    def shift(self, periods: int) -> "TimePoint":
        """Return this point moved forward by ``periods`` (may be negative)."""
        return TimePoint(self.freq, self.ordinal + periods)

    def __add__(self, periods: int) -> "TimePoint":
        if not isinstance(periods, int):
            return NotImplemented
        return self.shift(periods)

    def __sub__(self, other):
        if isinstance(other, int):
            return self.shift(-other)
        if isinstance(other, TimePoint):
            if self.freq is not other.freq:
                raise TimeError("cannot subtract time points of different frequencies")
            return self.ordinal - other.ordinal
        return NotImplemented

    # -- calendar accessors --------------------------------------------
    @property
    def year(self) -> int:
        """Calendar year containing this point."""
        if self.freq is Frequency.YEAR:
            return self.ordinal
        if self.freq is Frequency.QUARTER:
            return self.ordinal // 4
        if self.freq is Frequency.MONTH:
            return self.ordinal // 12
        if self.freq is Frequency.WEEK:
            return self.to_date().isocalendar()[0]
        return self.to_date().year

    @property
    def quarter_of_year(self) -> int:
        """Quarter (1..4) containing this point."""
        if self.freq is Frequency.YEAR:
            raise TimeError("a YEAR point has no quarter")
        if self.freq is Frequency.QUARTER:
            return self.ordinal % 4 + 1
        return (self.month_of_year - 1) // 3 + 1

    @property
    def month_of_year(self) -> int:
        """Month (1..12) containing this point."""
        if self.freq in (Frequency.YEAR, Frequency.QUARTER):
            raise TimeError(f"a {self.freq.name} point has no month")
        if self.freq is Frequency.MONTH:
            return self.ordinal % 12 + 1
        return self.to_date().month

    def to_date(self) -> _dt.date:
        """The first calendar day of this period."""
        if self.freq is Frequency.DAY:
            return _dt.date.fromordinal(self.ordinal)
        if self.freq is Frequency.WEEK:
            return _dt.date.fromordinal(self.ordinal * 7 + _WEEK_EPOCH)
        if self.freq is Frequency.MONTH:
            return _dt.date(self.ordinal // 12, self.ordinal % 12 + 1, 1)
        if self.freq is Frequency.QUARTER:
            return _dt.date(self.ordinal // 4, (self.ordinal % 4) * 3 + 1, 1)
        return _dt.date(self.ordinal, 1, 1)

    # -- rendering -----------------------------------------------------
    def __str__(self) -> str:
        # a point is formatted far more often than it is built (every
        # cube it is a key of is written, journalled and loaded into
        # the next target), so the text is kept on the point, like its
        # hash: one format per point, shared by every cube holding it
        try:
            return self._text
        except AttributeError:
            text = self._format()
            object.__setattr__(self, "_text", text)
            return text

    def _format(self) -> str:
        if self.freq is Frequency.DAY:
            return self.to_date().isoformat()
        if self.freq is Frequency.WEEK:
            iso = self.to_date().isocalendar()
            return f"{iso[0]}W{iso[1]:02d}"
        if self.freq is Frequency.MONTH:
            return f"{self.year}M{self.month_of_year:02d}"
        if self.freq is Frequency.QUARTER:
            return f"{self.year}Q{self.quarter_of_year}"
        return str(self.year)

    def __repr__(self) -> str:
        return f"TimePoint({self.freq.name}, {self!s})"


# Monday of ISO week 1 of year 1, as a day ordinal, so that week
# ordinals count whole ISO weeks from that Monday.
_WEEK_EPOCH = _dt.date.fromisocalendar(1, 1, 1).toordinal()


def day(y: int, m: int, d: int) -> TimePoint:
    """A daily time point for the calendar date ``y-m-d``."""
    try:
        ordinal = _dt.date(y, m, d).toordinal()
    except ValueError as exc:
        raise TimeError(f"invalid date {y}-{m}-{d}: {exc}") from exc
    return TimePoint(Frequency.DAY, ordinal)


def week(y: int, w: int) -> TimePoint:
    """A weekly time point for ISO week ``w`` of ISO year ``y``."""
    try:
        monday = _dt.date.fromisocalendar(y, w, 1)
    except ValueError as exc:
        raise TimeError(f"invalid ISO week {y}W{w}: {exc}") from exc
    return TimePoint(Frequency.WEEK, (monday.toordinal() - _WEEK_EPOCH) // 7)


def month(y: int, m: int) -> TimePoint:
    """A monthly time point for month ``m`` of year ``y``."""
    if not 1 <= m <= 12:
        raise TimeError(f"invalid month {m}")
    return TimePoint(Frequency.MONTH, y * 12 + (m - 1))


def quarter(y: int, q: int) -> TimePoint:
    """A quarterly time point for quarter ``q`` of year ``y``."""
    if not 1 <= q <= 4:
        raise TimeError(f"invalid quarter {q}")
    return TimePoint(Frequency.QUARTER, y * 4 + (q - 1))


def year(y: int) -> TimePoint:
    """A yearly time point for calendar year ``y``."""
    return TimePoint(Frequency.YEAR, y)


def convert(point: TimePoint, target: Frequency) -> TimePoint:
    """Down-sample ``point`` to a coarser (or equal) frequency.

    This is the scalar dimension function behind the paper's
    ``quarter(t)`` in tgd (1): the quarterly period containing a day.
    Converting to a *finer* frequency is ambiguous and raises
    :class:`TimeError`.
    """
    if target is point.freq:
        return point
    if target.rank > point.freq.rank:
        raise TimeError(
            f"cannot convert {point.freq.name} to finer frequency {target.name}"
        )
    if target is Frequency.YEAR:
        return year(point.year)
    if target is Frequency.QUARTER:
        return quarter(point.year, point.quarter_of_year)
    if target is Frequency.MONTH:
        return month(point.year, point.month_of_year)
    # target is WEEK, point is DAY
    date = point.to_date()
    iso = date.isocalendar()
    return week(iso[0], iso[1])


def rollup_path(freq: Frequency) -> tuple:
    """The coarser frequencies a time dimension rolls up through.

    This is the calendar hierarchy behind OLAP roll-up and drill-down:
    every point at ``freq`` maps to exactly one period at each returned
    frequency via :func:`convert`, ordered finest to coarsest.  WEEK is
    excluded from the paths of finer frequencies because ISO weeks
    straddle month and quarter boundaries — a week does not nest inside
    any of them — while a WEEK dimension itself rolls up to its ISO
    year only.
    """
    if freq is Frequency.WEEK:
        return (Frequency.YEAR,)
    return tuple(
        f
        for f in (Frequency.MONTH, Frequency.QUARTER, Frequency.YEAR)
        if f.rank < freq.rank
    )


_PATTERNS = [
    (re.compile(r"^(\d{4})-(\d{2})-(\d{2})$"), lambda m: day(int(m[1]), int(m[2]), int(m[3]))),
    (re.compile(r"^(\d{4})W(\d{1,2})$"), lambda m: week(int(m[1]), int(m[2]))),
    (re.compile(r"^(\d{4})M(\d{1,2})$"), lambda m: month(int(m[1]), int(m[2]))),
    (re.compile(r"^(\d{4})Q([1-4])$"), lambda m: quarter(int(m[1]), int(m[2]))),
    (re.compile(r"^(\d{4})$"), lambda m: year(int(m[1]))),
]


def parse_timepoint(text: str) -> TimePoint:
    """Parse the string forms produced by :meth:`TimePoint.__str__`.

    Accepted formats: ``2020-03-15`` (day), ``2020W07`` (week),
    ``2020M03`` (month), ``2020Q1`` (quarter), ``2020`` (year).
    """
    for pattern, build in _PATTERNS:
        match = pattern.match(text.strip())
        if match:
            return build(match)
    raise TimeError(f"unrecognized time point literal: {text!r}")
