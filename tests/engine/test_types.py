"""Tests for engine value types."""

import pytest

from repro.engine.types import Date, compare_values, value_byte_size


class TestDate:
    def test_parse_and_format(self):
        date = Date.parse("1995-03-15")
        assert str(date) == "1995-03-15"
        assert date.year == 1995

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Date.parse("not-a-date")

    def test_ordering(self):
        assert Date.parse("1994-01-01") < Date.parse("1994-01-02")
        assert Date.parse("1994-01-01") <= Date.parse("1994-01-01")
        assert Date.parse("1995-01-01") > Date.parse("1994-12-31")

    def test_difference_in_days(self):
        delta = Date.parse("1994-02-01") - Date.parse("1994-01-01")
        assert delta == 31

    def test_add_days(self):
        assert Date.parse("1993-12-30").add_days(3) == Date.parse("1994-01-02")
        assert Date.parse("1994-01-02").add_days(-2) == Date.parse("1993-12-31")

    def test_add_months(self):
        assert Date.parse("1993-07-01").add_months(3) == Date.parse("1993-10-01")
        assert Date.parse("1993-11-15").add_months(2) == Date.parse("1994-01-15")

    def test_add_months_clamps_day(self):
        assert Date.parse("1994-01-31").add_months(1) == Date.parse("1994-02-28")

    def test_add_months_leap_year(self):
        assert Date.parse("1996-01-31").add_months(1) == Date.parse("1996-02-29")

    def test_add_years(self):
        assert Date.parse("1994-01-01").add_years(1) == Date.parse("1995-01-01")

    def test_hashable(self):
        assert len({Date.parse("1994-01-01"), Date.parse("1994-01-01")}) == 1

    def test_not_equal_to_int(self):
        assert Date.parse("1994-01-01") != 728294


class TestValueByteSize:
    @pytest.mark.parametrize("value,size", [
        (None, 1),
        (42, 8),
        (3.14, 8),
        (Date.parse("1994-01-01"), 4),
        ("abcd", 8),  # 4 + len
    ])
    def test_sizes(self, value, size):
        assert value_byte_size(value) == size

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            value_byte_size(object())


class TestCompareValues:
    def test_numeric(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 1) == 1
        assert compare_values(2, 2) == 0
        assert compare_values(1, 1.5) == -1

    def test_nulls_sort_last(self):
        assert compare_values(None, 1) == 1
        assert compare_values(1, None) == -1
        assert compare_values(None, None) == 0

    def test_strings(self):
        assert compare_values("a", "b") == -1


class TestDateValueSemantics:
    def test_is_a_datetime_date_and_equals_one(self):
        # The one equality the datetime.date base adds: a Date equals
        # the plain datetime.date with the same value (and hashes alike).
        import datetime

        date = Date.parse("1995-03-15")
        assert isinstance(date, datetime.date)
        assert date == datetime.date(1995, 3, 15)
        assert hash(date) == hash(datetime.date(1995, 3, 15))
        assert date.to_date() == date
        assert type(date.to_date()) is datetime.date

    def test_never_equals_an_int(self):
        date = Date.parse("1994-01-01")
        assert date != date.ordinal
        assert date not in {date.ordinal}
        with pytest.raises(TypeError):
            date < 728294  # noqa: B015

    def test_difference_is_an_int(self):
        delta = Date.parse("1994-03-01") - Date.parse("1994-02-01")
        assert type(delta) is int and delta == 28

    def test_arithmetic_returns_dates(self):
        date = Date.parse("1994-01-31")
        for shifted in (date.add_days(1), date.add_months(1),
                        date.add_years(1), Date.from_ymd(1994, 1, 31),
                        Date.fromordinal(date.ordinal)):
            assert type(shifted) is Date

    def test_add_months_clamps_to_month_end(self):
        assert Date.parse("1994-03-31").add_months(-1) == Date.parse("1994-02-28")
        assert Date.parse("1995-08-31").add_months(13) == Date.parse("1996-09-30")
        assert Date.parse("1996-02-29").add_years(1) == Date.parse("1997-02-28")

    def test_repr_and_str_unchanged(self):
        date = Date.parse("1998-12-01")
        assert repr(date) == "Date('1998-12-01')"
        assert str(date) == "1998-12-01"
        assert repr([date]) == "[Date('1998-12-01')]"

    def test_ordinal_round_trips(self):
        date = Date.parse("1992-01-01")
        assert date.ordinal == 727198
        assert Date.fromordinal(date.ordinal) == date

    def test_survives_deepcopy_and_pickle(self):
        import copy
        import pickle

        row = (1, Date.parse("1996-02-29"), None)
        for clone in (copy.deepcopy(row),
                      pickle.loads(pickle.dumps(row, protocol=2)),
                      pickle.loads(pickle.dumps(row))):
            assert clone == row
            assert type(clone[1]) is Date
            assert clone[1].add_days(1) == Date.parse("1996-03-01")

    def test_sorts_and_groups_like_ordinals(self):
        days = [Date.parse("1994-01-01").add_days(i) for i in (5, -3, 0, 5, 2)]
        assert [d.ordinal for d in sorted(days)] == sorted(d.ordinal for d in days)
        assert len(set(days)) == 4
