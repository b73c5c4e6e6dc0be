"""The fixed-width timestamp parser against datetime.strptime, as a property.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

from __future__ import annotations

from datetime import datetime

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from insiderank.ingest import TIMESTAMP_FORMAT, parse_timestamp


# Digits strptime's \\d also matches: Arabic-Indic, Devanagari, fullwidth.
_OTHER_DIGITS = "\u0660\u0663\u0669\u0966\u0967\uff10\uff11\uff12"


@st.composite
def _timestamp_like(draw):
    """Strings near MM/DD/YYYY HH:MM:SS: fields in and just out of range,
    mostly zero-padded, now and then an odd separator or a digit from
    another script."""
    def number(hi, width):
        text = str(draw(st.integers(0, hi)))
        return text.zfill(width) if draw(st.integers(0, 5)) else text

    fields = [number(13, 2), number(32, 2), number(9999, 4),
              number(24, 2), number(60, 2), number(61, 2)]
    seps = ["/", "/", " ", ":", ":"]
    if draw(st.integers(0, 3)) == 0:
        seps[draw(st.integers(0, 4))] = draw(st.sampled_from(["-", ".", "", "  ", "\t", "T"]))
    text = fields[0] + "".join(sep + value for sep, value in zip(seps, fields[1:]))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        if text[at].isdigit():
            text = text[:at] + draw(st.sampled_from(_OTHER_DIGITS)) + text[at + 1:]
    return text


def _strptime_outcome(text):
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError:
        return ValueError


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_timestamp_like(), st.text(max_size=24)))
@example("01/02/2010 08:31:00")
@example("1/2/2010 8:31:00")  # not zero-padded
@example("02/29/2012 23:59:59")  # leap day
@example("02/29/2011 12:00:00")  # no such day
@example("02/29/2000 00:00:00")
@example("02/29/1900 00:00:00")
@example("12/31/2010 23:59:60")  # second 60
@example("12/31/2010 23:59:61")
@example("13/01/2010 00:00:00")
@example("00/10/2010 00:00:00")
@example("01/00/2010 00:00:00")
@example("04/31/2010 00:00:00")
@example("01/01/0000 00:00:00")
@example("01/01/2010 24:00:00")
@example("01/01/2010 00:60:00")
@example("01/02/\u0662\u0660\u0661\u0660 08:31:00")  # Arabic-Indic year
@example("\uff10\uff11/02/2010 08:31:00")  # fullwidth month
@example("01/02/2010  08:31:00")  # strptime reads any run of whitespace as one space
@example("+1/02/2010 08:31:00")
def test_timestamp_parser_agrees_with_strptime(text):
    expected = _strptime_outcome(text)
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text) == expected
