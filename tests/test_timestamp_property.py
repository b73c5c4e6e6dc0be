"""The timestamp parsers against datetime.strptime, as properties:
parse_timestamp, which is strptime with TIMESTAMP_FORMAT, and the column
parser that decodes a log's zero-padded ASCII timestamps in one numpy pass
and leaves every other string to parse_timestamp.  Each log is parsed from
its text (csv.reader) and from its file (the byte tokenizer, which leaves a
quoted or non-ASCII stamp to csv.reader); both must agree.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

from __future__ import annotations

import csv
import io
import tempfile
from datetime import datetime
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from insiderank.ingest import (TIMESTAMP_FORMAT, RejectReport, parse_log_file, parse_timestamp,
                               read_log_csv)

from event_records import events_of


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


# Fixed cases: padded and unpadded, leap days that exist and that do not,
# seconds 60 and 61, each field just out of range, digits of other scripts,
# a doubled space and a sign.
FIXED = (
    "01/02/2010 08:31:00",
    "1/2/2010 8:31:00",  # not zero-padded
    "02/29/2012 23:59:59",  # leap day
    "02/29/2011 12:00:00",  # no such day
    "02/29/2000 00:00:00",
    "02/29/1900 00:00:00",
    "12/31/2010 23:59:60",  # second 60
    "12/31/2010 23:59:61",
    "13/01/2010 00:00:00",
    "00/10/2010 00:00:00",
    "01/00/2010 00:00:00",
    "04/31/2010 00:00:00",
    "01/01/0000 00:00:00",
    "01/01/0001 00:00:00",
    "12/31/9999 23:59:59",
    "01/01/2010 24:00:00",
    "01/01/2010 00:60:00",
    "01/02/\u0662\u0660\u0661\u0660 08:31:00",  # Arabic-Indic year
    "\uff10\uff11/02/2010 08:31:00",  # fullwidth month
    "01/02/2010  08:31:00",  # strptime reads any run of whitespace as one space
    "+1/02/2010 08:31:00",
    " 01/02/2010 08:31:00 ",  # the parser strips every field
    "01/02/2010 08:31:00x",
    "",
)


def _with_fixed_examples(test):
    for text in reversed(FIXED):
        test = example(text)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_timestamp_like(), st.text(max_size=24)))
@_with_fixed_examples
def test_timestamp_parser_agrees_with_strptime(text):
    expected = _strptime_outcome(text)
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text) == expected


def _parse_timestamp_outcome(text):
    try:
        return parse_timestamp(text)
    except ValueError:
        return ValueError


def _logon_log(stamps):
    """A logon log with one row per stamp, written as csv.writer quotes it,
    parsed from its text and from its file, which must agree."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["id", "date", "user", "pc", "activity"])
    writer.writerows([f"e{i}", stamp, "U1", "PC-1", "Logon"] for i, stamp in enumerate(stamps))
    rejects, read_rejects = RejectReport(), RejectReport()
    table = parse_log_file(io.StringIO(buffer.getvalue(), newline=""), "logon",
                           source="logon.csv", rejects=rejects)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "logon.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
        read = read_log_csv(path, "logon", rejects=read_rejects)
    assert events_of(read) == events_of(table) and read_rejects == rejects
    return table, rejects


def _assert_carries(table, row, expected):
    assert table.day[row] == expected.toordinal()
    assert table.weekday()[row] == expected.weekday()
    assert table.tod[row] == ((expected.hour * 60 + expected.minute) * 60
                              + expected.second) * 1_000_000
    assert events_of(table)[row].timestamp == expected


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_timestamp_like(), st.text(max_size=24)))
@_with_fixed_examples
def test_column_parser_accepts_what_parse_timestamp_accepts(text):
    table, rejects = _logon_log([text])
    expected = _parse_timestamp_outcome(text.strip())
    if expected is ValueError:
        assert len(table) == 0 and rejects.classes == ["bad timestamp"]
    else:
        assert len(table) == 1 and not rejects.rows
        _assert_carries(table, 0, expected)


def test_column_parser_decides_each_row_of_a_batch_alone():
    stamps = [stamp for stamp in FIXED for _ in range(3)]
    table, rejects = _logon_log(stamps)
    outcomes = [_parse_timestamp_outcome(stamp.strip()) for stamp in stamps]
    accepted = [outcome for outcome in outcomes if outcome is not ValueError]
    assert len(table) == len(accepted) and len(table) + len(rejects) == len(stamps)
    assert [line - 2 for _, line, _ in rejects.rows] == [
        i for i, outcome in enumerate(outcomes) if outcome is ValueError]
    for row, expected in enumerate(accepted):
        _assert_carries(table, row, expected)
