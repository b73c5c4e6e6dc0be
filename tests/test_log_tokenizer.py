"""read_log_csv against a row-by-row reference parser, on generated logs.

Each generated log mixes rows the byte tokenizer parses with rows only
``csv.reader`` can: quoted fields (newlines inside them too), LF, CRLF and
bare CR line ends, NUL and non-ASCII bytes, padded whitespace (Unicode
spaces and line ends too), blank lines, short rows and bad timestamps, sizes
and activities.  The file is read with tiny read and batch sizes, so rows,
CRLF pairs and the hand-over to ``csv.reader`` fall across reads and
batches.  The events, each reject's line, reason and class, and the order
of every string table must be the reference's
(:func:`event_records.reference_log`).

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from insiderank import ingest
from insiderank.ingest import FILE_KINDS, LOG_LAYOUTS, RejectReport, read_log_csv

from event_records import assert_payload_layout, events_of, reference_log

# Values of each column that the byte tokenizer can take: two valid ones
# first, then padded ones, ones longer than 64 bytes and ones that reject
# the row.
CLEAN = {
    "id": ["e1", "e2", " e3 ", "", "\x1ce4"],
    "date": ["01/04/2010 09:00:00", "12/31/2010 23:59:59", "1/4/2010 9:00:01",
             " 01/05/2010 10:00:00\t", "02/30/2010 09:00:00", "junk", ""],
    "user": ["U1", "U2", " U1", "U2\x0b", "", "U" * 70],
    "pc": ["PC-1", "PC-2 ", ""],
    "activity": ["Logon", "Logoff", "Connect", "disconnect ", " logon ", "LOGOFF", "Dance", ""],
    "to": ["a@x.com", "", "a@x.com;b@x.com", "u1@x.com", " b@x.com ; ;a@x.com", "c@x.com;",
           " ; ", "l" * 70 + "@x.com"],
    "from": ["u1@x.com", "c@x.com", " a@x.com", "", "b@x.com;c@x.com"],
    "size": ["10", "007", " 7 ", "-3", "1_0", "99999999999999999999", "x", ""],
    "filename": ["a.doc", "b.pdf", " b.pdf", "", "long-" * 15 + ".doc"],
    "content": ["", "hello"],
}
CLEAN["cc"] = CLEAN["bcc"] = CLEAN["to"]
CLEAN["attachments"] = CLEAN["size"]
# Values that only csv.reader can take: among them ids that end in a line
# end, a NUL that alone tells a user apart, padding that only str.strip()
# knows, and a digit int() and strptime() read that is not ASCII.
DIRTY = {
    "id": ["e,5", "é6", "e7\n", "\re8", "e9\u2003"],
    "date": ["01/04/2010 09:00:0\u0663", "\u00a001/04/2010 09:00:00"],
    "user": ["Ü3", "U1\x00", "\u00a0U2"],
    "pc": ["pc\x00", "PC-1\u2003"],
    "activity": ["Logon\u00a0", "Lögon"],
    "to": ["é@x.com", "a@x.com\u00a0;\u2003"],
    "from": ["\u2003b@x.com"],
    "size": ["\u0663", "1\u0663\u00a0"],
    "filename": ["c,d.doc", "d\ne.doc", "\u2003"],
    "content": ["multi\nline", 'say "hi"', "\r", "ß"],
}
DIRTY["attachments"] = DIRTY["size"]


def _cell(draw, value: str, dirt: int) -> str:
    """``value`` as a CSV field: quoted when it must be, and now and then
    when it need not."""
    if any(c in value for c in ',"\r\n') or (dirt and draw(st.integers(0, 4 * dirt)) == 0):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def log_texts(draw):
    """A log kind and the text of a log of that kind."""
    kind = draw(st.sampled_from(FILE_KINDS))
    columns = list(LOG_LAYOUTS[kind].columns)
    if draw(st.booleans()):
        columns = draw(st.permutations(columns + ["extra"]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]))
    # one value in `dirt` needs csv.reader (none when 0), so that batches of
    # clean lines come before the first line that needs it
    dirt = draw(st.sampled_from([0, 0, 40, 10]))
    lines = [",".join(name.upper() if name == "date" else name for name in columns)]
    for _ in range(draw(st.integers(0, 20))):
        shape = draw(st.integers(0, 15))
        if shape == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        values = []
        for name in columns:
            choices = CLEAN.get(name, ["x", ""])
            if name in DIRTY and dirt and draw(st.integers(0, dirt)) == 0:
                choices = DIRTY[name]
            elif shape > 4:  # a valid value
                choices = choices[:2]
            values.append(draw(st.sampled_from(choices)))
        if shape == 1:
            values = values[:draw(st.integers(1, len(values) - 1))]
        lines.append(",".join(_cell(draw, value, dirt) for value in values))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return kind, text[:-1] if draw(st.integers(0, 4)) == 0 else text


@settings(max_examples=400, deadline=None)
@given(log_texts(), st.integers(1, 64), st.integers(1, 5))
def test_read_log_csv_agrees_with_the_reference(log, chunk_bytes, batch_rows):
    kind, text = log
    expected = reference_log(text, kind, batch_rows)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(ingest, "_BATCH_ROWS", batch_rows):
        path = Path(tmp) / LOG_LAYOUTS[kind].file_name
        path.write_bytes(text.encode())
        rejects = RejectReport()
        table = read_log_csv(path, kind, rejects=rejects)
    assert events_of(table) == expected.events
    assert rejects.rows == [(path.name, line, reason) for line, reason, _ in expected.rejected]
    assert rejects.classes == [cls for _, _, cls in expected.rejected]
    assert {name: getattr(table, name) for name in expected.strings} == expected.strings
    assert_payload_layout(table)
