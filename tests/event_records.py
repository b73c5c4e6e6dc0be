"""One record per event, for tests that build or read events one at a time.

The library holds events only as columnar :class:`EventTable`s.  Tests that
state their input event by event, or check a parse field by field, use the
records here: :func:`table_of` builds the table of a list of
:class:`LogEvent`s, and :func:`events_of` reads a table back as LogEvents.
:func:`assert_payload_layout` checks that each payload column of a table
holds one entry per row of its kind.  :func:`reference_log` parses the text
of a log one row at a time with ``csv`` and ``strptime``, as the oracle of
the columnar parsers.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from datetime import date, datetime, time
from typing import Iterable

import numpy as np

from insiderank.ingest import (EMAIL, EVENT_KINDS, FILE_COPY, LOG_LAYOUTS, TIMESTAMP_FORMAT,
                               EventTable, _int_array, _joined, _microseconds)

__all__ = ["EmailPayload", "FilePayload", "LogEvent", "ReferenceLog", "assert_payload_layout",
           "events_of", "reference_log", "table_of"]


@dataclass(frozen=True)
class EmailPayload:
    sender: str
    to: tuple[str, ...]
    cc: tuple[str, ...]
    bcc: tuple[str, ...]
    size: int
    attachments: int

    def recipients(self) -> tuple[str, ...]:
        return self.to + self.cc + self.bcc


@dataclass(frozen=True)
class FilePayload:
    filename: str


@dataclass(frozen=True)
class LogEvent:
    event_id: str
    timestamp: datetime
    user: str
    pc: str
    kind: str
    payload: EmailPayload | FilePayload | None = None


def table_of(events: Iterable[LogEvent]) -> EventTable:
    """The table of ``events``, in their order; strings are coded in order
    of first appearance."""
    events = list(events)
    unknown = sorted({e.kind for e in events} - set(EVENT_KINDS))
    if unknown:
        raise ValueError(f"unknown event kind(s) {unknown}; expected one of {EVENT_KINDS}")
    users: dict[str, int] = {}
    pcs: dict[str, int] = {}
    addresses: dict[str, int] = {}
    filenames: dict[str, int] = {}

    def code(strings: dict[str, int], value: str) -> int:
        return strings.setdefault(value, len(strings))

    sender, counts, recipients, filename = [], [], [], []
    size, attachments = [], []
    for e in events:
        if e.kind == "email":
            p = e.payload
            sender.append(code(addresses, p.sender))
            counts.extend((len(p.to), len(p.cc), len(p.bcc)))
            recipients.extend(code(addresses, a) for a in p.recipients())
            size.append(p.size)
            attachments.append(p.attachments)
        elif e.kind == "file_copy":
            filename.append(code(filenames, e.payload.filename))
    return EventTable(
        *_joined([e.event_id for e in events]),
        np.array([code(users, e.user) for e in events], np.int32), list(users),
        np.array([e.timestamp.toordinal() for e in events], np.int32),
        np.array([_microseconds(e.timestamp) for e in events], np.int64),
        np.array([EVENT_KINDS.index(e.kind) for e in events], np.int8),
        np.array([code(pcs, e.pc) for e in events], np.int32), list(pcs),
        np.array(sender, np.int32), np.cumsum([0, *counts], dtype=np.int64),
        np.array(recipients, np.int32), list(addresses), _int_array(size),
        _int_array(attachments), np.array(filename, np.int32), list(filenames),
    )


def events_of(table: EventTable) -> list[LogEvent]:
    """The events of ``table``, in its order."""
    events = []
    emails = files = 0  # the payload entries read so far
    for i in range(len(table)):
        seconds, micro = divmod(int(table.tod[i]), 1_000_000)
        minutes, second = divmod(seconds, 60)
        timestamp = datetime.combine(date.fromordinal(int(table.day[i])),
                                     time(minutes // 60, minutes % 60, second, micro))
        kind = EVENT_KINDS[table.kind[i]]
        payload: EmailPayload | FilePayload | None = None
        if kind == "email":
            j = emails
            ends = table.recipient_ptr[3 * j:3 * j + 4].tolist()
            to, cc, bcc = (tuple(table.addresses[c] for c in table.recipients[a:b].tolist())
                           for a, b in zip(ends, ends[1:]))
            payload = EmailPayload(table.addresses[table.sender[j]], to, cc, bcc,
                                   int(table.size[j]), int(table.attachments[j]))
            emails += 1
        elif kind == "file_copy":
            payload = FilePayload(table.filenames[table.filename[files]])
            files += 1
        events.append(LogEvent(table.ids[table.id_ptr[i]:table.id_ptr[i + 1]], timestamp,
                               table.users[table.user[i]], table.pcs[table.pc[i]], kind,
                               payload))
    return events


def assert_payload_layout(table: EventTable) -> None:
    """The email payload has one entry per email row and ``filename`` one
    per file-copy row."""
    emails = int((table.kind == EMAIL).sum())
    assert len(table.sender) == len(table.size) == len(table.attachments) == emails
    assert len(table.recipient_ptr) == 3 * emails + 1
    assert table.recipient_ptr[-1] == len(table.recipients)
    assert len(table.filename) == int((table.kind == FILE_COPY).sum())


@dataclass
class ReferenceLog:
    """What parsing one log must give: the events of its valid rows in
    order, (line, reason, class) for each other non-empty row, and each
    string table of the event table in its order."""

    events: list[LogEvent]
    rejected: list[tuple[int, str, str]]
    strings: dict[str, list[str]]


def reference_log(text: str, kind: str, batch_rows: int) -> ReferenceLog:
    """Parse the text of a ``kind`` log row by row: ``csv.reader`` over its
    lines (ended by ``\\n``, ``\\r\\n`` or ``\\r``), stripped fields and
    ``datetime.strptime``.

    Users, machines and file names are numbered in order of first
    appearance among the valid rows.  Addresses are too, a batch of
    ``batch_rows`` rows (the header is row 0) at a time, with the
    recipients of a batch, email by email, before its senders.  Text that is
    not CSV raises ``csv.Error``, and a header without the log's columns
    ``KeyError``.
    """
    layout = LOG_LAYOUTS[kind]
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, row) for row in reader]
    names = {name.strip().lower(): i for i, name in enumerate(rows[0][1])}
    columns = [names[name] for name in layout.required]
    width = max(columns) + 1
    activities = {activity.lower(): k for k, activity in layout.activities.items()}
    valid: list[tuple[int, LogEvent]] = []  # with each event's row number
    rejected = []
    for number, (line, row) in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) < width:
            rejected.append((line, f"expected at least {width} fields, got {len(row)}",
                             "short row"))
            continue
        event_id, stamp, user, pc, *rest = (row[i].strip() for i in columns)
        try:
            timestamp = datetime.strptime(stamp, TIMESTAMP_FORMAT)
        except ValueError:
            rejected.append((line, f"bad timestamp {stamp!r}", "bad timestamp"))
            continue
        if not user:
            rejected.append((line, "empty user", "empty user"))
            continue
        payload: EmailPayload | FilePayload | None = None
        if activities:
            (activity,) = rest
            if activity.lower() not in activities:
                rejected.append((line, f"unknown activity {activity!r}", "unknown activity"))
                continue
            event_kind = activities[activity.lower()]
        elif kind == "email":
            to, cc, bcc, sender, size, attachments = rest
            try:
                size, attachments = int(size), int(attachments)
            except ValueError:
                rejected.append((line, "non-integer size or attachments", "non-integer size"))
                continue
            boxes = [tuple(a for a in map(str.strip, box.split(";")) if a)
                     for box in (to, cc, bcc)]
            payload, event_kind = EmailPayload(sender, *boxes, size, attachments), "email"
        else:
            (filename,) = rest
            if not filename:
                rejected.append((line, "empty filename", "empty filename"))
                continue
            payload, event_kind = FilePayload(filename), "file_copy"
        valid.append((number, LogEvent(event_id, timestamp, user, pc, event_kind, payload)))

    events = [event for _, event in valid]
    emails = [(number, event.payload) for number, event in valid if event.kind == "email"]
    addresses = []
    for _, batch in itertools.groupby(emails, lambda pair: pair[0] // batch_rows):
        batch = [payload for _, payload in batch]
        addresses += [a for payload in batch for a in payload.recipients()]
        addresses += [payload.sender for payload in batch]
    return ReferenceLog(events, rejected, {
        "users": list(dict.fromkeys(e.user for e in events)),
        "pcs": list(dict.fromkeys(e.pc for e in events)),
        "addresses": list(dict.fromkeys(addresses)),
        "filenames": list(dict.fromkeys(e.payload.filename for e in events
                                        if e.kind == "file_copy")),
    })
