"""One record per event, for tests that build or read events one at a time.

The library holds events only as columnar :class:`EventTable`s.  Tests that
state their input event by event, or check a parse field by field, use the
records here: :func:`table_of` builds the table of a list of
:class:`LogEvent`s, and :func:`events_of` reads a table back as LogEvents.
:func:`assert_payload_layout` checks that each payload column of a table
holds one entry per row of its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time
from typing import Iterable

import numpy as np

from insiderank.ingest import (EMAIL, EVENT_KINDS, FILE_COPY, EventTable, _int_array, _joined,
                               _microseconds)

__all__ = ["EmailPayload", "FilePayload", "LogEvent", "assert_payload_layout", "events_of",
           "table_of"]


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
