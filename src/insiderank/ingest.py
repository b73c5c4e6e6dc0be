"""Activity-log and directory ingestion.

Reads the CSV layout used by the CMU CERT insider-threat releases (r4.2
column order).  ``LOG_LAYOUTS`` is the one description of the four activity
logs, keyed by log kind (logon, device, email, file): each file's name, its
columns in written order, and for logon and device the ``activity`` value of
each event kind.  The parser, :func:`write_log_file`, the synthetic corpus
generator and the CLI all read it.  The free-text ``content`` column of
email.csv and file.csv is never parsed.

Events exist only as :class:`EventTable` columns: one numpy column per
field, with event ids joined into one string, and users, machines, email
addresses and file names interned into code tables.  The parser reads a
batch of CSV rows at a time and turns each batch into columns; zero-padded
timestamps are decoded for the whole batch in one numpy pass, and any other
string is left to :func:`parse_timestamp`.  :func:`write_log_file` writes a
table back, formatting each distinct day once.

Headers are matched by name, case-insensitively; column order does not
matter and extra columns are ignored.  Timestamps are ``MM/DD/YYYY HH:MM:SS``.
Malformed rows never abort a parse: they are recorded in a
:class:`RejectReport` with their file, line number and reason.  Text that is
not valid CSV at all, such as a field longer than ``csv.field_size_limit()``,
raises ValueError naming the file and line.

LDAP-style directory snapshots (one CSV per month) are merged into an
:class:`OrgDirectory`; later snapshots win for users present in several.

Every CSV file but the activity logs, that is the directory snapshots and
the artifacts of every stage, is written by :func:`write_table` and read by
:func:`read_table`: a header row, floats as their ``repr``, blank lines
skipped on reading, and every reading error named by file and line.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass, field
from datetime import date, datetime, time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "EVENT_KINDS",
    "FILE_KINDS",
    "LOG_LAYOUTS",
    "EventTable",
    "LogLayout",
    "OrgDirectory",
    "RejectReport",
    "SchemaError",
    "UserRecord",
    "load_directory_csv",
    "load_ldap_snapshots",
    "parse_log_file",
    "parse_timestamp",
    "read_log_csv",
    "read_table",
    "write_directory_csv",
    "write_log_file",
    "write_table",
]

TIMESTAMP_FORMAT = "%m/%d/%Y %H:%M:%S"

# Event kinds; EventTable.kind holds their positions.
EVENT_KINDS = (
    "logon",
    "logoff",
    "device_connect",
    "device_disconnect",
    "email",
    "file_copy",
)
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
EMAIL, FILE_COPY = _KIND_CODE["email"], _KIND_CODE["file_copy"]

# CSV rows turned into columns, or written from them, at a time: only one
# batch of rows, with its free-text content fields, is held at once.
_BATCH_ROWS = 1 << 10


@dataclass(frozen=True)
class LogLayout:
    """One CERT activity log: file name, columns in written order, and the
    ``activity`` value written for each event kind (logon and device only)."""

    file_name: str
    columns: tuple[str, ...]
    activities: Mapping[str, str] = field(default_factory=dict)

    @property
    def required(self) -> tuple[str, ...]:
        """The columns the parser reads, in written order."""
        return tuple(c for c in self.columns if c != "content")


_ENTRY = ("id", "date", "user", "pc")  # the columns every log starts with
# Log kinds accepted by parse_log_file, in the order the CLI reads them.
LOG_LAYOUTS: Mapping[str, LogLayout] = {
    "logon": LogLayout("logon.csv", (*_ENTRY, "activity"),
                       {"logon": "Logon", "logoff": "Logoff"}),
    "device": LogLayout("device.csv", (*_ENTRY, "activity"),
                        {"device_connect": "Connect", "device_disconnect": "Disconnect"}),
    "email": LogLayout("email.csv", (*_ENTRY, "to", "cc", "bcc", "from", "size",
                                     "attachments", "content")),
    "file": LogLayout("file.csv", (*_ENTRY, "filename", "content")),
}
FILE_KINDS = tuple(LOG_LAYOUTS)


class SchemaError(ValueError):
    """Raised when a CSV header does not provide the expected columns."""


def _microseconds(t: datetime | time) -> int:
    """Microseconds since midnight."""
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond


def _intern(values: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """The code of each value in ``index``, which gains the values it lacks
    (numbered in order of first appearance)."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, values), np.int32, len(values))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an array of non-negative integers, ascending:
    ``np.unique(keys)`` without its masked-array test, which imports
    ``numpy.ma`` (with numpy 2.4, about 2 MB and 15 ms in every process
    that calls it)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _recode(codes: np.ndarray, strings: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """``codes`` into ``strings`` as codes into ``index``."""
    return np.array([index.setdefault(s, len(index)) for s in strings], np.int32)[codes]


def _joined(strings: Sequence[str]) -> tuple[str, np.ndarray]:
    """``strings`` as one string, and the offsets where each starts and the
    last ends (CSR layout)."""
    ptr = np.zeros(len(strings) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)), out=ptr[1:])
    return "".join(strings), ptr


def _chained(ptrs: Iterable[np.ndarray]) -> np.ndarray:
    """CSR offsets of several arrays laid end to end, as one offsets array."""
    out, total = [np.zeros(1, np.int64)], 0
    for ptr in ptrs:
        out.append(ptr[1:] + total)
        total += int(ptr[-1])
    return np.concatenate(out)


@dataclass(eq=False)
class EventTable:
    """Events of one or more activity logs, one numpy column per field.

    The event id of row ``i`` is ``ids[id_ptr[i]:id_ptr[i+1]]``: all ids are
    one joined string.  Other strings are interned: ``user``, ``pc``,
    ``sender``, ``recipients`` and ``filename`` hold codes into ``users``,
    ``pcs``, ``addresses`` and ``filenames``.  A timestamp is split into
    ``day``, its ``date.toordinal()``, and ``tod``, microseconds since
    midnight; ``kind`` holds positions in EVENT_KINDS.

    The payload columns hold entries only for the rows of their kind, in row
    order.  ``sender``, ``size`` and ``attachments`` have one entry per
    email row; the to, cc and bcc addresses of the ``j``-th email are
    ``recipients[recipient_ptr[3*j]:recipient_ptr[3*j+1]]`` and the two
    slices after it (CSR layout, ``3 * emails + 1`` offsets).  ``filename``
    has one entry per file-copy row.  A table without rows of a kind has
    empty columns for its payload.
    """

    ids: str
    id_ptr: np.ndarray
    user: np.ndarray
    users: list[str]
    day: np.ndarray
    tod: np.ndarray
    kind: np.ndarray
    pc: np.ndarray
    pcs: list[str]
    sender: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    recipient_ptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    recipients: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    addresses: list[str] = field(default_factory=list)
    size: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    attachments: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    filename: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    filenames: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.id_ptr) - 1

    def weekday(self) -> np.ndarray:
        """Each row's ``datetime.weekday()``: Monday is 0."""
        return (self.day + 6) % 7

    @classmethod
    def empty(cls) -> EventTable:
        """The table of no events."""
        codes = np.empty(0, np.int32)
        return cls("", np.zeros(1, np.int64), codes, [], codes, np.empty(0, np.int64),
                   np.empty(0, np.int8), codes, [])

    @classmethod
    def concat(cls, tables: Sequence[EventTable]) -> EventTable:
        """One table holding the rows of ``tables`` in order."""
        if len(tables) <= 1:
            return tables[0] if tables else cls.empty()
        index: dict[str, dict[str, int]] = {"users": {}, "pcs": {}, "addresses": {},
                                            "filenames": {}}

        def joined(column: str, strings: str | None = None) -> np.ndarray:
            parts = [getattr(t, column) for t in tables]
            if strings is not None:
                parts = [_recode(p, getattr(t, strings), index[strings])
                         for p, t in zip(parts, tables)]
            return np.concatenate(parts)

        return cls(
            "".join(t.ids for t in tables), _chained(t.id_ptr for t in tables),
            joined("user", "users"), list(index["users"]),
            joined("day"), joined("tod"), joined("kind"), joined("pc", "pcs"),
            list(index["pcs"]), joined("sender", "addresses"),
            _chained(t.recipient_ptr for t in tables), joined("recipients", "addresses"),
            list(index["addresses"]), joined("size"), joined("attachments"),
            joined("filename", "filenames"), list(index["filenames"]),
        )


@dataclass
class RejectReport:
    """Rows that failed to parse, with enough context to find them again.

    Each row also carries a short class label naming the kind of failure
    (say ``"bad timestamp"``); manifests count rejects by class.
    """

    rows: list[tuple[str, int, str]] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)

    def add(self, source: str, line: int, reason: str, cls: str) -> None:
        self.rows.append((source, line, reason))
        self.classes.append(cls)

    def __len__(self) -> int:
        return len(self.rows)

    def from_source(self, source: str) -> RejectReport:
        """The rejects of one source, in their order here."""
        keep = [i for i, row in enumerate(self.rows) if row[0] == source]
        return RejectReport([self.rows[i] for i in keep], [self.classes[i] for i in keep])

    def counts_by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cls in self.classes:
            counts[cls] = counts.get(cls, 0) + 1
        return counts

    def write_csv(self, path: str | Path) -> None:
        write_table(path, ("file", "line", "reason"), self.rows)


def _layout(kind: str) -> LogLayout:
    if kind not in LOG_LAYOUTS:
        raise ValueError(f"unknown log kind {kind!r}; expected one of {list(LOG_LAYOUTS)}")
    return LOG_LAYOUTS[kind]


def _header_positions(raw_header: Sequence[str], kind: str) -> list[int]:
    """The position in the file header of each required column, in order."""
    positions = {name.strip().lower(): i for i, name in enumerate(raw_header)}
    required = LOG_LAYOUTS[kind].required
    missing = [name for name in required if name not in positions]
    if missing:
        raise SchemaError(
            f"{kind} header is missing column(s) {missing}; expected {list(required)}, "
            f"got {list(raw_header)}"
        )
    return [positions[name] for name in required]


def _csv_rows(lines: Iterable[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader`` over ``lines``, yielding (line number, row).

    Text that is not valid CSV, such as a field longer than
    ``csv.field_size_limit()``, raises ValueError naming ``source`` and the line.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{source}:{reader.line_num}: {exc}") from None


def write_table(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV artifact: the header row, then ``rows``.  ``csv`` writes
    each cell with ``str``, which is ``repr`` for a Python float, so floats
    go in as Python floats (``ndarray.tolist()`` gives those)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str | Path, header: Sequence[str] | Callable[[list[str]], object],
               convert: Callable[[list[str]], object]) -> tuple[list[str], list]:
    """The header row of a CSV artifact, and ``convert(row)`` for each later
    row that is not blank.

    ``header`` is the exact header the file must start with, or a function
    that raises ValueError when the header it is given (``[]`` for an empty
    file) is wrong.  A refused header raises SchemaError; a row whose width
    is not the header's, or that ``convert`` refuses with ValueError, raises
    ValueError, and so does text that is not valid CSV.  Each message reads
    ``<path>:<line>: <reason>``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        error: type[ValueError] = SchemaError  # until the header is accepted
        try:
            names = next(reader, [])
            if callable(header):
                header(names)
            elif names != list(header):
                raise ValueError(f"expected the header {','.join(header)}")
            error, rows = ValueError, []
            for row in reader:
                if len(row) != len(names):
                    if not row:
                        continue
                    raise ValueError(f"expected {len(names)} fields, got {len(row)}")
                rows.append(convert(row))
        except (csv.Error, ValueError) as exc:
            raise error(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
    return names, rows


def _csv_batches(lines: Iterable[str], source: str) -> Iterator[list[tuple[int, list[str]]]]:
    """The pairs of :func:`_csv_rows` in lists of up to _BATCH_ROWS."""
    rows = _csv_rows(lines, source)
    while batch := list(itertools.islice(rows, _BATCH_ROWS)):
        yield batch


def parse_timestamp(text: str) -> datetime:
    """``datetime.strptime(text, TIMESTAMP_FORMAT)``: ValueError for a string
    that is not a timestamp."""
    return datetime.strptime(text, TIMESTAMP_FORMAT)


# Character positions of MM/DD/YYYY HH:MM:SS: the digits, and the separators.
_DIGIT_AT = [0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATOR_AT = [2, 5, 10, 13, 16]
_SEPARATORS = np.array([ord(c) for c in "// ::"], np.uint32)
# Days in a common year before each month; the last entry is the whole year.
_DAYS_BEFORE = np.cumsum([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _timestamp_columns(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Day ordinal, microseconds since midnight, and whether the stamp is a
    valid timestamp, for each string in ``stamps``.

    Zero-padded ASCII stamps are decoded and range-checked together;
    :func:`parse_timestamp` decides every string that pass does not accept,
    so the valid strings and their values are exactly parse_timestamp's.
    """
    n = len(stamps)
    # strings longer than 19 are cut here, but their length rules them out
    chars = np.array(stamps, dtype="U19").view(np.uint32).reshape(n, 19)
    d = chars.T[_DIGIT_AT].astype(np.int64) - ord("0")  # one row per digit
    month, dom, hour, minute, second = (d[i] * 10 + d[i + 1] for i in (0, 2, 8, 10, 12))
    year = ((d[4] * 10 + d[5]) * 10 + d[6]) * 10 + d[7]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12)
    ok = ((np.fromiter(map(len, stamps), np.int64, n) == 19)
          & ((d >= 0) & (d <= 9)).all(axis=0)
          & (chars[:, _SEPARATOR_AT] == _SEPARATORS).all(axis=1)
          & (month == m) & (year >= 1) & (dom >= 1)
          & (dom <= _DAYS_BEFORE[m] - _DAYS_BEFORE[m - 1] + (leap & (m == 2)))
          & (hour < 24) & (minute < 60) & (second < 60))
    # date.toordinal(): days before the year, before the month, and the day
    y = year - 1
    day = np.where(ok, y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE[m - 1]
                   + (leap & (m > 2)) + dom, 0).astype(np.int32)
    tod = np.where(ok, ((hour * 60 + minute) * 60 + second) * 1_000_000, 0)
    for i in np.flatnonzero(~ok).tolist():
        try:
            parsed = parse_timestamp(stamps[i])
        except ValueError:
            continue
        ok[i] = True
        day[i] = parsed.toordinal()
        tod[i] = _microseconds(parsed)
    return day, tod, ok


def _int_array(values: list[int]) -> np.ndarray:
    """int64, or Python ints in an object array when one does not fit."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def _integers(values: Sequence[str]) -> tuple[list[int], np.ndarray]:
    """``int(v)`` for each value (0 where int() refuses it), and where it accepts."""
    try:
        return list(map(int, values)), np.ones(len(values), bool)
    except ValueError:
        pass
    parsed, ok = [], []
    for value in values:
        try:
            parsed.append(int(value))
            ok.append(True)
        except ValueError:
            parsed.append(0)
            ok.append(False)
    return parsed, np.array(ok, bool)


def _address_lists(fields: Sequence[str], index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``;``-separated addresses of each field, in CSR form: how many
    each field has, and their codes in ``index`` (which gains new ones).
    Each distinct field is split once."""
    distinct = {f: i for i, f in enumerate(dict.fromkeys(fields))}
    lists = [[index.setdefault(a, len(index)) for a in map(str.strip, f.split(";")) if a]
             for f in distinct]
    lengths = np.array([len(codes) for codes in lists], np.int64)
    codes = np.fromiter(itertools.chain.from_iterable(lists), np.int32, int(lengths.sum()))
    which = np.fromiter(map(distinct.__getitem__, fields), np.int64, len(fields))
    counts = lengths[which]
    ends = np.cumsum(counts)
    offsets = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    return counts, codes[np.repeat((np.cumsum(lengths) - lengths)[which], counts) + offsets]


class _BatchParser:
    """Turns batches of one log's CSV rows into event tables."""

    def __init__(self, kind: str, positions: list[int]) -> None:
        self.kind = kind
        self.kind_of = {activity.lower(): _KIND_CODE[k]
                        for k, activity in LOG_LAYOUTS[kind].activities.items()}
        self.fields = [operator.itemgetter(p) for p in positions]
        self.width = max(positions) + 1

    def parse(self, batch: list[tuple[int, list[str]]]
              ) -> tuple[EventTable | None, list[tuple[int, str, str]]]:
        """The table of the rows of a batch of (line number, row) pairs
        that hold a valid event, and (line, reason, class) for each other
        non-empty row, in line order."""
        width = self.width
        rejected = []
        lines, rows = zip(*batch) if batch else ((), ())
        if rows and min(map(len, rows)) < width:
            rejected = [(line, f"expected at least {width} fields, got {len(row)}", "short row")
                        for line, row in batch if 0 < len(row) < width]
            kept = [(line, row) for line, row in batch if len(row) >= width]
            lines, rows = zip(*kept) if kept else ((), ())
        if not rows:
            return None, rejected
        # the required columns, in LOG_LAYOUTS order
        event_id, stamp, user, pc, *rest = (list(map(str.strip, map(get, rows)))
                                            for get in self.fields)
        day, tod, timed = _timestamp_columns(stamp)
        named = np.fromiter(map(bool, user), bool, len(user))
        rest, valid, why = self.check(rest)
        keep = timed & named & valid
        for i in np.flatnonzero(~keep).tolist():
            if not timed[i]:
                rejected.append((lines[i], f"bad timestamp {stamp[i]!r}", "bad timestamp"))
            elif not named[i]:
                rejected.append((lines[i], "empty user", "empty user"))
            else:
                rejected.append((lines[i], *why(i)))
        rejected.sort()
        if not keep.all():
            kept = np.flatnonzero(keep).tolist()
            if not kept:
                return None, rejected
            event_id, user, pc, *rest = ([column[i] for i in kept]
                                         for column in (event_id, user, pc, *rest))
            day, tod = day[keep], tod[keep]
        users: dict[str, int] = {}
        pcs: dict[str, int] = {}
        table = EventTable(*_joined(event_id), _intern(user, users), list(users), day, tod,
                           pc=_intern(pc, pcs), pcs=list(pcs), **self.payload(rest))
        return table, rejected

    def check(self, rest: list[list[str]]):
        """The columns after id, date, user and pc with activities as kind
        codes and sizes as integers; which rows they allow; and the reject
        reason and class of a row they refuse."""
        if self.kind_of:
            (activity,) = rest
            codes = {a: self.kind_of.get(a.lower(), -1) for a in dict.fromkeys(activity)}
            kind = list(map(codes.__getitem__, activity))
            return ([kind], np.array(kind) >= 0,
                    lambda i: (f"unknown activity {activity[i]!r}", "unknown activity"))
        if self.kind == "email":
            *addresses, size, attachments = rest
            (size, sized), (attachments, counted) = _integers(size), _integers(attachments)
            return ([*addresses, size, attachments], sized & counted,
                    lambda i: ("non-integer size or attachments", "non-integer size"))
        (filename,) = rest
        return (rest, np.fromiter(map(bool, filename), bool, len(filename)),
                lambda i: ("empty filename", "empty filename"))

    def payload(self, rest: list[list]) -> dict[str, object]:
        """The kind and payload columns of checked, accepted rows, as
        EventTable fields."""
        if self.kind_of:
            return {"kind": np.array(rest[0], np.int8)}
        n = len(rest[0])
        if self.kind == "email":
            to, cc, bcc, sender, size, attachments = rest
            fields: list[str] = [""] * (3 * n)
            fields[0::3], fields[1::3], fields[2::3] = to, cc, bcc
            addresses: dict[str, int] = {}
            counts, recipients = _address_lists(fields, addresses)
            return {"kind": np.full(n, EMAIL, np.int8), "sender": _intern(sender, addresses),
                    "recipient_ptr": np.concatenate(([0], np.cumsum(counts))),
                    "recipients": recipients, "addresses": list(addresses),
                    "size": _int_array(size), "attachments": _int_array(attachments)}
        filenames: dict[str, int] = {}
        return {"kind": np.full(n, FILE_COPY, np.int8),
                "filename": _intern(rest[0], filenames), "filenames": list(filenames)}


def parse_log_file(
    lines: Iterable[str],
    kind: str,
    *,
    source: str = "<stream>",
    rejects: RejectReport | None = None,
) -> EventTable:
    """Parse one activity CSV into an :class:`EventTable`.

    ``kind`` is one of ``logon``, ``device``, ``email``, ``file``.  Rows that
    cannot be parsed are appended to ``rejects`` and skipped; a header that
    does not carry the expected columns raises :class:`SchemaError`.
    """
    _layout(kind)
    if rejects is None:
        rejects = RejectReport()
    batches = _csv_batches(lines, source)
    first = next(batches, None)
    if first is None:
        raise SchemaError(f"{source}: empty file, expected a {kind} header")
    (_, raw_header), *first = first
    parser = _BatchParser(kind, _header_positions(raw_header, kind))
    tables = []
    for batch in itertools.chain([first], batches):
        table, rejected = parser.parse(batch)
        for line, reason, cls in rejected:
            rejects.add(source, line, reason, cls)
        if table is not None:
            tables.append(table)
    return EventTable.concat(tables)


def read_log_csv(
    path: str | Path,
    kind: str,
    *,
    rejects: RejectReport | None = None,
) -> EventTable:
    path = Path(path)
    with open(path, newline="") as fh:
        return parse_log_file(fh, kind, source=path.name, rejects=rejects)


def _decode(codes: np.ndarray, strings: Sequence[str]) -> list[str]:
    """The string of each code."""
    return list(map(strings.__getitem__, codes.tolist()))


def _csv_fields(table: EventTable, kind: str, start: int, stop: int) -> Iterator[tuple]:
    """The CSV fields of rows ``start`` to ``stop - 1`` (or the last row) in
    the layout of ``kind``."""
    layout = LOG_LAYOUTS[kind]
    ends = table.id_ptr[start:stop + 1].tolist()
    ids = [table.ids[a:b] for a, b in zip(ends, ends[1:])]
    days = table.day[start:stop].tolist()
    # TIMESTAMP_FORMAT: the date of each distinct day, then the time of day;
    # not strftime, which can write year 999 as "999" where the parser needs
    # four digits
    dates: dict[int, str] = {}
    for day in set(days):
        d = date.fromordinal(day)
        dates[day] = f"{d.month:02d}/{d.day:02d}/{d.year:04d}"
    stamps = [f"{dates[day]} {t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}"
              for day, t in zip(days, (table.tod[start:stop] // 1_000_000).tolist())]
    # the fields after id, date, user and pc, in LOG_LAYOUTS order
    if layout.activities:
        activity = [layout.activities.get(k, "") for k in EVENT_KINDS]
        rest = [_decode(table.kind[start:stop], activity)]
    elif kind == "email":
        ends = table.recipient_ptr[3 * start:3 * stop + 1].tolist()
        addresses = _decode(table.recipients[ends[0]:ends[-1]], table.addresses)
        boxes = [";".join(addresses[a - ends[0]:b - ends[0]]) for a, b in zip(ends, ends[1:])]
        rest = [boxes[0::3], boxes[1::3], boxes[2::3],
                _decode(table.sender[start:stop], table.addresses),
                table.size[start:stop].tolist(), table.attachments[start:stop].tolist(),
                itertools.repeat("")]
    else:  # file
        rest = [_decode(table.filename[start:stop], table.filenames), itertools.repeat("")]
    return zip(ids, stamps, _decode(table.user[start:stop], table.users),
               _decode(table.pc[start:stop], table.pcs), *rest)


def write_log_file(path: str | Path, table: EventTable, kind: str) -> None:
    """Serialize a table to the canonical CSV layout for ``kind``.

    Inverse of :func:`parse_log_file` for valid rows; timestamps are written
    to the second, and the free-text content column (never parsed) is
    written empty.  A row whose event kind the log cannot hold raises
    ValueError.
    """
    layout = _layout(kind)
    allowed = ({_KIND_CODE[k] for k in layout.activities} if layout.activities
               else {EMAIL if kind == "email" else FILE_COPY})
    stray = set(_distinct(table.kind).tolist()) - allowed
    if stray:
        names = sorted(EVENT_KINDS[k] for k in stray)
        raise ValueError(f"a {kind} log cannot hold {names} events")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(layout.columns)
        for start in range(0, len(table), _BATCH_ROWS):
            writer.writerows(_csv_fields(table, kind, start, start + _BATCH_ROWS))


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    employee_name: str
    email: str
    role: str
    functional_unit: str
    department: str
    team: str
    supervisor: str | None = None  # user id, resolved; None at the top of the tree


# The columns of a directory snapshot: the UserRecord fields, in file order.
_LDAP_COLUMNS = (
    "employee_name",
    "user_id",
    "email",
    "role",
    "functional_unit",
    "department",
    "team",
    "supervisor",
)


@dataclass
class OrgDirectory:
    """Merged directory state: one record per user, supervisors resolved."""

    users: dict[str, UserRecord]

    def __len__(self) -> int:
        return len(self.users)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.users

    def __iter__(self) -> Iterator[str]:
        return iter(self.users)

    def sorted_user_ids(self) -> list[str]:
        return sorted(self.users)

    def email_to_user(self) -> dict[str, str]:
        mapping: dict[str, str] = {}
        for record in self.users.values():
            address = record.email.lower()
            if not address:
                continue
            existing = mapping.get(address)
            if existing is not None and existing != record.user_id:
                raise ValueError(
                    f"email address {record.email!r} is claimed by both "
                    f"{existing!r} and {record.user_id!r}"
                )
            mapping[address] = record.user_id
        return mapping


def _read_ldap_rows(path: str | Path) -> list[dict[str, str]]:
    """The rows of one directory snapshot, as its fields by column name; an
    empty or repeated user id is an error."""
    positions: dict[str, int] = {}
    seen: set[str] = set()

    def header(names: list[str]) -> None:
        positions.update((name.strip().lower(), i) for i, name in enumerate(names))
        missing = [c for c in _LDAP_COLUMNS if c not in positions]
        if missing:
            raise ValueError(f"directory snapshot is missing column(s) {missing}; "
                             f"expected {list(_LDAP_COLUMNS)}")

    def fields(row: list[str]) -> dict[str, str]:
        named = {c: row[positions[c]].strip() for c in _LDAP_COLUMNS}
        uid = named["user_id"]
        if not uid:
            raise ValueError("empty user_id")
        if uid in seen:
            raise ValueError(f"duplicate user_id {uid!r}")
        seen.add(uid)
        return named

    return read_table(path, header, fields)[1]


def load_ldap_snapshots(directory: str | Path) -> OrgDirectory:
    """Merge every ``*.csv`` snapshot under ``directory`` into one OrgDirectory.

    Snapshots are processed in ascending filename order, which orders them by
    date for the usual ``YYYY-MM.csv`` naming; for a user present in several
    snapshots the latest row wins.  Supervisor values may be either user ids
    or employee names and are resolved to user ids; an unresolvable non-empty
    supervisor is an error.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no directory snapshots (*.csv) under {directory}")

    merged: dict[str, dict[str, str]] = {}
    name_to_ids: dict[str, set[str]] = {}
    for path in paths:
        for row in _read_ldap_rows(path):
            merged[row["user_id"]] = row
            name_to_ids.setdefault(row["employee_name"], set()).add(row["user_id"])

    users: dict[str, UserRecord] = {}
    for uid, row in merged.items():
        raw_sup = row["supervisor"]
        supervisor: str | None
        if not raw_sup:
            supervisor = None
        elif raw_sup in merged:
            supervisor = raw_sup
        else:
            ids = name_to_ids.get(raw_sup, set())
            if len(ids) == 1:
                supervisor = next(iter(ids))
            elif not ids:
                raise ValueError(f"user {uid!r}: unresolvable supervisor {raw_sup!r}")
            else:
                raise ValueError(
                    f"user {uid!r}: supervisor name {raw_sup!r} is ambiguous ({sorted(ids)})"
                )
        users[uid] = UserRecord(**{**row, "supervisor": supervisor})
    return OrgDirectory(users=users)


def write_directory_csv(path: str | Path, directory: OrgDirectory) -> None:
    """Write the merged directory as a single snapshot (stable row order)."""
    records = map(directory.users.__getitem__, directory.sorted_user_ids())
    write_table(path, _LDAP_COLUMNS,
                ([getattr(record, c) or "" for c in _LDAP_COLUMNS] for record in records))


def load_directory_csv(path: str | Path) -> OrgDirectory:
    """Load a directory previously written by :func:`write_directory_csv`."""
    rows = _read_ldap_rows(path)
    known = {row["user_id"] for row in rows}
    users: dict[str, UserRecord] = {}
    for row in rows:
        sup = row["supervisor"] or None
        if sup is not None and sup not in known:
            raise ValueError(f"user {row['user_id']!r}: unknown supervisor id {sup!r}")
        users[row["user_id"]] = UserRecord(**{**row, "supervisor": sup})
    return OrgDirectory(users=users)
