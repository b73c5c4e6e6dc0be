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
addresses and file names interned into code tables.  :func:`write_log_file`
writes a table back, formatting each distinct day once.

:func:`read_log_csv` reads a log as UTF-8 and tokenizes it as bytes: it
reads 256 KiB at a time and finds line ends (``\\n`` or ``\\r\\n``) and
commas with vectorized compares.  The first line that holds a quote, a bare
``\\r``, NUL or a non-ASCII byte, or that is longer than
``csv.field_size_limit()``, hands the rest of the file, from the start of
that line's batch of rows, to ``csv.reader``, since a quoted field can span
lines.  :func:`parse_log_file` parses lines of text with ``csv.reader``
alone.  The required fields of ``csv.reader`` rows are joined into one
UTF-8 buffer, so one field pass reads every field from its byte range,
whichever tokenizer split it, and both give the same table and rejects.
That pass decodes and range-checks timestamps together as one matrix of
bytes, leaving any it refuses to :func:`parse_timestamp`; groups the user,
machine, activity, address and file-name fields on their bytes, so each
distinct value is decoded and stripped once, into one code table per file;
and reads runs of digits as integers in numpy.

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
:func:`read_table`: UTF-8 text, a header row, floats as their ``repr``,
blank lines skipped on reading, and every reading error named by file and
line.
"""

from __future__ import annotations

import csv
import io
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
# batch of rows, with its free-text content fields, is held at once.  A
# log's addresses are numbered a batch at a time (see _LogParser).
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


def _csv_rows(lines: Iterable[str], source: str,
              line: int = 0) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader`` over ``lines``, the first of which is line ``line + 1``
    of ``source``, yielding (line number, row).

    Text that is not valid CSV, such as a field longer than
    ``csv.field_size_limit()``, raises ValueError naming ``source`` and the line.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield line + reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{source}:{line + reader.line_num}: {exc}") from None


def write_table(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV artifact: the header row, then ``rows``.  ``csv`` writes
    each cell with ``str``, which is ``repr`` for a Python float, so floats
    go in as Python floats (``ndarray.tolist()`` gives those)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str | Path, header: Sequence[str] | Callable[[list[str]], object],
               convert: Callable[[list[str]], object]) -> tuple[list[str], list]:
    """The header row of a CSV artifact, read as UTF-8, and ``convert(row)``
    for each later row that is not blank.

    ``header`` is the exact header the file must start with, or a function
    that raises ValueError when the header it is given (``[]`` for an empty
    file) is wrong.  A refused header raises SchemaError; a row whose width
    is not the header's, or that ``convert`` refuses with ValueError, raises
    ValueError, and so does text that is not valid CSV or not UTF-8.  Each
    message reads ``<path>:<line>: <reason>``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
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
        except UnicodeDecodeError:  # text is decoded ahead of the rows read
            raise ValueError(f"{path}:{_utf8_error(Path(path))}") from None
        except (csv.Error, ValueError) as exc:
            raise error(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
    return names, rows


def _csv_batches(lines: Iterable[str], source: str,
                 line: int = 0) -> Iterator[list[tuple[int, list[str]]]]:
    """The pairs of :func:`_csv_rows` in lists of up to _BATCH_ROWS."""
    rows = _csv_rows(lines, source, line)
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


def _timestamp_columns(chars: np.ndarray, fits: np.ndarray, text: Callable[[int], str]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Day ordinal, microseconds since midnight, and whether the stamp is a
    valid timestamp, for each stamp.

    ``chars`` holds the UTF-8 bytes of each stamp, one row of 19, and
    ``fits`` says which stamps are exactly 19 bytes long; ``text(i)``
    is stamp ``i`` with its whitespace stripped.  Zero-padded ASCII stamps
    are decoded and range-checked together; :func:`parse_timestamp` decides
    every stamp that pass does not accept, so the valid stamps and their
    values are exactly parse_timestamp's.
    """
    d = chars.T[_DIGIT_AT].astype(np.int64) - ord("0")  # one row per digit
    month, dom, hour, minute, second = (d[i] * 10 + d[i + 1] for i in (0, 2, 8, 10, 12))
    year = ((d[4] * 10 + d[5]) * 10 + d[6]) * 10 + d[7]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12)
    ok = (fits & ((d >= 0) & (d <= 9)).all(axis=0)
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
            parsed = parse_timestamp(text(i))
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


def _text(raw: bytes) -> str:
    """A field's UTF-8 bytes as stripped text."""
    return raw.decode("utf-8", "surrogatepass").strip()


# The byte tokenizer.  It reads a log _CHUNK_BYTES at a time and parses whole
# batches of _BATCH_ROWS lines, so that one tokenizer parses each batch; the
# lines of a batch that is not yet whole wait for the next read.  Its numpy
# temporaries take several times the bytes it parses at once: reads of
# 1 MiB raised the peak RSS of a `cap` pipeline by 6 MB, and 256 KiB reads
# parse as fast.  csv.reader rows are parsed in groups of about as many bytes.
_CHUNK_BYTES = 1 << 18
# The ASCII bytes str.strip() removes.
_SPACE = np.zeros(256, bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
# Fields of up to this many 8-byte words are grouped as rows of words, each
# padded to the longest; longer ones one at a time in a dict, so that one
# long value cannot pad every row of a column.
_KEY_WORDS = 8
_MIX = np.uint64(0x9E3779B97F4A7C15)  # folds the words of a field into one key
# A word with every byte past its low k set, for k from 0 to 8.
_PAST_BYTES = np.array([(1 << 64) - (1 << 8 * k) for k in range(9)], np.uint64)
_STAMP_AT = np.arange(0, 19, 8)  # the words of a timestamp


def _runs(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of a sorted 2-D array starts."""
    new = np.ones(len(ordered), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return new


def _same_text(buf: bytes, words: np.ndarray, lo: np.ndarray, hi: np.ndarray
               ) -> tuple[np.ndarray, list[str]]:
    """Group the fields ``buf[lo[i]:hi[i]]`` on their bytes: the group of
    each, equal fields in one group, and the text of each group, decoded
    from UTF-8 and stripped once.

    ``words[p]`` is the 8 bytes of ``buf`` from ``p`` on, as a
    little-endian integer.  A field becomes a row of such words, with the
    bytes past its end set to 0xFF; UTF-8 never holds that byte, so no two
    different fields make the same row.  The rows are sorted on one key
    folded from their words, and should two different rows share a key, on
    all their words instead.
    """
    lengths = hi - lo
    group = np.empty(len(lo), np.int64)
    rows = np.flatnonzero(lengths <= 8 * _KEY_WORDS)
    at = 8 * np.arange(max(1, -(-int(lengths[rows].max(initial=0)) // 8)))
    row = words[lo[rows, None] + at] | _PAST_BYTES[np.clip(lengths[rows, None] - at, 0, 8)]
    key = row[:, 0]
    for column in row.T[1:]:
        key = key * _MIX + column
    order = np.argsort(key)
    new = _runs(row[order])
    if row.shape[1] > 1 and np.count_nonzero(new) != np.count_nonzero(_runs(key[order, None])):
        order = np.lexsort(row.T[::-1])
        new = _runs(row[order])
    group[rows[order]] = np.cumsum(new) - 1
    member = rows[order[new]].tolist()
    wide: dict[bytes, int] = {}
    for i in np.flatnonzero(lengths > 8 * _KEY_WORDS).tolist():
        text = buf[lo[i]:hi[i]]
        if text not in wide:
            wide[text] = len(member)
            member.append(i)
        group[i] = wide[text]
    return group, [_text(buf[a:b]) for a, b in zip(lo[member].tolist(), hi[member].tolist())]


def _codes(group: np.ndarray, strings: Sequence[str], index: dict[str, int],
           rank: np.ndarray | None = None) -> np.ndarray:
    """The code in ``index`` of each occurrence, ``group[i]`` naming its
    string in ``strings``.  The strings ``index`` lacks join it in order of
    their first occurrence, or of their least ``rank`` when given."""
    if rank is None:
        rank = np.arange(len(group))
    first = np.full(len(strings), np.iinfo(np.int64).max)
    np.minimum.at(first, group, rank)
    seen = np.flatnonzero(first < np.iinfo(np.int64).max)
    code = np.zeros(len(strings), np.int32)
    for g in seen[np.argsort(first[seen])].tolist():
        code[g] = index.setdefault(strings[g], len(index))
    return code[group]


def _integer_fields(buf: bytes, arr: np.ndarray, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each field's stripped text (0 where int() refuses it), and
    where it accepts.  Runs of up to 18 ASCII digits are read in numpy and
    int() reads the rest; the values are int64, or Python ints in an object
    array when one does not fit."""
    lengths = hi - lo
    width = max(1, min(int(lengths.max(initial=0)), 18))
    at = np.arange(width)
    digits = np.take(arr, hi[:, None] - width + at, mode="clip").astype(np.int64) - ord("0")
    inside = at >= width - lengths[:, None]
    run = ((lengths > 0) & (lengths <= 18)
           & np.where(inside, (digits >= 0) & (digits <= 9), True).all(axis=1))
    values = np.where(inside & run[:, None], digits, 0) @ 10 ** np.arange(width - 1, -1, -1)
    parsed = {}
    for i in np.flatnonzero(~run).tolist():
        try:
            parsed[i] = int(_text(buf[lo[i]:hi[i]]))
        except ValueError:
            pass
    if parsed:
        run[list(parsed)] = True
        try:
            values[list(parsed)] = list(parsed.values())
        except OverflowError:
            values = values.astype(object)
            values[list(parsed)] = list(parsed.values())
    return values, run


# The columns a parser appends to, with their types.
_COLUMN_TYPES = {"id_length": np.int64, "user": np.int32, "day": np.int32, "tod": np.int64,
                 "kind": np.int8, "pc": np.int32, "sender": np.int32,
                 "recipient_count": np.int64, "recipients": np.int32, "size": np.int64,
                 "attachments": np.int64, "filename": np.int32}


class _LogParser:
    """Turns the rows of one log into the columns of its valid events, and
    records every other non-empty row in a RejectReport.

    Two tokenizers only split rows into fields: :meth:`byte_lines` splits
    lines of bytes at their commas, and :meth:`csv_rows` joins the fields of
    ``csv.reader`` rows into one UTF-8 buffer.  Either way one field pass,
    :meth:`fields`, reads every field from its byte range, and the strings
    of each field join one index for the whole file, so :meth:`table` only
    joins the columns.  Users, machines and file names are numbered in order
    of first appearance among the valid rows; addresses too, a batch of
    _BATCH_ROWS rows at a time, with the recipients of a batch before its
    senders.
    """

    def __init__(self, kind: str, header: Sequence[str], source: str,
                 rejects: RejectReport) -> None:
        self.kind = kind
        self.positions = _header_positions(header, kind)
        self.width = max(self.positions) + 1
        self.kind_of = {activity.lower(): _KIND_CODE[k]
                        for k, activity in LOG_LAYOUTS[kind].activities.items()}
        self.source, self.rejects = source, rejects
        self.users: dict[str, int] = {}
        self.pcs: dict[str, int] = {}
        self.addresses: dict[str, int] = {}
        self.filenames: dict[str, int] = {}
        self.ids: list[str] = []
        self.columns: dict[str, list[np.ndarray]] = {name: [] for name in _COLUMN_TYPES}

    def table(self) -> EventTable:
        """The events of every row added."""
        column = {name: np.concatenate(parts) if parts else np.empty(0, _COLUMN_TYPES[name])
                  for name, parts in self.columns.items()}
        id_ptr = np.zeros(len(column["user"]) + 1, np.int64)
        np.cumsum(column["id_length"], out=id_ptr[1:])
        recipient_ptr = np.zeros(len(column["recipient_count"]) + 1, np.int64)
        np.cumsum(column["recipient_count"], out=recipient_ptr[1:])
        return EventTable(
            "".join(self.ids), id_ptr, column["user"], list(self.users), column["day"],
            column["tod"], column["kind"], column["pc"], list(self.pcs), column["sender"],
            recipient_ptr, column["recipients"], list(self.addresses), column["size"],
            column["attachments"], column["filename"], list(self.filenames))

    def short(self, rows: Iterable[tuple[int, int]]) -> list[tuple[int, str, str]]:
        """The (line, reason, class) of rows, (line, fields) pairs, with too
        few fields."""
        return [(line, f"expected at least {self.width} fields, got {n}", "short row")
                for line, n in rows]

    def reject(self, rejected: Iterable[tuple[int, str, str]]) -> None:
        for line, reason, cls in sorted(rejected):
            self.rejects.add(self.source, line, reason, cls)

    def csv_rows(self, batches: Iterable[list[tuple[int, list[str]]]]) -> None:
        """Parse batches of (line number, row) pairs from ``csv.reader``.

        The required cells of each row join one UTF-8 buffer, whole batches
        at a time until it holds about _CHUNK_BYTES, and :meth:`fields`
        parses each cell from its byte range.
        """
        take, width = operator.itemgetter(*self.positions), self.width
        texts: list[str] = []  # the joined cells of each batch
        sizes: list[np.ndarray] = []  # and the UTF-8 length of each cell
        lines: list[int] = []
        batch_of: list[int] = []
        rejected: list[tuple[int, str, str]] = []
        for b, batch in enumerate(itertools.chain(batches, [None])):  # None ends the last group
            if batch is None or sum(map(len, texts)) >= _CHUNK_BYTES:
                if texts:
                    size = np.concatenate(sizes).reshape(len(lines), len(self.positions))
                    hi = np.cumsum(size).reshape(size.shape)
                    lo = hi - size
                    self.fields("".join(texts).encode("utf-8", "surrogatepass"),
                                list(zip(lo.T, hi.T)), np.array(lines), np.array(batch_of),
                                rejected)
                texts, sizes, lines, batch_of, rejected = [], [], [], [], []
            if batch is None:
                return
            rows = [(line, row) for line, row in batch if len(row) >= width]
            if len(rows) < len(batch):
                rejected += self.short((line, len(row)) for line, row in batch
                                       if 0 < len(row) < width)
            cells = list(itertools.chain.from_iterable(take(row) for _, row in rows))
            texts.append("".join(cells))
            sizes.append(np.fromiter(
                map(len, cells) if texts[-1].isascii()
                else (len(c.encode("utf-8", "surrogatepass")) for c in cells),
                np.int64, len(cells)))
            lines += [line for line, _ in rows]
            batch_of += [b] * len(rows)

    def byte_lines(self, buf: bytes, line: int) -> None:
        """Parse ``buf``, whole lines of ASCII text, each ended by ``\\n`` or
        ``\\r\\n``, that hold no quote, bare ``\\r`` or NUL; the first is line
        ``line + 1`` of the file.  Each line is one row, split at its commas,
        as ``csv.reader`` splits it, and :meth:`fields` parses the fields."""
        arr = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero(arr == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))
        stops = ends - (arr[np.maximum(ends - 1, 0)] == 13)  # a \r only comes before a \n
        commas = np.flatnonzero(arr == 44)
        first_comma = np.searchsorted(commas, starts)
        fields = np.where(stops > starts, np.searchsorted(commas, stops) - first_comma + 1, 0)
        number = line + 1 + np.arange(len(ends))
        short = (fields > 0) & (fields < self.width)
        rejected = self.short(zip(number[short].tolist(), fields[short].tolist()))
        rows = np.flatnonzero(fields >= self.width)
        number, first_comma, last = number[rows], first_comma[rows], fields[rows] - 1

        def field(p: int) -> tuple[np.ndarray, np.ndarray]:
            lo = starts[rows] if p == 0 else commas[first_comma + p - 1] + 1
            hi = np.where(p < last, commas[np.minimum(first_comma + p, len(commas) - 1)],
                          stops[rows])
            return lo, hi

        self.fields(buf, list(map(field, self.positions)), number, (number - 1) // _BATCH_ROWS,
                    rejected)

    def fields(self, buf: bytes, ranges: list[tuple[np.ndarray, np.ndarray]],
               lines: np.ndarray, batches: np.ndarray,
               rejected: list[tuple[int, str, str]]) -> None:
        """Parse rows from the byte ranges of their fields in ``buf``, UTF-8
        text: ``ranges`` holds the starts and stops of each required field,
        in LOG_LAYOUTS order, and ``lines`` and ``batches`` the line number
        and batch of each row.  The rows that fail are rejected, with those
        already in ``rejected``."""
        if not len(lines):
            return self.reject(rejected)
        arr = np.frombuffer(buf, np.uint8)
        # the 8 bytes from each position on, with zeros past the end; a
        # field's words start at most 8 * (_KEY_WORDS - 1) bytes into it
        words = np.ndarray((len(buf) + 8 * _KEY_WORDS,), "<u8", buf + bytes(8 * _KEY_WORDS + 7),
                           strides=(1,))
        (id_lo, id_hi), (lo, hi), users, pcs, *rest = ranges
        fits = hi - lo == 19
        chars = words[np.where(fits, lo, 0)[:, None] + _STAMP_AT].view(np.uint8)[:, :19]
        day, tod, timed = _timestamp_columns(chars, fits, lambda i: _text(buf[lo[i]:hi[i]]))
        user, user_strings = _same_text(buf, words, *users)
        named = np.array(list(map(bool, user_strings)), bool)[user]
        if self.kind_of:
            activity, strings = _same_text(buf, words, *rest[0])
            kind = np.array([self.kind_of.get(s.lower(), -1) for s in strings], np.int8)[activity]
            valid = kind >= 0
            why = lambda i: (f"unknown activity {strings[activity[i]]!r}", "unknown activity")
        elif self.kind == "email":
            (size, sized), (attachments, counted) = (_integer_fields(buf, arr, *f)
                                                     for f in rest[4:])
            valid = sized & counted
            why = lambda i: ("non-integer size or attachments", "non-integer size")
        else:
            filename, strings = _same_text(buf, words, *rest[0])
            valid = np.array(list(map(bool, strings)), bool)[filename]
            why = lambda i: ("empty filename", "empty filename")
        # a row is kept with a valid timestamp, a user, and what the log's
        # own check allows; why(i) is the reason and class it refuses row i
        keep = timed & named & valid
        for i in np.flatnonzero(~keep).tolist():
            line = int(lines[i])
            if not timed[i]:
                stamp = _text(buf[lo[i]:hi[i]])
                rejected.append((line, f"bad timestamp {stamp!r}", "bad timestamp"))
            elif not named[i]:
                rejected.append((line, "empty user", "empty user"))
            else:
                rejected.append((line, *why(i)))
        self.reject(rejected)
        kept = np.flatnonzero(keep)
        if not len(kept):
            return
        columns = {"user": _codes(user[kept], user_strings, self.users),
                   "day": day[kept], "tod": tod[kept],
                   "pc": _codes(*_same_text(buf, words, pcs[0][kept], pcs[1][kept]), self.pcs)}
        if self.kind_of:
            columns["kind"] = kind[kept]
        elif self.kind == "email":
            boxes = [(start[kept], stop[kept]) for start, stop in rest[:4]]
            columns.update(self.byte_addresses(buf, arr, words, boxes, batches[kept]),
                           kind=np.full(len(kept), EMAIL, np.int8),
                           size=_int_array(size[kept]),
                           attachments=_int_array(attachments[kept]))
        else:
            columns.update(kind=np.full(len(kept), FILE_COPY, np.int8),
                           filename=_codes(filename[kept], strings, self.filenames))
        ids, columns["id_length"] = _byte_ids(buf, arr, id_lo[kept], id_hi[kept])
        self.ids.append(ids)
        for name, values in columns.items():
            self.columns[name].append(values)

    def byte_addresses(self, buf: bytes, arr: np.ndarray, words: np.ndarray,
                       boxes: list[tuple[np.ndarray, np.ndarray]], batch: np.ndarray
                       ) -> dict[str, np.ndarray]:
        """The address columns of valid emails, from the byte ranges of their
        to, cc, bcc and from fields and the batch each email is in.

        A to, cc or bcc field splits at its semicolons into addresses, and
        an address that strips to nothing is dropped; the sender is the
        whole from field.  Each distinct address is decoded once.
        """
        (to, cc, bcc, sender), emails = boxes, len(batch)
        lo = np.stack([to[0], cc[0], bcc[0]], axis=1).ravel()  # email by email
        hi = np.stack([to[1], cc[1], bcc[1]], axis=1).ravel()
        # the addresses of the boxes that hold any, between semicolons; the
        # semicolon positions are closed by one past every field
        box = np.flatnonzero(hi > lo)
        semis = np.append(np.flatnonzero(arr == 59), len(arr) + 1)
        first = np.searchsorted(semis, lo[box])
        tokens = np.searchsorted(semis, hi[box]) - first + 1
        box, first, last = (np.repeat(column, tokens) for column in (box, first, first + tokens))
        after = first + np.arange(len(box)) - np.repeat(np.cumsum(tokens) - tokens, tokens)
        start = np.where(after == first, lo[box], np.take(semis, after - 1) + 1)
        stop = np.where(after == last - 1, hi[box], semis[after])
        full = np.flatnonzero(stop > start)  # empty addresses go here, blank ones below
        box = box[full]
        address, strings = _same_text(buf, words, np.concatenate([start[full], sender[0]]),
                                      np.concatenate([stop[full], sender[1]]))
        recipient, sender_of = address[:len(box)], address[len(box):]
        named = np.flatnonzero(np.array(list(map(bool, strings)), bool)[recipient])
        # a batch's recipients, email by email, come before its senders
        slot = len(box) + emails
        rank = np.concatenate([batch[box[named] // 3] * 2 * slot + named,
                               (batch * 2 + 1) * slot + np.arange(emails)])
        codes = _codes(np.concatenate([recipient[named], sender_of]), strings, self.addresses,
                       rank)
        return {"sender": codes[len(named):],
                "recipient_count": np.bincount(box[named], minlength=len(lo)),
                "recipients": codes[:len(named)]}


def _byte_ids(buf: bytes, arr: np.ndarray, lo: np.ndarray, hi: np.ndarray
              ) -> tuple[str, np.ndarray]:
    """The stripped fields ``buf[lo[i]:hi[i]]`` as one string, and the length
    of each in characters."""
    if not buf.isascii():  # lengths in bytes are not lengths in characters
        ids = [_text(buf[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]
        return "".join(ids), np.fromiter(map(len, ids), np.int64, len(ids))
    padded = np.flatnonzero((hi > lo) & (_SPACE[np.take(arr, lo, mode="clip")]
                                         | _SPACE[np.take(arr, hi - 1, mode="clip")]))
    if len(padded):
        lo, hi = lo.copy(), hi.copy()
        for i in padded.tolist():
            raw = buf[lo[i]:hi[i]].decode("ascii")
            lo[i] += len(raw) - len(raw.lstrip())
            hi[i] = lo[i] + len(raw.strip())
    lengths = hi - lo
    ends = np.cumsum(lengths)
    at = np.repeat(lo - (ends - lengths), lengths) + np.arange(ends[-1])
    return arr[at].tobytes().decode("ascii"), lengths


def _csv_lines(buf: bytes, arr: np.ndarray, ends: np.ndarray) -> int:
    """How many of the lines ending at ``ends`` come before the first that
    ``csv.reader`` must read: one that holds a quote, a bare ``\\r``, NUL or
    a non-ASCII byte, or that is longer than ``csv.field_size_limit()``."""
    size = int(ends[-1]) + 1
    text, part = buf[:size], arr[:size]
    found = len(ends)
    crlf = np.count_nonzero(arr[np.maximum(ends - 1, 0)] == 13)
    if b'"' in text or b"\0" in text or not text.isascii() or np.count_nonzero(part == 13) != crlf:
        at = np.flatnonzero((part == 34) | (part == 0) | (part >= 128) | (part == 13))
        at = at[(part[at] != 13) | (arr[at + 1] != 10)]
        found = int(np.searchsorted(ends, at[0])) if len(at) else found
    long = np.flatnonzero(np.diff(ends[:found], prepend=-1) - 1 > csv.field_size_limit())
    return int(long[0]) if len(long) else found


def _tokenize(fh, kind: str, source: str, rejects: RejectReport
              ) -> tuple[_LogParser | None, int, int | None]:
    """Parse the binary file ``fh`` with the byte tokenizer, up to the first
    batch of _BATCH_ROWS lines that holds a line ``csv.reader`` must read.

    Returns the parser (None when no header was parsed), the lines parsed,
    and the byte offset where ``csv.reader`` must go on, or None when the
    tokenizer parsed the whole file.
    """
    parser, line, offset, buf = None, 0, 0, b""
    while True:
        more = fh.read(_CHUNK_BYTES)
        buf += more
        if not more and buf and not buf.endswith(b"\n"):
            buf += b"\n"  # csv.reader reads a last line without its end the same way
        arr = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero(arr == 10)
        # whole batches of lines, or every line once the file is read
        n = (line + len(ends)) // _BATCH_ROWS * _BATCH_ROWS - line if more else len(ends)
        if not n:
            if more:
                continue
            return parser, line, None
        clean = _csv_lines(buf, arr, ends[:n])
        handover = clean < n
        if handover:  # csv.reader takes the rest from the start of that line's batch
            n = (line + clean) // _BATCH_ROWS * _BATCH_ROWS - line
        size = int(ends[n - 1]) + 1 if n else 0
        if n and not line:
            header = buf[:ends[0]].rstrip(b"\r").decode("ascii")
            parser = _LogParser(kind, header.split(",") if header else [], source, rejects)
            if n > 1:
                parser.byte_lines(buf[ends[0] + 1:size], 1)
        elif n:
            parser.byte_lines(buf[:size], line)
        line, offset, buf = line + n, offset + size, buf[size:]
        if handover:
            return parser, line, offset


def _csv_log(lines: Iterable[str], kind: str, source: str, rejects: RejectReport,
             line: int = 0, parser: _LogParser | None = None) -> _LogParser:
    """Parse ``lines`` with ``csv.reader``, the first being line ``line + 1``
    of ``source``; without a parser, the first row is the header."""
    batches: Iterable[list[tuple[int, list[str]]]] = _csv_batches(lines, source, line)
    if parser is None:
        first = next(iter(batches), None)
        if first is None:
            raise SchemaError(f"{source}: empty file, expected a {kind} header")
        (_, header), *rows = first
        parser = _LogParser(kind, header, source, rejects)
        batches = itertools.chain([rows], batches)
    parser.csv_rows(batches)
    return parser


def _utf8_error(path: Path, offset: int = 0, line: int = 0) -> str:
    """Where and why the text of ``path`` after byte ``offset``, which ends
    line ``line``, is not UTF-8: ``<line>: <reason>``."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                before = raw[:exc.start]  # a bare \r ends a line too
                line += 1 + before.count(b"\r") - before.count(b"\r\n")
                return f"{line}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
            line += 1 + raw.count(b"\r") - raw.count(b"\r\n")
    return f"{line}: not UTF-8"


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
    return _csv_log(lines, kind, source, RejectReport() if rejects is None else rejects).table()


def read_log_csv(
    path: str | Path,
    kind: str,
    *,
    rejects: RejectReport | None = None,
) -> EventTable:
    """Parse one activity log file, read as UTF-8: the table and rejects
    :func:`parse_log_file` gives for its lines.

    The byte tokenizer parses the file up to the first batch of _BATCH_ROWS
    lines that holds a quote, a bare ``\\r``, NUL, a non-ASCII byte or a
    line longer than ``csv.field_size_limit()``; ``csv.reader`` parses the
    rest, from the start of that batch, since a quoted field can span lines.
    Bytes that are not UTF-8 raise ValueError naming the file and line.
    """
    _layout(kind)
    path = Path(path)
    rejects = RejectReport() if rejects is None else rejects
    with open(path, "rb") as fh:
        parser, line, offset = _tokenize(fh, kind, path.name, rejects)
        if offset is not None:
            fh.seek(offset)
            with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
                try:
                    parser = _csv_log(text, kind, path.name, rejects, line, parser)
                except UnicodeDecodeError:
                    raise ValueError(f"{path.name}:{_utf8_error(path, offset, line)}") from None
    if parser is None:
        raise SchemaError(f"{path.name}: empty file, expected a {kind} header")
    return parser.table()


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
    """Serialize a table to the canonical CSV layout for ``kind``, as UTF-8.

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
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
