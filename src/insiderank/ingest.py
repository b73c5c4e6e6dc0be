"""Activity-log and directory ingestion.

Reads the CSV layout used by the CMU CERT insider-threat releases (r4.2
column order).  ``LOG_LAYOUTS`` is the one description of the four activity
logs, keyed by log kind (logon, device, email, file): each file's name, its
columns in written order, and for logon and device the ``activity`` value of
each event kind.  The parser, :func:`write_log_file`, the synthetic corpus
generator and the CLI all read it.  The free-text ``content`` column of
email.csv and file.csv is never parsed.

Headers are matched by name, case-insensitively; column order does not
matter and extra columns are ignored.  Timestamps are ``MM/DD/YYYY HH:MM:SS``.
Malformed rows never abort a parse: they are recorded in a
:class:`RejectReport` with their file, line number and reason.  Text that is
not valid CSV at all, such as a field longer than ``csv.field_size_limit()``,
raises ValueError naming the file and line.

LDAP-style directory snapshots (one CSV per month) are merged into an
:class:`OrgDirectory`; later snapshots win for users present in several.
"""

from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "EVENT_KINDS",
    "FILE_KINDS",
    "LOG_LAYOUTS",
    "EmailPayload",
    "FilePayload",
    "LogEvent",
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
    "write_directory_csv",
    "write_log_file",
]

TIMESTAMP_FORMAT = "%m/%d/%Y %H:%M:%S"
# The zero-padded ASCII form of TIMESTAMP_FORMAT, read field by field; any
# other string (unpadded, non-ASCII digits, extra spaces) goes to strptime.
_FIXED_TIMESTAMP = re.compile(r"(\d\d)/(\d\d)/(\d{4}) (\d\d):(\d\d):(\d\d)", re.ASCII)

# Event kinds carried by LogEvent.kind.
EVENT_KINDS = (
    "logon",
    "logoff",
    "device_connect",
    "device_disconnect",
    "email",
    "file_copy",
)


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file", "line", "reason"])
            writer.writerows(self.rows)


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


def parse_timestamp(text: str) -> datetime:
    """``datetime.strptime(text, TIMESTAMP_FORMAT)``, with a fast path for
    the fixed-width layout; both raise ValueError for the same strings."""
    fixed = _FIXED_TIMESTAMP.fullmatch(text)
    if fixed is None:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    month, day, year, hour, minute, second = fixed.groups()
    return datetime(int(year), int(month), int(day), int(hour), int(minute), int(second))


def _split_addresses(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(";") if part.strip())


def parse_log_file(
    lines: Iterable[str],
    kind: str,
    *,
    source: str = "<stream>",
    rejects: RejectReport | None = None,
) -> list[LogEvent]:
    """Parse one activity CSV into LogEvents.

    ``kind`` is one of ``logon``, ``device``, ``email``, ``file``.  Rows that
    cannot be parsed are appended to ``rejects`` and skipped; a header that
    does not carry the expected columns raises :class:`SchemaError`.
    """
    layout = _layout(kind)
    kind_of = {activity.lower(): k for k, activity in layout.activities.items()}
    if rejects is None:
        rejects = RejectReport()

    rows = _csv_rows(lines, source)
    try:
        _, raw_header = next(rows)
    except StopIteration:
        raise SchemaError(f"{source}: empty file, expected a {kind} header")
    positions = _header_positions(raw_header, kind)
    width = max(positions) + 1
    required = operator.itemgetter(*positions)

    events: list[LogEvent] = []
    for line, row in rows:
        if not row:
            continue
        if len(row) < width:
            rejects.add(source, line, f"expected at least {width} fields, got {len(row)}",
                        "short row")
            continue
        # the required columns, in LOG_LAYOUTS order
        event_id, stamp, user, pc, *rest = map(str.strip, required(row))
        try:
            timestamp = parse_timestamp(stamp)
        except ValueError:
            rejects.add(source, line, f"bad timestamp {stamp!r}", "bad timestamp")
            continue
        if not user:
            rejects.add(source, line, "empty user", "empty user")
            continue

        if kind_of:
            (activity,) = rest
            event_kind = kind_of.get(activity.lower())
            if event_kind is None:
                rejects.add(source, line, f"unknown activity {activity!r}", "unknown activity")
                continue
            events.append(LogEvent(event_id, timestamp, user, pc, event_kind))
        elif kind == "email":
            to, cc, bcc, sender, size, attachments = rest
            try:
                size, attachments = int(size), int(attachments)
            except ValueError:
                rejects.add(source, line, "non-integer size or attachments",
                            "non-integer size")
                continue
            payload = EmailPayload(sender, _split_addresses(to), _split_addresses(cc),
                                   _split_addresses(bcc), size, attachments)
            events.append(LogEvent(event_id, timestamp, user, pc, "email", payload))
        else:  # file
            (filename,) = rest
            if not filename:
                rejects.add(source, line, "empty filename", "empty filename")
                continue
            events.append(
                LogEvent(event_id, timestamp, user, pc, "file_copy", FilePayload(filename))
            )
    return events


def read_log_csv(
    path: str | Path,
    kind: str,
    *,
    rejects: RejectReport | None = None,
) -> list[LogEvent]:
    path = Path(path)
    with open(path, newline="") as fh:
        return parse_log_file(fh, kind, source=path.name, rejects=rejects)


def write_log_file(path: str | Path, events: Sequence[LogEvent], kind: str) -> None:
    """Serialize events back to the canonical CSV layout for ``kind``.

    Inverse of :func:`parse_log_file` for valid rows; the free-text content
    column (never parsed) is written empty.
    """
    layout = _layout(kind)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(layout.columns)
        for e in events:
            # the fields after id, date, user and pc, in LOG_LAYOUTS order
            p = e.payload
            if layout.activities:
                rest = [layout.activities[e.kind]]
            elif kind == "email":
                rest = [";".join(p.to), ";".join(p.cc), ";".join(p.bcc), p.sender,
                        p.size, p.attachments, ""]
            else:  # file
                rest = [p.filename, ""]
            writer.writerow([e.event_id, e.timestamp.strftime(TIMESTAMP_FORMAT), e.user, e.pc,
                             *rest])


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


def _user_record(row: Mapping[str, str], supervisor: str | None) -> UserRecord:
    """The record of one snapshot row, with its supervisor resolved to a user id."""
    return UserRecord(**{**row, "supervisor": supervisor})


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


def _read_ldap_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = _csv_rows(fh, path.name)
        try:
            _, raw_header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path.name}: empty directory snapshot")
        positions = {name.strip().lower(): i for i, name in enumerate(raw_header)}
        missing = [c for c in _LDAP_COLUMNS if c not in positions]
        if missing:
            raise SchemaError(
                f"{path.name}: directory snapshot is missing column(s) {missing}; "
                f"expected {list(_LDAP_COLUMNS)}"
            )
        rows = []
        for line, row in reader:
            if not row:
                continue
            if len(row) <= max(positions[c] for c in _LDAP_COLUMNS):
                raise ValueError(f"{path.name}: truncated row at line {line}")
            rows.append({c: row[positions[c]].strip() for c in _LDAP_COLUMNS})
        return rows


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
        seen_in_file: set[str] = set()
        for row in _read_ldap_rows(path):
            uid = row["user_id"]
            if not uid:
                raise ValueError(f"{path.name}: row with empty user_id")
            if uid in seen_in_file:
                raise ValueError(f"{path.name}: duplicate user_id {uid!r}")
            seen_in_file.add(uid)
            merged[uid] = row
            name_to_ids.setdefault(row["employee_name"], set()).add(uid)

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
        users[uid] = _user_record(row, supervisor)
    return OrgDirectory(users=users)


def write_directory_csv(path: str | Path, directory: OrgDirectory) -> None:
    """Write the merged directory as a single snapshot (stable row order)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LDAP_COLUMNS)
        for uid in directory.sorted_user_ids():
            record = directory.users[uid]
            writer.writerow([getattr(record, c) or "" for c in _LDAP_COLUMNS])


def load_directory_csv(path: str | Path) -> OrgDirectory:
    """Load a directory previously written by :func:`write_directory_csv`."""
    rows = _read_ldap_rows(Path(path))
    users: dict[str, UserRecord] = {}
    known = {row["user_id"] for row in rows}
    for row in rows:
        uid = row["user_id"]
        if uid in users:
            raise ValueError(f"duplicate user_id {uid!r}")
        sup = row["supervisor"] or None
        if sup is not None and sup not in known:
            raise ValueError(f"user {uid!r}: unknown supervisor id {sup!r}")
        users[uid] = _user_record(row, sup)
    return OrgDirectory(users=users)
