"""Per-user behavioural attribute vectors.

Each directory user is summarized as a fixed 125-dimensional vector built
from their logon, removable-media, file-copy and email events plus four
organisational attributes.  Conventions, applied uniformly:

* Clock times become decimal hours, ``hour + minute / 60``.
* Statistics marked all/BH/AH are computed three ways: over all events, over
  business-hours events, and over after-hours events.  Business hours default
  to 08:00-17:00 on Monday-Friday and are configurable.
* "Daily number of X" statistics aggregate per-calendar-day counts, taken
  over the days that have at least one qualifying event.
* A user with no qualifying activity scores 0 on the affected attributes.
* Categorical fields (role, functional unit, department, team) are coded as
  integers assigned in lexicographic order of the observed values.

Attributes are computed for every user at once, column by column, from the
event tables of :mod:`insiderank.ingest`: :func:`group_by_user` orders the
rows by user and event kind with a stable sort, and each statistic is a
segment reduction over that order (``np.unique``, ``bincount``,
``reduceat``).  Means add their values in event order with Python's
``sum``, as a loop over the events would.  One ordered sequence of calls in
``_attribute_columns`` builds the matrix, and each call appends its
columns' names and values together.  ``ATTRIBUTE_NAMES``, the canonical
column order used by every artifact that serializes vectors, is the names of
the columns built for no users.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time
from typing import Iterable, Sequence

import numpy as np

from .ingest import (EMAIL, EVENT_KINDS, FILE_COPY, EventTable, OrgDirectory, _distinct,
                     _intern, _microseconds, read_table, write_table)

__all__ = [
    "ATTRIBUTE_NAMES",
    "AttributeVector",
    "CalendarConfig",
    "UserEvents",
    "attribute_matrix",
    "classify_hours",
    "decimal_hour",
    "encode_categoricals",
    "extract_attributes",
    "group_by_user",
    "normalize_matrix",
    "read_nodes_csv",
    "write_nodes_csv",
]

_SCOPES = ("all", "bh", "ah")
_STATS = ("max", "min", "avg")
FILE_TYPES = ("doc", "exe", "jpg", "pdf", "txt", "zip")
CATEGORICAL_FIELDS = ("role", "functional_unit", "department", "team")
# More than any day ordinal: the radix that packs (user, day) into one key.
_DAYS = date.max.toordinal() + 1


@dataclass(frozen=True)
class CalendarConfig:
    """Business-hours calendar; weekday numbers follow datetime (Mon=0)."""

    bh_start: time = time(8, 0)
    bh_end: time = time(17, 0)
    business_days: frozenset[int] = frozenset({0, 1, 2, 3, 4})

    def __post_init__(self) -> None:
        if self.bh_start.tzinfo is not None or self.bh_end.tzinfo is not None:
            raise ValueError("bh_start and bh_end must be local times without a UTC offset")
        if self.bh_start >= self.bh_end:
            raise ValueError("bh_start must precede bh_end")
        if not all(0 <= d <= 6 for d in self.business_days):
            raise ValueError("business_days entries must be weekday numbers 0..6")


def classify_hours(ts: datetime, config: CalendarConfig) -> str:
    """Return "BH" for business hours, "AH" otherwise."""
    if ts.weekday() in config.business_days and config.bh_start <= ts.time() < config.bh_end:
        return "BH"
    return "AH"


def decimal_hour(ts: datetime) -> float:
    return ts.hour + ts.minute / 60.0


@dataclass(frozen=True)
class AttributeVector:
    user: str
    values: np.ndarray  # float64, aligned with ATTRIBUTE_NAMES

    def __post_init__(self) -> None:
        if self.values.shape != (len(ATTRIBUTE_NAMES),):
            raise ValueError(
                f"attribute vector for {self.user!r} has shape {self.values.shape}, "
                f"expected ({len(ATTRIBUTE_NAMES)},)"
            )


class UserEvents:
    """Events grouped by user: ``table`` holds the events and ``users`` the
    user ids in sorted order; ``user`` is each row's position in ``users``,
    and ``order`` lists the rows by user, then event kind, then input order."""

    def __init__(self, table: EventTable) -> None:
        self.table = table
        self.users = sorted(table.users)
        position = {u: i for i, u in enumerate(self.users)}
        self.user = np.array([position[u] for u in table.users], np.int64)[table.user]
        self.order = np.lexsort((table.kind, self.user))


def group_by_user(tables: Iterable[EventTable]) -> UserEvents:
    """Group the events of parsed logs by user.  One table is grouped as it
    is; several (say one per log file) are first joined into a new table,
    a second copy of their events, so callers that hold the logs for a whole
    run join them once and pass the one table."""
    return UserEvents(EventTable.concat(list(tables)))


def encode_categoricals(directory: OrgDirectory) -> dict[str, dict[str, int]]:
    """Lexicographic integer codes 0..k-1 per categorical field."""
    codes: dict[str, dict[str, int]] = {}
    for fname in CATEGORICAL_FIELDS:
        values = sorted({getattr(r, fname) for r in directory.users.values()})
        codes[fname] = {v: i for i, v in enumerate(values)}
    return codes


def _is_internal(address: str, internal_domain: str) -> bool:
    address = address.lower()
    if "@" not in address:
        return False
    domain = address.rsplit("@", 1)[1]
    suffix = internal_domain.lower()
    return domain == suffix or domain.endswith("." + suffix)


def _file_type(filename: str) -> int:
    """The position in FILE_TYPES of the file's extension, -1 for any other."""
    ext = filename.rsplit(".", 1)[1].lower() if "." in filename else ""
    return FILE_TYPES.index(ext) if ext in FILE_TYPES else -1


def _stats(user: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Max, min and mean of ``values`` for each user 0..n-1, or zeros for a
    user without values; ``user`` is ascending.  A mean adds its values in
    row order with Python's ``sum``."""
    out = np.zeros((n, 3))
    if len(user):
        starts = np.flatnonzero(np.diff(user, prepend=-1))
        who = user[starts]
        out[who, 0] = np.maximum.reduceat(values, starts)
        out[who, 1] = np.minimum.reduceat(values, starts)
        flat = values.tolist()
        bounds = [*starts.tolist(), len(flat)]
        out[who, 2] = [float(sum(flat[a:b])) / (b - a) for a, b in zip(bounds, bounds[1:])]
    return out


def _count_distinct(user: np.ndarray, values: np.ndarray, radix: int, n: int) -> np.ndarray:
    """How many distinct ``values`` (each below ``radix``) each user 0..n-1 has."""
    return np.bincount(_distinct(user * radix + values) // radix, minlength=n)


class _Columns:
    """The attribute matrix of users 0..n-1, their positions in ``user_ids``,
    under construction from the events of ``grouped`` in (user, kind)
    order.  Every call appends the names and the values of its columns
    together, so they cannot fall out of step."""

    def __init__(self, grouped: UserEvents, user_ids: Sequence[str],
                 config: CalendarConfig) -> None:
        position = {u: i for i, u in enumerate(user_ids)}
        t, order = grouped.table, grouped.order
        self.n, self.table, self.order = len(user_ids), t, order
        self.table_user = np.array([position[u] for u in grouped.users], np.int64)[grouped.user]
        self.user = self.table_user[order]
        self.kind, self.day, self.tod, self.pc = (c[order] for c in (t.kind, t.day, t.tod, t.pc))
        # where classify_hours() says "BH"
        self.bh = (np.isin(t.weekday()[order], sorted(config.business_days))
                   & (self.tod >= _microseconds(config.bh_start))
                   & (self.tod < _microseconds(config.bh_end)))
        self.names: list[str] = []
        self.values: list[np.ndarray] = []

    def add(self, name: str, column: np.ndarray) -> None:
        self.names.append(name)
        self.values.append(np.asarray(column, dtype=np.float64))

    def stats(self, prefix: str, table: np.ndarray) -> None:
        for stat, column in zip(_STATS, table.T):
            self.add(f"{prefix}_{stat}", column)

    def scoped(self, prefix: str, rows: np.ndarray, measure) -> None:
        """The stats of ``measure`` over ``rows`` in each scope."""
        for scope, in_scope in self.scopes(rows):
            self.stats(f"{prefix}_{scope}", measure(in_scope))

    def of(self, *kinds: str) -> np.ndarray:
        return np.isin(self.kind, [EVENT_KINDS.index(k) for k in kinds])

    def scopes(self, rows: np.ndarray):
        """Each scope of _SCOPES with its rows: all, business hours, after hours."""
        return tuple(zip(_SCOPES, (rows, rows & self.bh, rows & ~self.bh)))

    def summary(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """:func:`_stats` of ``values``, given for the selected rows."""
        return _stats(self.user[rows], values, self.n)

    def hours(self, rows: np.ndarray) -> np.ndarray:
        tod = self.tod[rows]
        return self.summary(rows, tod // 3_600_000_000 + tod // 60_000_000 % 60 / 60.0)

    def daily_counts(self, rows: np.ndarray) -> np.ndarray:
        days, counts = np.unique(self.user[rows] * _DAYS + self.day[rows], return_counts=True)
        return _stats(days // _DAYS, counts, self.n)

    def daily_devices(self, rows: np.ndarray) -> np.ndarray:
        """Stats of the number of distinct machines per active day."""
        days, day_of = np.unique(self.user[rows] * _DAYS + self.day[rows], return_inverse=True)
        pcs = _count_distinct(day_of, self.pc[rows], max(len(self.table.pcs), 1), len(days))
        return _stats(days // _DAYS, pcs, self.n)

    def distinct(self, rows: np.ndarray, column: np.ndarray, radix: int) -> np.ndarray:
        return _count_distinct(self.user[rows], column[rows], radix, self.n)


def _attribute_columns(c: _Columns, org_codes: np.ndarray, internal_domain: str) -> _Columns:
    """Fill ``c`` with the attribute columns; ``org_codes`` holds each
    user's code for each categorical field."""
    t, n = c.table, c.n
    pcs = max(len(t.pcs), 1)

    # Email: recipient counts per field, size, attachments.
    emails = c.of("email")
    email_rows = t.kind == EMAIL
    # the emails in (user, input) order, by position among the email rows
    rows = (np.cumsum(email_rows) - 1)[c.order[emails]]
    recipient_counts = np.diff(t.recipient_ptr).reshape(-1, 3)[rows]
    for box, counts in zip(("to", "cc", "bcc"), recipient_counts.T):
        c.stats(f"email_recipients_{box}", c.summary(emails, counts))
    c.stats("email_size", c.summary(emails, t.size[rows]))
    c.stats("email_attachments", c.summary(emails, t.attachments[rows]))
    c.scoped("emails_per_day", emails, c.daily_counts)
    c.stats("email_send_time", c.hours(emails))
    c.add("email_device_count", c.distinct(emails, c.pc, pcs))
    # addresses count case-insensitively: each is lowered and classified once
    lowered: dict[str, int] = {}
    lower = _intern([a.lower() for a in t.addresses], lowered)
    internal = np.array([_is_internal(a, internal_domain) for a in lowered], bool)
    radix = max(len(lowered), 1)
    senders = lower[t.sender[rows]]
    named = senders != lowered.get("", -1)
    c.add("email_address_count",
          _count_distinct(c.user[emails][named], senders[named], radix, n))
    recipient_user = np.repeat(c.table_user[email_rows], np.diff(t.recipient_ptr[::3]))
    contacts = _distinct(recipient_user * radix + lower[t.recipients])
    inside = internal[contacts % radix]
    c.add("email_internal_contacts", np.bincount(contacts[inside] // radix, minlength=n))
    c.add("email_external_contacts", np.bincount(contacts[~inside] // radix, minlength=n))

    # Organisational codes.
    for fname, codes in zip(CATEGORICAL_FIELDS, org_codes.T):
        c.add(f"{fname}_code", codes)

    # Logon / logoff behaviour.
    logons, logoffs = c.of("logon"), c.of("logoff")
    c.scoped("logon_time", logons, c.hours)
    c.scoped("logoff_time", logoffs, c.hours)
    c.scoped("logons_per_day", logons, c.daily_counts)
    c.scoped("logoffs_per_day", logoffs, c.daily_counts)
    c.stats("logon_devices_per_day", c.daily_devices(logons | logoffs))

    # Removable media; a "usage" is a connect event.
    connects = c.of("device_connect")
    device_events = c.of("device_connect", "device_disconnect")
    c.scoped("usb_uses_per_day", connects, c.daily_counts)
    c.scoped("usb_use_time", connects, c.hours)
    c.add("usb_device_count", c.distinct(device_events, c.pc, pcs))
    c.stats("usb_devices_per_day", c.daily_devices(device_events))
    c.add("usb_active_days", c.distinct(device_events, c.day, _DAYS))

    # File copies.
    files = c.of("file_copy")
    c.scoped("file_copy_time", files, c.hours)
    for scope, in_scope in c.scopes(files):
        c.add(f"file_days_{scope}", c.distinct(in_scope, c.day, _DAYS))
    c.scoped("files_per_day", files, c.daily_counts)
    file_types = np.array([_file_type(name) for name in t.filenames], np.int64)
    file_type = file_types[t.filename[(np.cumsum(t.kind == FILE_COPY) - 1)[c.order[files]]]]
    file_user = c.user[files]
    n_files = np.bincount(file_user, minlength=n)
    for k, ext in enumerate(FILE_TYPES):
        of_type = np.bincount(file_user[file_type == k], minlength=n)
        c.add(f"file_ratio_{ext}", np.divide(of_type, n_files, out=np.zeros(n), where=n_files > 0))
    c.add("file_device_count", c.distinct(files, c.pc, pcs))
    return c


ATTRIBUTE_NAMES: tuple[str, ...] = tuple(_attribute_columns(
    _Columns(group_by_user(()), (), CalendarConfig()), np.zeros((0, len(CATEGORICAL_FIELDS))), ""
).names)
assert len(ATTRIBUTE_NAMES) == 125
assert len(set(ATTRIBUTE_NAMES)) == 125


def extract_attributes(
    events_by_user: UserEvents,
    directory: OrgDirectory,
    config: CalendarConfig | None = None,
    *,
    internal_domain: str = "dtaa.com",
) -> list[AttributeVector]:
    """Build one AttributeVector per directory user, ordered by user id.

    ``events_by_user`` is :func:`group_by_user`'s result.  Users appearing
    in the events but not in the directory are an error; directory users
    without events get the all-zero defaults.
    """
    config = config or CalendarConfig()
    unknown = sorted(set(events_by_user.users) - set(directory.users))
    if unknown:
        raise ValueError(f"events reference users absent from the directory: {unknown}")
    codes = encode_categoricals(directory)
    user_ids = directory.sorted_user_ids()
    org_codes = np.array([[codes[f][getattr(directory.users[uid], f)] for f in CATEGORICAL_FIELDS]
                          for uid in user_ids]).reshape(len(user_ids), len(CATEGORICAL_FIELDS))
    columns = _attribute_columns(_Columns(events_by_user, user_ids, config), org_codes,
                                 internal_domain)
    matrix = np.column_stack(columns.values)
    return [AttributeVector(uid, row) for uid, row in zip(user_ids, matrix)]


def attribute_matrix(vectors: Sequence[AttributeVector]) -> tuple[list[str], np.ndarray]:
    users = [v.user for v in vectors]
    if not vectors:
        return users, np.zeros((0, len(ATTRIBUTE_NAMES)))
    return users, np.vstack([v.values for v in vectors])


def normalize_matrix(matrix: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1]; constant columns become zeros.

    Idempotent: applying it twice gives the same result as applying it once.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d attribute matrix")
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = hi - lo
    out = np.zeros_like(matrix)
    varying = span > 0
    out[:, varying] = (matrix[:, varying] - lo[varying]) / span[varying]
    return out


def write_nodes_csv(
    path,
    user_ids: Sequence[str],
    matrix: np.ndarray,
    names: Sequence[str] = ATTRIBUTE_NAMES,
) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(user_ids), len(names)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {len(user_ids)} users x {len(names)} attributes"
        )
    write_table(path, ["user_id", *names],
                ([uid, *row.tolist()] for uid, row in zip(user_ids, matrix)))


def _nodes_header(names: list[str]) -> None:
    if names[:1] != ["user_id"]:
        raise ValueError("expected a nodes table starting with user_id")


def read_nodes_csv(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Read a nodes table; returns (user_ids, matrix, attribute names)."""
    header, rows = read_table(path, _nodes_header,
                              lambda row: (row[0], [float(x) for x in row[1:]]))
    matrix = np.array([values for _, values in rows], np.float64)
    return [user for user, _ in rows], matrix.reshape(len(rows), len(header) - 1), header[1:]
