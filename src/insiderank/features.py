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

One ordered sequence of calls in ``_attribute_row`` builds a user's vector,
and each call appends its columns' names and values together.
``ATTRIBUTE_NAMES``, the canonical column order used by every artifact that
serializes vectors, is the names of the row built from no events.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import LogEvent, OrgDirectory, _csv_rows

__all__ = [
    "ATTRIBUTE_NAMES",
    "AttributeVector",
    "CalendarConfig",
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


@dataclass(frozen=True)
class CalendarConfig:
    """Business-hours calendar; weekday numbers follow datetime (Mon=0)."""

    bh_start: time = time(8, 0)
    bh_end: time = time(17, 0)
    business_days: frozenset[int] = frozenset({0, 1, 2, 3, 4})

    def __post_init__(self) -> None:
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


def group_by_user(events: Iterable[LogEvent]) -> dict[str, list[LogEvent]]:
    grouped: dict[str, list[LogEvent]] = {}
    for event in events:
        grouped.setdefault(event.user, []).append(event)
    return grouped


def encode_categoricals(directory: OrgDirectory) -> dict[str, dict[str, int]]:
    """Lexicographic integer codes 0..k-1 per categorical field."""
    codes: dict[str, dict[str, int]] = {}
    for fname in CATEGORICAL_FIELDS:
        values = sorted({getattr(r, fname) for r in directory.users.values()})
        codes[fname] = {v: i for i, v in enumerate(values)}
    return codes


def _stats(values: Sequence[float]) -> tuple[float, float, float]:
    if not values:
        return (0.0, 0.0, 0.0)
    return (float(max(values)), float(min(values)), float(sum(values)) / len(values))


def _daily_counts(events: Sequence[LogEvent]) -> list[int]:
    per_day: dict[object, int] = {}
    for e in events:
        key = e.timestamp.date()
        per_day[key] = per_day.get(key, 0) + 1
    return [per_day[d] for d in sorted(per_day)]


def _daily_device_counts(events: Sequence[LogEvent]) -> list[int]:
    per_day: dict[object, set[str]] = {}
    for e in events:
        per_day.setdefault(e.timestamp.date(), set()).add(e.pc)
    return [len(per_day[d]) for d in sorted(per_day)]


def _is_internal(address: str, internal_domain: str) -> bool:
    address = address.lower()
    if "@" not in address:
        return False
    domain = address.rsplit("@", 1)[1]
    suffix = internal_domain.lower()
    return domain == suffix or domain.endswith("." + suffix)


def _scopes(events: Sequence[LogEvent], config: CalendarConfig):
    """Each scope of _SCOPES with its events: all, business hours, after hours."""
    in_bh: list[LogEvent] = []
    in_ah: list[LogEvent] = []
    for e in events:
        (in_bh if classify_hours(e.timestamp, config) == "BH" else in_ah).append(e)
    return tuple(zip(_SCOPES, (events, in_bh, in_ah)))


def _hours(events: Sequence[LogEvent]) -> list[float]:
    return [decimal_hour(e.timestamp) for e in events]


class _Row:
    """One attribute vector under construction.  Every call appends the names
    and the values of its columns together, so they cannot fall out of step."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.values: list[float] = []

    def add(self, name: str, value: float) -> None:
        self.names.append(name)
        self.values.append(float(value))

    def stats(self, prefix: str, values: Sequence[float]) -> None:
        for stat, value in zip(_STATS, _stats(values)):
            self.add(f"{prefix}_{stat}", value)

    def scoped(self, prefix: str, scopes, measure) -> None:
        """The stats of ``measure(events)`` for each scope from :func:`_scopes`."""
        for scope, events in scopes:
            self.stats(f"{prefix}_{scope}", measure(events))


def _attribute_row(
    events: Sequence[LogEvent],
    org_codes: Mapping[str, int],
    config: CalendarConfig,
    internal_domain: str,
) -> _Row:
    """The columns of one user's vector; ``org_codes`` maps each categorical
    field to the user's code."""

    def of(*kinds: str) -> list[LogEvent]:
        return [e for e in events if e.kind in kinds]

    row = _Row()

    # Email: recipient counts per field, size, attachments.
    emails = of("email")
    payloads = [e.payload for e in emails]
    for box in ("to", "cc", "bcc"):
        row.stats(f"email_recipients_{box}", [len(getattr(p, box)) for p in payloads])
    row.stats("email_size", [p.size for p in payloads])
    row.stats("email_attachments", [p.attachments for p in payloads])
    row.scoped("emails_per_day", _scopes(emails, config), _daily_counts)
    row.stats("email_send_time", _hours(emails))
    row.add("email_device_count", len({e.pc for e in emails}))
    row.add("email_address_count", len({p.sender.lower() for p in payloads if p.sender}))
    internal: set[str] = set()
    external: set[str] = set()
    for p in payloads:
        for addr in p.recipients():
            (internal if _is_internal(addr, internal_domain) else external).add(addr.lower())
    row.add("email_internal_contacts", len(internal))
    row.add("email_external_contacts", len(external))

    # Organisational codes.
    for fname in CATEGORICAL_FIELDS:
        row.add(f"{fname}_code", org_codes[fname])

    # Logon / logoff behaviour.
    logons = _scopes(of("logon"), config)
    logoffs = _scopes(of("logoff"), config)
    row.scoped("logon_time", logons, _hours)
    row.scoped("logoff_time", logoffs, _hours)
    row.scoped("logons_per_day", logons, _daily_counts)
    row.scoped("logoffs_per_day", logoffs, _daily_counts)
    row.stats("logon_devices_per_day", _daily_device_counts(of("logon", "logoff")))

    # Removable media; a "usage" is a connect event.
    connects = _scopes(of("device_connect"), config)
    device_events = of("device_connect", "device_disconnect")
    row.scoped("usb_uses_per_day", connects, _daily_counts)
    row.scoped("usb_use_time", connects, _hours)
    row.add("usb_device_count", len({e.pc for e in device_events}))
    row.stats("usb_devices_per_day", _daily_device_counts(device_events))
    row.add("usb_active_days", len({e.timestamp.date() for e in device_events}))

    # File copies.
    files = of("file_copy")
    scoped_files = _scopes(files, config)
    row.scoped("file_copy_time", scoped_files, _hours)
    for scope, in_scope in scoped_files:
        row.add(f"file_days_{scope}", len({e.timestamp.date() for e in in_scope}))
    row.scoped("files_per_day", scoped_files, _daily_counts)
    by_ext: dict[str, int] = {}
    for e in files:
        name = e.payload.filename
        ext = name.rsplit(".", 1)[1].lower() if "." in name else ""
        by_ext[ext] = by_ext.get(ext, 0) + 1
    for ext in FILE_TYPES:
        row.add(f"file_ratio_{ext}", by_ext.get(ext, 0) / len(files) if files else 0.0)
    row.add("file_device_count", len({e.pc for e in files}))
    return row


ATTRIBUTE_NAMES: tuple[str, ...] = tuple(
    _attribute_row((), dict.fromkeys(CATEGORICAL_FIELDS, 0), CalendarConfig(), "").names
)
assert len(ATTRIBUTE_NAMES) == 125
assert len(set(ATTRIBUTE_NAMES)) == 125


def extract_attributes(
    events_by_user: Mapping[str, Sequence[LogEvent]],
    directory: OrgDirectory,
    config: CalendarConfig | None = None,
    *,
    internal_domain: str = "dtaa.com",
) -> list[AttributeVector]:
    """Build one AttributeVector per directory user, ordered by user id.

    Users appearing in the event stream but not in the directory are an
    error; directory users without events get the all-zero defaults.
    """
    config = config or CalendarConfig()
    unknown = sorted(set(events_by_user) - set(directory.users))
    if unknown:
        raise ValueError(f"events reference users absent from the directory: {unknown}")
    codes = encode_categoricals(directory)
    vectors = []
    for uid in directory.sorted_user_ids():
        record = directory.users[uid]
        org_codes = {f: codes[f][getattr(record, f)] for f in CATEGORICAL_FIELDS}
        row = _attribute_row(events_by_user.get(uid, ()), org_codes, config, internal_domain)
        vectors.append(AttributeVector(uid, np.asarray(row.values, dtype=np.float64)))
    return vectors


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
    import csv

    matrix = np.asarray(matrix)
    if matrix.shape != (len(user_ids), len(names)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {len(user_ids)} users x {len(names)} attributes"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", *names])
        for uid, row in zip(user_ids, matrix):
            writer.writerow([uid, *(repr(float(x)) for x in row)])


def read_nodes_csv(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Read a nodes table; returns (user_ids, matrix, attribute names)."""
    with open(path, newline="") as fh:
        rows_in = _csv_rows(fh, str(path))
        _, header = next(rows_in, (0, None))
        if not header or header[0] != "user_id":
            raise ValueError(f"{path}: expected a nodes table starting with user_id")
        names = header[1:]
        users: list[str] = []
        rows: list[list[float]] = []
        for _, row in rows_in:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row width {len(row)} != header width {len(header)}")
            users.append(row[0])
            rows.append([float(x) for x in row[1:]])
    matrix = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return users, matrix, names
