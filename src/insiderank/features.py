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

``ATTRIBUTE_NAMES`` is the canonical column order used by every artifact that
serializes vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, time
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import EmailPayload, FilePayload, LogEvent, OrgDirectory

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


def _build_names() -> tuple[str, ...]:
    names: list[str] = []

    def scoped(prefix: str) -> None:
        for scope in _SCOPES:
            for stat in _STATS:
                names.append(f"{prefix}_{scope}_{stat}")

    def plain(prefix: str) -> None:
        for stat in _STATS:
            names.append(f"{prefix}_{stat}")

    for box in ("to", "cc", "bcc"):
        plain(f"email_recipients_{box}")
    plain("email_size")
    plain("email_attachments")
    scoped("emails_per_day")
    plain("email_send_time")
    names.append("email_device_count")
    names.append("email_address_count")
    names.append("email_internal_contacts")
    names.append("email_external_contacts")
    names.extend(f"{f}_code" for f in CATEGORICAL_FIELDS)
    scoped("logon_time")
    scoped("logoff_time")
    scoped("logons_per_day")
    scoped("logoffs_per_day")
    plain("logon_devices_per_day")
    scoped("usb_uses_per_day")
    scoped("usb_use_time")
    names.append("usb_device_count")
    plain("usb_devices_per_day")
    names.append("usb_active_days")
    scoped("file_copy_time")
    names.extend(f"file_days_{scope}" for scope in _SCOPES)
    scoped("files_per_day")
    names.extend(f"file_ratio_{ext}" for ext in FILE_TYPES)
    names.append("file_device_count")
    return tuple(names)


ATTRIBUTE_NAMES: tuple[str, ...] = _build_names()
assert len(ATTRIBUTE_NAMES) == 125
assert len(set(ATTRIBUTE_NAMES)) == 125


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


def _scope_filter(events: Sequence[LogEvent], scope: str, config: CalendarConfig):
    if scope == "all":
        return list(events)
    want = "BH" if scope == "bh" else "AH"
    return [e for e in events if classify_hours(e.timestamp, config) == want]


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


def _scoped_time_stats(out: list[float], events: Sequence[LogEvent], config: CalendarConfig) -> None:
    for scope in _SCOPES:
        out.extend(_stats([decimal_hour(e.timestamp) for e in _scope_filter(events, scope, config)]))


def _scoped_daily_stats(out: list[float], events: Sequence[LogEvent], config: CalendarConfig) -> None:
    for scope in _SCOPES:
        out.extend(_stats(_daily_counts(_scope_filter(events, scope, config))))


def _is_internal(address: str, internal_domain: str) -> bool:
    address = address.lower()
    if "@" not in address:
        return False
    domain = address.rsplit("@", 1)[1]
    suffix = internal_domain.lower()
    return domain == suffix or domain.endswith("." + suffix)


def _user_vector(
    events: Sequence[LogEvent],
    record,
    codes: Mapping[str, Mapping[str, int]],
    config: CalendarConfig,
    internal_domain: str,
) -> np.ndarray:
    emails = [e for e in events if e.kind == "email"]
    logons = [e for e in events if e.kind == "logon"]
    logoffs = [e for e in events if e.kind == "logoff"]
    sessions = logons + logoffs
    connects = [e for e in events if e.kind == "device_connect"]
    device_events = [e for e in events if e.kind in ("device_connect", "device_disconnect")]
    files = [e for e in events if e.kind == "file_copy"]

    v: list[float] = []

    # Email: recipient counts per field, size, attachments.
    payloads = [e.payload for e in emails]
    for box in ("to", "cc", "bcc"):
        v.extend(_stats([len(getattr(p, box)) for p in payloads]))
    v.extend(_stats([p.size for p in payloads]))
    v.extend(_stats([p.attachments for p in payloads]))
    _scoped_daily_stats(v, emails, config)
    v.extend(_stats([decimal_hour(e.timestamp) for e in emails]))
    v.append(float(len({e.pc for e in emails})))
    v.append(float(len({p.sender.lower() for p in payloads if p.sender})))
    internal: set[str] = set()
    external: set[str] = set()
    for p in payloads:
        for addr in p.recipients():
            (internal if _is_internal(addr, internal_domain) else external).add(addr.lower())
    v.append(float(len(internal)))
    v.append(float(len(external)))

    # Organisational codes.
    for fname in CATEGORICAL_FIELDS:
        v.append(float(codes[fname][getattr(record, fname)]))

    # Logon / logoff behaviour.
    _scoped_time_stats(v, logons, config)
    _scoped_time_stats(v, logoffs, config)
    _scoped_daily_stats(v, logons, config)
    _scoped_daily_stats(v, logoffs, config)
    v.extend(_stats(_daily_device_counts(sessions)))

    # Removable media; a "usage" is a connect event.
    _scoped_daily_stats(v, connects, config)
    _scoped_time_stats(v, connects, config)
    v.append(float(len({e.pc for e in device_events})))
    v.extend(_stats(_daily_device_counts(device_events)))
    v.append(float(len({e.timestamp.date() for e in device_events})))

    # File copies.
    _scoped_time_stats(v, files, config)
    for scope in _SCOPES:
        v.append(float(len({e.timestamp.date() for e in _scope_filter(files, scope, config)})))
    _scoped_daily_stats(v, files, config)
    by_ext: dict[str, int] = {}
    for e in files:
        name = e.payload.filename
        ext = name.rsplit(".", 1)[1].lower() if "." in name else ""
        by_ext[ext] = by_ext.get(ext, 0) + 1
    total_files = len(files)
    for ext in FILE_TYPES:
        v.append(by_ext.get(ext, 0) / total_files if total_files else 0.0)
    v.append(float(len({e.pc for e in files})))

    vec = np.asarray(v, dtype=np.float64)
    assert vec.shape == (len(ATTRIBUTE_NAMES),)
    return vec


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
        events = events_by_user.get(uid, ())
        vectors.append(
            AttributeVector(uid, _user_vector(events, directory.users[uid], codes, config, internal_domain))
        )
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
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "user_id":
            raise ValueError(f"{path}: expected a nodes table starting with user_id")
        names = header[1:]
        users: list[str] = []
        rows: list[list[float]] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row width {len(row)} != header width {len(header)}")
            users.append(row[0])
            rows.append([float(x) for x in row[1:]])
    matrix = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return users, matrix, names
