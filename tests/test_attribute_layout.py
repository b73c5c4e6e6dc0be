"""Exact-equivalence oracle for the attribute layout.

``_build_names`` and ``_user_vector`` below are the attribute code that
wrote the 125 column names and the values in two separate lists, one event
at a time, kept verbatim.  ``features._attribute_columns`` computes every
user's values column by column and appends each column's name and values
together; its names must equal the reference names, and every vector must
match the reference bit for bit.
"""

from __future__ import annotations

import random
from datetime import datetime, time, timedelta
from typing import Mapping, Sequence

import numpy as np
import pytest

from insiderank import features
from insiderank.features import (
    CalendarConfig,
    classify_hours,
    decimal_hour,
    encode_categoricals,
    extract_attributes,
    group_by_user,
)
from insiderank.ingest import (
    FILE_KINDS,
    LOG_LAYOUTS,
    OrgDirectory,
    UserRecord,
    load_ldap_snapshots,
    read_log_csv,
)
from insiderank.synth import SynthSpec, generate_logs

from event_records import EmailPayload, FilePayload, LogEvent, events_of, table_of

# --- reference: the attribute layout before names and values were built together

_SCOPES = ("all", "bh", "ah")
_STATS = ("max", "min", "avg")
FILE_TYPES = ("doc", "exe", "jpg", "pdf", "txt", "zip")
CATEGORICAL_FIELDS = ("role", "functional_unit", "department", "team")


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


def reference_vectors(events_by_user, directory, config, internal_domain):
    """``extract_attributes`` as it was, as {user: vector}."""
    codes = encode_categoricals(directory)
    return {
        uid: _user_vector(events_by_user.get(uid, ()), directory.users[uid], codes, config,
                          internal_domain)
        for uid in directory.sorted_user_ids()
    }


# --- the checks

DOMAIN = "dtaa.com"
ROLES = ("Engineer", "Analyst", "Manager")


def _directory(n):
    return OrgDirectory({
        f"U{i}": UserRecord(f"U{i}", f"Person {i}", f"u{i}@dtaa.com", ROLES[i % 3],
                            f"FU{i % 2}", "D1", f"T{i % 4}")
        for i in range(1, n + 1)
    })


def assert_same_vectors(grouped, events, directory, config=CalendarConfig(), domain=DOMAIN):
    """``grouped`` is group_by_user's grouping of the tables of ``events``,
    which the reference gets grouped by user in their order."""
    events_by_user = {}
    for e in events:
        events_by_user.setdefault(e.user, []).append(e)
    want = reference_vectors(events_by_user, directory, config, domain)
    got = extract_attributes(grouped, directory, config, internal_domain=domain)
    assert [v.user for v in got] == list(want)
    for v in got:
        assert v.values.dtype == np.float64
        mismatched = [name for name, a, b in zip(ATTRIBUTE_NAMES, v.values, want[v.user])
                      if np.float64(a).tobytes() != np.float64(b).tobytes()]
        assert not mismatched, (v.user, mismatched)


# Addresses: internal, internal in mixed case, an internal subdomain, a
# look-alike external domain, external in mixed case, and no domain at all.
ADDRESSES = ("u2@dtaa.com", "U2@DTAA.com", "x@Sub.dtaa.com", "y@notdtaa.com",
             "Ext@Evil.ORG", "ext@evil.org", "nobody")
# Every known extension, in mixed case too, an unknown one and none.
FILENAMES = tuple(f"f.{ext}" for ext in FILE_TYPES) + ("REPORT.PDF", "a.b.Zip", "x.xyz", "README")
# Business hours on weekdays (both edges), after hours on weekdays, and
# weekend hours inside the business window.
STAMPS = (
    datetime(2010, 1, 4, 8, 0), datetime(2010, 1, 4, 16, 59), datetime(2010, 1, 4, 17, 0),
    datetime(2010, 1, 4, 7, 59), datetime(2010, 1, 5, 23, 45), datetime(2010, 1, 9, 12, 0),
    datetime(2010, 1, 10, 9, 15), datetime(2010, 1, 13, 0, 0), datetime(2010, 1, 25, 13, 30),
)
KINDS = ("logon", "logoff", "device_connect", "device_disconnect", "email", "file_copy")


def _event(rng, eid, uid, stamp, kind):
    pc = f"PC-{rng.randint(1, 4)}"
    payload = None
    if kind == "email":
        boxes = [tuple(rng.sample(ADDRESSES, rng.randint(0, 3))) for _ in range(3)]
        sender = rng.choice(("", f"{uid.lower()}@dtaa.com", f"{uid}@DTAA.COM"))
        payload = EmailPayload(sender, *boxes, rng.randint(0, 90000), rng.randint(0, 4))
    elif kind == "file_copy":
        payload = FilePayload(rng.choice(FILENAMES))
    return LogEvent(eid, stamp, uid, pc, kind, payload)


def every_kind_events(seed, users, n_events):
    """Events of every kind, over hand-picked and random times with gaps
    between active days, in a random order."""
    rng = random.Random(seed)
    events = []
    for k in range(n_events):
        if k < len(STAMPS) * len(KINDS):
            stamp, kind = STAMPS[k // len(KINDS)], KINDS[k % len(KINDS)]
        else:
            day = rng.choice((0, 1, 2, 5, 6, 9, 20, 21, 40))
            stamp = datetime(2010, 1, 4) + timedelta(days=day, minutes=rng.randrange(24 * 60))
            kind = rng.choice(KINDS)
        events.append(_event(rng, f"e{k}", rng.choice(users), stamp, kind))
    rng.shuffle(events)
    return events


def test_attribute_names_match_the_reference():
    assert features.ATTRIBUTE_NAMES == ATTRIBUTE_NAMES


@pytest.mark.parametrize("seed", range(4))
def test_vectors_match_the_reference_on_every_kind_of_event(seed):
    directory = _directory(5)
    events = every_kind_events(seed, ["U1", "U2", "U3", "U4"], 400)  # U5 has no events
    assert_same_vectors(group_by_user([table_of(events)]), events, directory)


def test_vectors_match_the_reference_under_a_custom_calendar_and_domain():
    directory = _directory(3)
    events = every_kind_events(9, ["U1", "U2", "U3"], 300)
    weekend_shift = CalendarConfig(time(9, 30), time(18, 0), frozenset({5, 6}))
    assert_same_vectors(group_by_user([table_of(events)]), events, directory, weekend_shift,
                        "EVIL.org")


def test_vectors_match_the_reference_on_a_synthetic_corpus(tmp_path):
    spec = SynthSpec(n_users=200, k_clusters=20, size_range=(5, 9), subspace_range=(8, 10),
                     p_in=0.9, p_out=0.05, n_attributes=40, width=0.05, n_outliers=10,
                     rng_seed=1)
    generate_logs(spec, CalendarConfig(), tmp_path, n_days=60)
    # grouped as the pipeline groups its parsed logs, one table per log
    tables = [read_log_csv(tmp_path / LOG_LAYOUTS[kind].file_name, kind) for kind in FILE_KINDS]
    events = [e for table in tables for e in events_of(table)]
    assert len(events) > 50_000
    assert_same_vectors(group_by_user(tables), events, load_ldap_snapshots(tmp_path / "ldap"))


def test_a_row_of_every_kind_of_event_has_the_canonical_names():
    events = every_kind_events(3, ["U1"], 200)
    assert {e.kind for e in events} == set(KINDS)
    columns = features._Columns(group_by_user([table_of(events)]), ["U1"], CalendarConfig())
    features._attribute_columns(columns, np.ones((1, len(CATEGORICAL_FIELDS))), DOMAIN)
    assert tuple(columns.names) == features.ATTRIBUTE_NAMES
    assert len(columns.values) == len(columns.names)
