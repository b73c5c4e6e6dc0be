"""Attribute-vector extraction and normalization."""

from __future__ import annotations

from datetime import datetime, time

import numpy as np
import pytest

from insiderank.features import (
    ATTRIBUTE_NAMES,
    CalendarConfig,
    attribute_matrix,
    classify_hours,
    decimal_hour,
    encode_categoricals,
    extract_attributes,
    group_by_user,
    normalize_matrix,
    read_nodes_csv,
    write_nodes_csv,
)
from insiderank.ingest import OrgDirectory, UserRecord

from event_records import EmailPayload, FilePayload, LogEvent, events_of, table_of


def _directory(n=2):
    roles = ["Engineer", "Analyst", "Manager", "Clerk"]
    users = {
        f"U{i}": UserRecord(
            f"U{i}", f"Person {i}", f"u{i}@dtaa.com", roles[i % len(roles)], "FU1", "D1", "T1"
        )
        for i in range(1, n + 1)
    }
    return OrgDirectory(users)


def _logon(uid, stamp, pc="PC-1", kind="logon", eid="x"):
    return LogEvent(eid, datetime.fromisoformat(stamp), uid, pc, kind)


def idx(name):
    return ATTRIBUTE_NAMES.index(name)


def _extract(events_by_user, directory):
    """extract_attributes of the events listed under each user."""
    events = [e for user_events in events_by_user.values() for e in user_events]
    return extract_attributes(group_by_user([table_of(events)]), directory)


def test_attribute_name_list_is_canonical():
    assert len(ATTRIBUTE_NAMES) == 125
    assert len(set(ATTRIBUTE_NAMES)) == 125
    # Spot checks of the documented layout.
    assert ATTRIBUTE_NAMES[0] == "email_recipients_to_max"
    assert "logon_time_ah_avg" in ATTRIBUTE_NAMES
    assert ATTRIBUTE_NAMES[-1] == "file_device_count"
    assert sum(1 for n in ATTRIBUTE_NAMES if n.startswith("file_ratio_")) == 6


def test_business_hours_classification_boundaries():
    config = CalendarConfig()
    assert classify_hours(datetime(2010, 1, 4, 8, 0), config) == "BH"  # Monday, inclusive start
    assert classify_hours(datetime(2010, 1, 4, 16, 59), config) == "BH"
    assert classify_hours(datetime(2010, 1, 4, 17, 0), config) == "AH"  # exclusive end
    assert classify_hours(datetime(2010, 1, 4, 7, 59), config) == "AH"
    assert classify_hours(datetime(2010, 1, 9, 12, 0), config) == "AH"  # Saturday noon
    custom = CalendarConfig(time(9, 30), time(18, 0), frozenset({5, 6}))
    assert classify_hours(datetime(2010, 1, 9, 10, 0), custom) == "BH"


def test_decimal_hours():
    assert decimal_hour(datetime(2010, 1, 4, 9, 30)) == 9.5
    assert decimal_hour(datetime(2010, 1, 4, 23, 45)) == 23.75


def test_logon_time_average_of_8_and_10_is_9():
    directory = _directory()
    events = {
        "U1": [
            _logon("U1", "2010-01-04T08:00:00"),
            _logon("U1", "2010-01-04T10:00:00"),
        ]
    }
    vectors = _extract(events, directory)
    vec = {v.user: v.values for v in vectors}["U1"]
    assert vec[idx("logon_time_all_avg")] == 9.0
    assert vec[idx("logon_time_all_max")] == 10.0
    assert vec[idx("logon_time_all_min")] == 8.0
    # Both logons fall in business hours on a Monday.
    assert vec[idx("logon_time_bh_avg")] == 9.0
    assert vec[idx("logon_time_ah_avg")] == 0.0


def test_daily_counts_use_active_days_only():
    directory = _directory()
    events = {
        "U1": [
            _logon("U1", "2010-01-04T08:00:00"),
            _logon("U1", "2010-01-04T12:00:00"),
            _logon("U1", "2010-01-04T15:00:00"),
            # gap: 2010-01-05 has no logons and must not contribute a zero
            _logon("U1", "2010-01-06T09:00:00"),
        ]
    }
    vec = _extract(events, directory)[0].values
    assert vec[idx("logons_per_day_all_max")] == 3.0
    assert vec[idx("logons_per_day_all_min")] == 1.0
    assert vec[idx("logons_per_day_all_avg")] == 2.0


def test_zero_activity_defaults_to_zero_but_codes_remain():
    directory = _directory(3)
    vectors = extract_attributes(group_by_user(()), directory)
    assert [v.user for v in vectors] == ["U1", "U2", "U3"]
    code_positions = {idx(f"{f}_code") for f in ("role", "functional_unit", "department", "team")}
    for v in vectors:
        for j, value in enumerate(v.values):
            if j not in code_positions:
                assert value == 0.0
    # Lexicographic codes over the observed roles {Analyst, Clerk, Manager}.
    by_user = {v.user: v.values for v in vectors}
    assert by_user["U1"][idx("role_code")] == 0.0  # Analyst
    assert by_user["U3"][idx("role_code")] == 1.0  # Clerk
    assert by_user["U2"][idx("role_code")] == 2.0  # Manager


def test_categorical_codes_are_lexicographic():
    directory = _directory(4)
    codes = encode_categoricals(directory)
    assert codes["role"] == {"Analyst": 0, "Clerk": 1, "Engineer": 2, "Manager": 3}
    assert codes["team"] == {"T1": 0}


def test_email_attributes():
    directory = _directory()
    stamp = datetime(2010, 1, 4, 10, 30)
    def email(eid, to, cc, bcc, size, attachments, pc="PC-1"):
        return LogEvent(
            eid, stamp, "U1", pc, "email",
            EmailPayload("u1@dtaa.com", to, cc, bcc, size, attachments),
        )

    events = {
        "U1": [
            email("e1", ("u2@dtaa.com", "x@evil.org"), ("u2@dtaa.com",), (), 100, 0),
            email("e2", ("u2@dtaa.com",), (), ("y@evil.org",), 300, 2, pc="PC-9"),
        ]
    }
    vec = _extract(events, directory)[0].values
    assert vec[idx("email_recipients_to_max")] == 2.0
    assert vec[idx("email_recipients_to_min")] == 1.0
    assert vec[idx("email_recipients_cc_avg")] == 0.5
    assert vec[idx("email_size_avg")] == 200.0
    assert vec[idx("email_attachments_max")] == 2.0
    assert vec[idx("email_send_time_avg")] == 10.5
    assert vec[idx("email_device_count")] == 2.0
    assert vec[idx("email_address_count")] == 1.0
    assert vec[idx("email_internal_contacts")] == 1.0  # u2@dtaa.com once, deduplicated
    assert vec[idx("email_external_contacts")] == 2.0


def test_file_type_ratios():
    directory = _directory()
    stamp = "2010-01-04T11:00:00"
    files = []
    for i in range(3):
        files.append(
            LogEvent(f"f{i}", datetime.fromisoformat(stamp), "U1", "PC-1", "file_copy",
                     FilePayload(f"report{i}.doc"))
        )
    for i, ext in enumerate(["exe"] * 2 + ["jpg"] * 2 + ["pdf", "txt", "zip"]):
        files.append(
            LogEvent(f"g{i}", datetime.fromisoformat(stamp), "U1", "PC-1", "file_copy",
                     FilePayload(f"blob{i}.{ext}"))
        )
    vec = _extract({"U1": files}, directory)[0].values
    assert vec[idx("file_ratio_doc")] == pytest.approx(0.3)
    ratio_sum = sum(vec[idx(f"file_ratio_{e}")] for e in ("doc", "exe", "jpg", "pdf", "txt", "zip"))
    assert ratio_sum == pytest.approx(1.0)

    # Unknown extensions enlarge the denominator but get no column.
    files.append(
        LogEvent("h0", datetime.fromisoformat(stamp), "U1", "PC-1", "file_copy",
                 FilePayload("weird.xyz"))
    )
    vec = _extract({"U1": files}, directory)[0].values
    assert vec[idx("file_ratio_doc")] == pytest.approx(3 / 11)


def test_usb_attributes_count_connects_and_devices():
    directory = _directory()
    mk = lambda eid, stamp, pc, kind: LogEvent(eid, datetime.fromisoformat(stamp), "U1", pc, kind)
    events = {
        "U1": [
            mk("d1", "2010-01-04T09:00:00", "PC-1", "device_connect"),
            mk("d2", "2010-01-04T09:40:00", "PC-1", "device_disconnect"),
            mk("d3", "2010-01-04T22:00:00", "PC-2", "device_connect"),
            mk("d4", "2010-01-05T10:00:00", "PC-3", "device_connect"),
        ]
    }
    vec = _extract(events, directory)[0].values
    assert vec[idx("usb_uses_per_day_all_max")] == 2.0  # two connects on Jan 4
    assert vec[idx("usb_uses_per_day_all_min")] == 1.0
    assert vec[idx("usb_uses_per_day_bh_avg")] == 1.0
    assert vec[idx("usb_uses_per_day_ah_avg")] == 1.0  # the 22:00 connect
    assert vec[idx("usb_use_time_ah_max")] == 22.0
    assert vec[idx("usb_device_count")] == 3.0
    assert vec[idx("usb_devices_per_day_max")] == 2.0
    assert vec[idx("usb_active_days")] == 2.0


def test_times_stay_within_a_day():
    rngs = np.random.default_rng(3)
    directory = _directory()
    events = {
        "U1": [
            _logon("U1", f"2010-01-{int(d):02d}T{int(h):02d}:{int(m):02d}:00")
            for d, h, m in zip(
                rngs.integers(1, 28, 40), rngs.integers(0, 24, 40), rngs.integers(0, 60, 40)
            )
        ]
    }
    vec = _extract(events, directory)[0].values
    for name in ATTRIBUTE_NAMES:
        if "_time_" in name:
            assert 0.0 <= vec[idx(name)] < 24.0


def test_unknown_event_user_is_an_error():
    with pytest.raises(ValueError):
        _extract({"GHOST": [_logon("GHOST", "2010-01-04T08:00:00")]}, _directory())


def test_group_by_user():
    events = [
        _logon("U2", "2010-01-04T08:00:00", eid="a"),
        _logon("U1", "2010-01-04T09:00:00", eid="b"),
        _logon("U2", "2010-01-04T10:00:00", eid="c"),
    ]
    grouped = group_by_user([table_of(events)])
    assert grouped.users == ["U1", "U2"]
    rows = grouped.order[grouped.user[grouped.order] == 1]
    assert [events_of(grouped.table)[r].event_id for r in rows] == ["a", "c"]


def test_normalize_matrix_basics():
    m = np.array([[2.0, 5.0], [4.0, 5.0], [6.0, 5.0]])
    out = normalize_matrix(m)
    assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0])  # constant column
    assert np.array_equal(normalize_matrix(out), out)  # idempotent


def test_normalize_matrix_random_range_and_idempotence():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(30, 8)) * rng.integers(1, 100, size=8)
    out = normalize_matrix(m)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.array_equal(normalize_matrix(out), out)


def test_nodes_csv_round_trip(tmp_path):
    directory = _directory(3)
    vectors = _extract({"U1": [_logon("U1", "2010-01-04T08:31:00")]}, directory)
    users, matrix = attribute_matrix(vectors)
    norm = normalize_matrix(matrix)
    path = tmp_path / "nodes.norm.csv"
    write_nodes_csv(path, users, norm)
    users2, matrix2, names2 = read_nodes_csv(path)
    assert users2 == users
    assert names2 == list(ATTRIBUTE_NAMES)
    assert np.array_equal(matrix2, norm)
