"""Parsing of activity CSVs and LDAP directory snapshots."""

from __future__ import annotations

import csv
import io
import os
import random
import re
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from insiderank import ingest
from insiderank.ingest import (
    FILE_KINDS,
    LOG_LAYOUTS,
    EventTable,
    OrgDirectory,
    RejectReport,
    SchemaError,
    UserRecord,
    load_directory_csv,
    load_ldap_snapshots,
    parse_log_file,
    read_log_csv,
    read_table,
    write_directory_csv,
    write_log_file,
)

from event_records import EmailPayload, assert_payload_layout, events_of


def test_logon_row_hand_parsed():
    lines = [
        "id,date,user,pc,activity",
        "{X1},01/02/2010 08:31:00,U1,PC-1,Logon",
    ]
    events = events_of(parse_log_file(lines, "logon"))
    assert len(events) == 1
    e = events[0]
    assert e.event_id == "{X1}"
    assert e.timestamp == datetime(2010, 1, 2, 8, 31, 0)  # month/day/year order
    assert e.user == "U1"
    assert e.pc == "PC-1"
    assert e.kind == "logon"
    assert e.payload is None


def test_logoff_and_device_activities_map_to_kinds():
    logons = events_of(parse_log_file(
        ["id,date,user,pc,activity", "a,01/02/2010 17:00:00,U1,PC-1,Logoff"], "logon"
    ))
    assert logons[0].kind == "logoff"
    device = events_of(parse_log_file(
        [
            "id,date,user,pc,activity",
            "b,01/02/2010 09:00:00,U1,PC-1,Connect",
            "c,01/02/2010 09:30:00,U1,PC-1,Disconnect",
        ],
        "device",
    ))
    assert [e.kind for e in device] == ["device_connect", "device_disconnect"]


def test_email_recipient_lists_split_on_semicolons():
    lines = [
        "id,date,user,pc,to,cc,bcc,from,size,attachments,content",
        'e1,01/05/2010 10:00:00,U1,PC-1,"a@dtaa.com; b@dtaa.com",c@dtaa.com,,u1@dtaa.com,2048,1,hello there',
    ]
    events = events_of(parse_log_file(lines, "email"))
    assert len(events) == 1
    p = events[0].payload
    assert isinstance(p, EmailPayload)
    assert p.to == ("a@dtaa.com", "b@dtaa.com")
    assert p.cc == ("c@dtaa.com",)
    assert p.bcc == ()
    assert p.sender == "u1@dtaa.com"
    assert p.size == 2048
    assert p.attachments == 1
    assert p.recipients() == ("a@dtaa.com", "b@dtaa.com", "c@dtaa.com")


def test_header_matching_is_name_based_and_case_insensitive():
    # Shuffled column order, extra column, odd capitalization.
    lines = [
        "Activity,USER,id,PC,extra,Date",
        "Logon,U9,x,PC-3,junk,02/01/2011 07:59:00",
    ]
    events = events_of(parse_log_file(lines, "logon"))
    assert events[0].user == "U9"
    assert events[0].timestamp == datetime(2011, 2, 1, 7, 59)


def test_missing_column_raises_schema_error_naming_expected():
    with pytest.raises(SchemaError) as err:
        parse_log_file(["id,date,user,pc", "x,01/02/2010 08:00:00,U1,PC-1"], "logon")
    assert "activity" in str(err.value)
    assert "expected" in str(err.value)


def test_malformed_rows_rejected_not_fatal():
    lines = [
        "id,date,user,pc,activity",
        "a,01/02/2010 08:00:00,U1,PC-1,Logon",
        "b,not-a-date,U1,PC-1,Logon",
        "c,01/02/2010 08:05:00,,PC-1,Logon",
        "d,01/02/2010 08:06:00,U1,PC-1,Telnet",
        "e,01/02/2010 08:07:00",
        "f,01/02/2010 08:10:00,U2,PC-2,Logoff",
    ]
    rejects = RejectReport()
    events = events_of(parse_log_file(lines, "logon", source="logon.csv", rejects=rejects))
    assert [e.event_id for e in events] == ["a", "f"]
    assert len(rejects) == 4
    files, lines_, reasons = zip(*rejects.rows)
    assert set(files) == {"logon.csv"}
    assert lines_ == (3, 4, 5, 6)  # 1-based physical lines, header is line 1
    assert any("timestamp" in r for r in reasons)
    assert any("empty user" in r for r in reasons)
    assert any("activity" in r for r in reasons)
    assert any("fields" in r for r in reasons)


def test_events_plus_rejects_account_for_every_data_row():
    rng = random.Random(7)
    good = "{id},01/{day:02d}/2010 {hh:02d}:{mm:02d}:00,U{u},PC-{u},{act}"
    lines = ["id,date,user,pc,activity"]
    n_rows = 200
    for i in range(n_rows):
        if rng.random() < 0.3:
            lines.append(f"bad{i},garbage,U1,PC-1,Logon")
        else:
            lines.append(
                good.format(
                    id=i,
                    day=rng.randint(1, 28),
                    hh=rng.randint(0, 23),
                    mm=rng.randint(0, 59),
                    u=rng.randint(1, 9),
                    act=rng.choice(["Logon", "Logoff"]),
                )
            )
    rejects = RejectReport()
    events = parse_log_file(lines, "logon", rejects=rejects)
    assert len(events) + len(rejects) == n_rows


def _assert_same_table(table, expected):
    """Every field of two event tables is equal, with equal types."""
    for name, value in vars(expected).items():
        other = getattr(table, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and np.array_equal(other, value), name
            assert list(map(type, other.tolist())) == list(map(type, value.tolist())), name
        else:
            assert other == value, name


def test_batch_size_does_not_change_the_parse(monkeypatch, tmp_path):
    # runs of rejects fill whole batches when they are small; events, code
    # tables, reject order and the written file must not depend on where
    # batches split
    rng = random.Random(11)
    lines = ["id,date,user,pc,to,cc,bcc,from,size,attachments,content"]
    for i in range(300):
        stamp = rng.choice(["01/04/2010 09:00:00", "1/4/2010 9:00:01", "02/30/2010 09:00:00"])
        size = rng.choice(["10", "x", str(2**70)])
        user = rng.choice(["U1", "U2", ""]) if i % 50 > 20 else "U3"
        rcpt = rng.choice(["a@dtaa.com;b@x.org", "", " c@dtaa.com ;;a@dtaa.com"])
        sender = rng.choice(["u@dtaa.com", "b@x.org", f"s{i % 9}@dtaa.com"])
        lines.append(f"e{i},{stamp},{user},PC-{i % 4},{rcpt},{rcpt[:5]},,{sender},{size},1,")
        if i % 37 == 0:
            lines.append(f"short{i},01/04/2010")
    whole_rejects = RejectReport()
    whole = parse_log_file(lines, "email", rejects=whole_rejects)
    monkeypatch.setattr(ingest, "_BATCH_ROWS", 7)
    batched_rejects = RejectReport()
    batched = parse_log_file(lines, "email", rejects=batched_rejects)
    assert events_of(batched) == events_of(whole) and len(whole) > 0
    assert batched_rejects == whole_rejects and len(whole_rejects) > 0
    assert [line for _, line, _ in whole_rejects.rows] == sorted(
        line for _, line, _ in whole_rejects.rows)
    write_log_file(tmp_path / "batched.csv", whole, "email")
    monkeypatch.undo()
    write_log_file(tmp_path / "whole.csv", whole, "email")
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    # the byte tokenizer gives csv.reader's table and rejects, also when
    # reads of a few bytes split rows and CRLF pairs, and when a quoted row
    # hands the rest of the file to csv.reader
    quoted = 'q1,01/04/2010 09:00:00,U9,PC-9,"a@dtaa.com,",,,n@dtaa.com,1,1,"two\r\nlines"'
    path = tmp_path / "email.csv"
    for rows in (lines, lines[:200] + [quoted] + lines[200:]):
        text = "".join(row + "\r\n" for row in rows)
        path.write_bytes(text.encode())
        for batch_rows, chunk_bytes in ((ingest._BATCH_ROWS, ingest._CHUNK_BYTES), (7, 3)):
            monkeypatch.setattr(ingest, "_BATCH_ROWS", batch_rows)
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
            expected_rejects, rejects = RejectReport(), RejectReport()
            expected = parse_log_file(io.StringIO(text, newline=""), "email", source=path.name,
                                      rejects=expected_rejects)
            _assert_same_table(read_log_csv(path, "email", rejects=rejects), expected)
            assert rejects == expected_rejects
            monkeypatch.undo()


def test_a_log_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "logon.csv"
    # a bare \r ends a line, and a quoted field can span two
    path.write_bytes(b"id,date,user,pc,activity\r\n"
                     b"x\rb,01/02/2010 08:00:00,U\xc3\xa9,PC-1,Logon\r\n"
                     b'a,01/02/2010 08:00:00,U1,PC-1,"Log\r\non"\r\n'
                     b"y\rc,01/02/2010 08:00:00,U\xff,PC-1,Logon\r\n")
    with pytest.raises(ValueError, match=r"^logon\.csv:7: byte 0xff is not UTF-8 "
                                         r"\(invalid start byte\)$"):
        read_log_csv(path, "logon")


def test_lone_surrogates_in_text_lines_are_kept():
    # text decoded with errors="surrogateescape" holds them
    lines = ["id,date,user,pc,activity", "e\udcff,01/04/2010 09:00:00,U\udcff,PC-1,Logon"]
    (event,) = events_of(parse_log_file(lines, "logon"))
    assert (event.event_id, event.user) == ("e\udcff", "U\udcff")


def test_a_line_longer_than_the_field_size_limit_goes_to_csv_reader(tmp_path):
    # every row is longer than the limit, and the last has a field longer
    # than it too, which csv.reader refuses
    rows = ["id,date,user,pc,filename,content",
            "f1,01/02/2010 08:00:00,U1,PC-1,a.doc,",
            "f2,01/02/2010 08:00:00,U1,PC-1,b.doc,0123456789abcdefghij",
            "f3,01/02/2010 08:00:00,U1,PC-1,c.doc,0123456789abcdefghijk"]
    path = tmp_path / "file.csv"
    limit = csv.field_size_limit(20)
    try:
        path.write_text("".join(row + "\n" for row in rows[:3]))
        assert events_of(read_log_csv(path, "file")) == events_of(parse_log_file(rows[:3], "file"))
        path.write_text("".join(row + "\n" for row in rows))
        with pytest.raises(ValueError, match=r"^file\.csv:4: field larger than field limit"):
            read_log_csv(path, "file")
    finally:
        csv.field_size_limit(limit)


def test_round_trip_parse_write_parse(tmp_path):
    email_lines = [
        "id,date,user,pc,to,cc,bcc,from,size,attachments,content",
        "e1,03/04/2010 11:22:00,U1,PC-1,a@dtaa.com;b@x.org,,c@dtaa.com,u1@dtaa.com,512,0,note",
        "e2,03/04/2010 12:00:00,U2,PC-2,u1@dtaa.com,,,u2@dtaa.com,77,2,",
    ]
    first = parse_log_file(email_lines, "email")
    out = tmp_path / "email.csv"
    write_log_file(out, first, "email")
    second = read_log_csv(out, "email")
    assert events_of(first) == events_of(second)

    file_lines = [
        "id,date,user,pc,filename,content",
        "f1,03/04/2010 13:00:00,U1,PC-1,notes.txt,0xdeadbeef",
    ]
    first = parse_log_file(file_lines, "file")
    out = tmp_path / "file.csv"
    write_log_file(out, first, "file")
    assert events_of(read_log_csv(out, "file")) == events_of(first)

    logon_lines = [
        "id,date,user,pc,activity",
        "l1,03/04/2010 08:00:00,U1,PC-1,Logon",
        "l2,03/04/2010 17:30:00,U1,PC-1,Logoff",
    ]
    first = parse_log_file(logon_lines, "logon")
    out = tmp_path / "logon.csv"
    write_log_file(out, first, "logon")
    assert events_of(read_log_csv(out, "logon")) == events_of(first)

    device_lines = [
        "id,date,user,pc,activity",
        "d1,03/04/2010 09:00:00,U1,PC-1,Connect",
        "d2,03/04/2010 09:15:00,U1,PC-1,Disconnect",
    ]
    first = parse_log_file(device_lines, "device")
    out = tmp_path / "device.csv"
    write_log_file(out, first, "device")
    assert events_of(read_log_csv(out, "device")) == events_of(first)


# One canonical file per log kind, as write_log_file lays it out: columns in
# LOG_LAYOUTS order, CRLF line ends, and an empty content column.
CANONICAL = {
    "logon": ["id,date,user,pc,activity",
              "l1,03/04/2010 08:00:00,U1,PC-1,Logon",
              "l2,03/04/2010 17:30:00,U2,PC-2,Logoff"],
    "device": ["id,date,user,pc,activity",
               "d1,03/04/2010 09:00:00,U1,PC-1,Connect",
               "d2,03/04/2010 09:15:00,U1,PC-1,Disconnect"],
    "email": ["id,date,user,pc,to,cc,bcc,from,size,attachments,content",
              "e1,03/04/2010 11:22:00,U1,PC-1,a@dtaa.com;b@x.org,,c@dtaa.com,u1@dtaa.com,512,0,",
              "e2,03/04/2010 12:00:00,U2,PC-2,u1@dtaa.com,d@dtaa.com,,,77,2,"],
    "file": ["id,date,user,pc,filename,content",
             "f1,03/04/2010 13:00:00,U1,PC-1,notes.txt,",
             "f2,12/31/2010 23:59:59,U2,PC-2,\"a,b.doc\","],
}


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_canonical_log_is_written_back_byte_for_byte(tmp_path, kind):
    text = "".join(line + "\r\n" for line in CANONICAL[kind])
    source = tmp_path / LOG_LAYOUTS[kind].file_name
    source.write_bytes(text.encode())
    rejects = RejectReport()
    events = read_log_csv(source, kind, rejects=rejects)
    assert len(events) == len(CANONICAL[kind]) - 1 and not rejects.rows
    copy = tmp_path / "copy.csv"
    write_log_file(copy, events, kind)
    assert copy.read_bytes() == source.read_bytes()


@pytest.mark.parametrize("year", [1, 999, 2010, 9999])
def test_written_timestamps_parse_back_in_every_year(tmp_path, year):
    lines = ["id,date,user,pc,activity", f"a,12/31/{year:04d} 23:59:59,U1,PC-1,Logon"]
    table = parse_log_file(lines, "logon")
    write_log_file(tmp_path / "logon.csv", table, "logon")
    rejects = RejectReport()
    again = read_log_csv(tmp_path / "logon.csv", "logon", rejects=rejects)
    assert not rejects.rows and events_of(again) == events_of(table)
    assert (tmp_path / "logon.csv").read_text().splitlines()[1] == lines[1]


def test_event_ids_are_one_string_with_offsets():
    table = parse_log_file(CANONICAL["email"], "email")
    assert table.ids == "e1e2"
    assert table.id_ptr.tolist() == [0, 2, 4]
    both = EventTable.concat([table, parse_log_file(CANONICAL["file"], "file")])
    assert both.ids == "e1e2f1f2" and both.id_ptr.tolist() == [0, 2, 4, 6, 8]


def test_payload_columns_hold_one_entry_per_row_of_their_kind():
    parsed = {kind: parse_log_file(CANONICAL[kind], kind) for kind in FILE_KINDS}
    for kind in ("logon", "device"):
        table = parsed[kind]
        assert len(table) == 2
        assert [len(c) for c in (table.sender, table.recipients, table.size,
                                 table.attachments, table.filename)] == [0] * 5
        assert table.recipient_ptr.tolist() == [0]
        assert table.addresses == [] and table.filenames == []
    # kinds interleaved, so each payload is read back by position among its kind
    order = ["email", "logon", "file", "device", "email", "file"]
    joined = EventTable.concat([parsed[kind] for kind in order])
    assert events_of(joined) == [e for kind in order for e in events_of(parsed[kind])]
    for table in (*parsed.values(), joined, EventTable.empty()):
        assert_payload_layout(table)


def test_concat_after_a_table_without_rows():
    emails = parse_log_file(CANONICAL["email"], "email")
    for tables in ([EventTable.empty(), emails], [emails, EventTable.empty(), emails]):
        joined = EventTable.concat(tables)
        assert events_of(joined) == [e for t in tables for e in events_of(t)]
        assert joined.id_ptr.tolist() == list(range(0, 2 * len(joined) + 1, 2))


def test_empty_table_writes_a_header_only(tmp_path):
    empty = EventTable.concat([])
    assert len(empty) == 0 and empty.ids == "" and empty.id_ptr.tolist() == [0]
    write_log_file(tmp_path / "email.csv", empty, "email")
    assert (tmp_path / "email.csv").read_bytes() == (CANONICAL["email"][0] + "\r\n").encode()


def test_a_log_refuses_events_of_another_kind(tmp_path):
    emails = parse_log_file(CANONICAL["email"], "email")
    with pytest.raises(ValueError, match=r"a logon log cannot hold \['email'\] events"):
        write_log_file(tmp_path / "logon.csv", emails, "logon")


@pytest.mark.parametrize("kind, activity", [("logon", "Connect"), ("logon", "disconnect"),
                                            ("device", "Logon"), ("device", "LOGOFF")])
def test_activity_of_the_other_log_is_unknown(kind, activity):
    rejects = RejectReport()
    events = parse_log_file(
        ["id,date,user,pc,activity", f"a,01/02/2010 09:00:00,U1,PC-1,{activity}"], kind,
        source="x.csv", rejects=rejects,
    )
    assert events_of(events) == []
    assert rejects.rows == [("x.csv", 2, f"unknown activity {activity!r}")]
    assert rejects.classes == ["unknown activity"]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        parse_log_file(["id,date,user,pc,activity"], "http")


def _snapshot(rows):
    header = "employee_name,user_id,email,role,projects,functional_unit,department,team,supervisor"
    return "\n".join([header] + rows) + "\n"


def test_ldap_merge_later_snapshot_wins(tmp_path):
    ldap = tmp_path / "ldap"
    ldap.mkdir()
    (ldap / "2010-01.csv").write_text(
        _snapshot(
            [
                "Ada Smith,U1,ada@dtaa.com,Engineer,p1,FU1,D1,T1,",
                "Bob Jones,U2,bob@dtaa.com,Analyst,p2,FU1,D1,T1,Ada Smith",
            ]
        )
    )
    (ldap / "2010-02.csv").write_text(
        _snapshot(
            [
                "Ada Smith,U1,ada@dtaa.com,Manager,p1,FU1,D1,T1,",
                "Cara Diaz,U3,cara@dtaa.com,Engineer,p3,FU2,D2,T2,U1",
            ]
        )
    )
    directory = load_ldap_snapshots(ldap)
    assert len(directory) == 3
    assert directory.users["U1"].role == "Manager"  # later snapshot overrides
    assert directory.users["U2"].supervisor == "U1"  # resolved from employee name
    assert directory.users["U3"].supervisor == "U1"  # already a user id
    assert directory.users["U1"].supervisor is None
    assert directory.email_to_user()["ada@dtaa.com"] == "U1"


def test_ldap_unresolvable_supervisor_is_an_error(tmp_path):
    ldap = tmp_path / "ldap"
    ldap.mkdir()
    (ldap / "2010-01.csv").write_text(
        _snapshot(["Ada Smith,U1,ada@dtaa.com,Engineer,p,FU1,D1,T1,Zed Nobody"])
    )
    with pytest.raises(ValueError):
        load_ldap_snapshots(ldap)


def test_ldap_missing_column_is_schema_error(tmp_path):
    ldap = tmp_path / "ldap"
    ldap.mkdir()
    (ldap / "2010-01.csv").write_text("employee_name,user_id,email\nAda,U1,a@x\n")
    with pytest.raises(SchemaError):
        load_ldap_snapshots(ldap)


@pytest.mark.parametrize("uid, reason", [("U1", "duplicate user_id 'U1'"),
                                         ("", "empty user_id")])
def test_snapshot_user_id_errors_name_the_line(tmp_path, uid, reason):
    ldap = tmp_path / "ldap"
    ldap.mkdir()
    path = ldap / "2010-01.csv"
    path.write_text(_snapshot(["Ada Smith,U1,ada@dtaa.com,Engineer,p,FU1,D1,T1,",
                               f"Bob Jones,{uid},bob@dtaa.com,Engineer,p,FU1,D1,T1,"]))
    message = f"^{re.escape(f'{path}:3: {reason}')}$"
    with pytest.raises(ValueError, match=message):
        load_ldap_snapshots(ldap)
    with pytest.raises(ValueError, match=message):
        load_directory_csv(path)


def test_duplicate_email_address_is_an_error():
    users = {
        "U1": UserRecord("U1", "Ada", "same@dtaa.com", "R", "F", "D", "T"),
        "U2": UserRecord("U2", "Bob", "same@dtaa.com", "R", "F", "D", "T"),
    }
    with pytest.raises(ValueError):
        OrgDirectory(users).email_to_user()


def test_directory_csv_round_trip(tmp_path):
    users = {
        "U1": UserRecord("U1", "Ada Smith", "ada@dtaa.com", "Manager", "FU1", "D1", "T1"),
        "U2": UserRecord("U2", "Bob Jones", "bob@dtaa.com", "Analyst", "FU1", "D1", "T1", "U1"),
    }
    directory = OrgDirectory(users)
    path = tmp_path / "directory.csv"
    write_directory_csv(path, directory)
    assert load_directory_csv(path) == directory


def test_csv_artifacts_are_utf8_in_any_locale(tmp_path):
    path = tmp_path / "users.csv"
    script = ("import sys; from insiderank.ingest import read_table, write_table; "
              "write_table(sys.argv[1], ['user'], [['\\u00dc3']]); "
              "assert read_table(sys.argv[1], ['user'], list)[1] == [['\\u00dc3']]")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(ingest.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == "user\r\n\u00dc3\r\n".encode("utf-8")
    assert read_table(path, ["user"], list)[1] == [["\u00dc3"]]
