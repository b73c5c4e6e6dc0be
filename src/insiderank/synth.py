"""Synthetic attributed graphs and log corpora with planted structure.

`generate_attributed_graph` plants k disjoint vertex groups, each densified
to a quasi-clique (gamma >= 0.6) and coherent (value range <= width) in a
randomly chosen attribute subspace, on top of uniform attribute noise and
background edges.  Outlier vertices are wired into one host group's topology
but carry values far outside that group's subspace ranges; their ids form
the ground truth.  `generate_logs` turns the same planted structure into a
an activity-log corpus in the ingest schema, where group members share
behaviour profiles and outliers log on heavily after hours.  Its draw loop
appends plain ints and strings to per-log columns; each log is then put in
time order as one :class:`~insiderank.ingest.EventTable` and written with
:func:`~insiderank.ingest.write_log_file`.

Everything is driven by a single numpy Generator seeded from the spec, with
a fixed draw order, so equal specs reproduce outputs exactly (log files
byte for byte).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import _connected, quasi_clique_gamma
from .evaluation import GroundTruth, write_ground_truth
from .features import FILE_TYPES, CalendarConfig
from .graph import AttributedGraph
from .ingest import (
    EVENT_KINDS,
    LOG_LAYOUTS,
    EventTable,
    OrgDirectory,
    UserRecord,
    _intern,
    _joined,
    write_directory_csv,
    write_log_file,
)

__all__ = [
    "GAMMA_FLOOR",
    "PlantedCluster",
    "SynthCorpus",
    "SynthSpec",
    "generate_attributed_graph",
    "generate_attributed_graph_detailed",
    "generate_logs",
]

# Planted groups are repaired until they reach this quasi-clique density.
GAMMA_FLOOR = 0.6


@dataclass(frozen=True)
class SynthSpec:
    n_users: int
    k_clusters: int
    size_range: tuple[int, int]
    subspace_range: tuple[int, int]
    p_in: float
    p_out: float
    n_attributes: int
    width: float
    n_outliers: int
    rng_seed: int

    def __post_init__(self) -> None:
        lo, hi = self.size_range
        s_lo, s_hi = self.subspace_range
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.k_clusters < 0 or self.n_outliers < 0:
            raise ValueError("k_clusters and n_outliers must be non-negative")
        if self.n_attributes < 1:
            raise ValueError("n_attributes must be positive")
        if not (2 <= lo <= hi):
            raise ValueError(f"cluster size range {self.size_range} must satisfy 2 <= lo <= hi")
        if not (1 <= s_lo <= s_hi <= self.n_attributes):
            raise ValueError(
                f"subspace size range {self.subspace_range} must fit in "
                f"{self.n_attributes} attributes"
            )
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("probabilities must satisfy 0 <= p_out < p_in <= 1")
        if not (0.0 <= self.width <= 1.0):
            raise ValueError("width must be within [0, 1]")
        if self.n_outliers > self.n_users:
            raise ValueError("n_outliers cannot exceed n_users")
        if self.k_clusters * hi + self.n_outliers > self.n_users:
            raise ValueError(
                f"infeasible: {self.k_clusters} clusters of up to {hi} users plus "
                f"{self.n_outliers} outliers exceed {self.n_users} users"
            )
        if self.n_outliers > 0:
            if self.k_clusters == 0:
                raise ValueError("outliers need at least one host cluster")
            # deviating values sit >= 2*width from the group centre, so the
            # unit interval must leave room for that on at least one side
            if not (0.0 < self.width < 0.25):
                raise ValueError("outlier injection requires 0 < width < 0.25")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class PlantedCluster:
    members: tuple[int, ...]
    subspace: tuple[int, ...]


def _user_id(i: int) -> str:
    return f"U{i + 1:04d}"


def _gamma_repair(adjacency: np.ndarray, members: Sequence[int]) -> None:
    """Add edges to the boolean ``adjacency`` until the group reaches GAMMA_FLOOR.

    Each round picks the sparsest member (ties: lowest index) and joins it to
    its lowest-index non-neighbour in the group, so repair is deterministic.
    """
    members = sorted(members)
    need = math.ceil(GAMMA_FLOOR * (len(members) - 1))
    while True:
        block = adjacency[np.ix_(members, members)]
        i = int(block.sum(axis=1).argmin())
        if block[i].sum() >= need:
            return
        free = ~block[i]
        free[i] = False
        u, v = members[i], members[int(free.argmax())]
        adjacency[u, v] = adjacency[v, u] = True


def generate_attributed_graph_detailed(
    spec: SynthSpec,
) -> tuple[AttributedGraph, GroundTruth, tuple[PlantedCluster, ...], dict[int, int]]:
    """As generate_attributed_graph, also exposing the planted layout.

    Returns (graph, ground truth, planted clusters, outlier -> host cluster).
    Vertex layout: group members occupy consecutive indices from 0, then the
    outliers, then unstructured background vertices.  Draw order: group
    sizes, noise attribute matrix, per-group subspace/centres/values,
    per-outlier host and values, then one uniform draw per vertex pair.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n, d, w = spec.n_users, spec.n_attributes, spec.width
    lo, hi = spec.size_range
    s_lo, s_hi = spec.subspace_range

    sizes = [int(x) for x in rng.integers(lo, hi + 1, size=spec.k_clusters)]
    attrs = rng.random((n, d))

    group_of = np.full(n, -1, dtype=np.int64)
    host_of = np.full(n, -1, dtype=np.int64)
    planted: list[PlantedCluster] = []
    centers: list[np.ndarray] = []
    start = 0
    for g, size in enumerate(sizes):
        members = tuple(range(start, start + size))
        group_of[list(members)] = g
        s_size = int(rng.integers(s_lo, s_hi + 1))
        dims = np.sort(rng.choice(d, size=s_size, replace=False))
        center = w / 2 + rng.random(s_size) * (1.0 - w)
        attrs[np.ix_(members, dims)] = center + (rng.random((size, s_size)) - 0.5) * w
        planted.append(PlantedCluster(members, tuple(int(x) for x in dims)))
        centers.append(center)
        start += size

    outliers = tuple(range(start, start + spec.n_outliers))
    outlier_hosts: dict[int, int] = {}
    for o in outliers:
        g = int(rng.integers(spec.k_clusters))
        host_of[o] = g
        outlier_hosts[o] = g
        dims = np.array(planted[g].subspace)
        center = centers[g]
        room_right = 1.0 - (center + 2 * w)
        room_left = center - 2 * w
        u = rng.random(len(dims))
        attrs[o, dims] = np.where(
            room_right >= room_left,
            center + 2 * w + u * room_right,
            center - 2 * w - u * room_left,
        )

    is_outlier = np.zeros(n, dtype=bool)
    is_outlier[list(outliers)] = True
    iu, iv = np.triu_indices(n, k=1)
    gu, gv = group_of[iu], group_of[iv]
    same_group = (gu >= 0) & (gu == gv)
    ou, ov = is_outlier[iu], is_outlier[iv]
    into_host = (ou & ~ov & (gv == host_of[iu])) | (ov & ~ou & (gu == host_of[iv]))
    threshold = np.where(
        same_group | into_host,
        spec.p_in,
        np.where(ou | ov, 0.0, spec.p_out),
    )
    keep = rng.random(len(iu)) < threshold
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[iu[keep], iv[keep]] = adjacency[iv[keep], iu[keep]] = True

    # deterministic repairs: every outlier touches its host, every group
    # reaches the quasi-clique floor
    for o in outliers:
        members = planted[outlier_hosts[o]].members
        if not adjacency[o, list(members)].any():
            adjacency[o, members[0]] = adjacency[members[0], o] = True
    for pc in planted:
        _gamma_repair(adjacency, pc.members)

    graph = AttributedGraph(
        user_ids=[_user_id(i) for i in range(n)],
        edges=np.argwhere(np.triu(adjacency)),
        attributes=attrs,
        attribute_names=[f"attr_{j:03d}" for j in range(d)],
    )
    truth = GroundTruth(frozenset(_user_id(o) for o in outliers))
    _self_check(graph, spec, tuple(planted), outlier_hosts)
    return graph, truth, tuple(planted), outlier_hosts


def generate_attributed_graph(spec: SynthSpec) -> tuple[AttributedGraph, GroundTruth]:
    graph, truth, _, _ = generate_attributed_graph_detailed(spec)
    return graph, truth


def _self_check(
    graph: AttributedGraph,
    spec: SynthSpec,
    planted: tuple[PlantedCluster, ...],
    outlier_hosts: Mapping[int, int],
) -> None:
    """Verify the planted structure actually holds in the emitted graph."""
    attrs, adjacency = graph.attributes, graph.adjacency_matrix()
    for g, pc in enumerate(planted):
        members, dims = list(pc.members), list(pc.subspace)
        if quasi_clique_gamma(graph, members) < GAMMA_FLOOR - 1e-12:
            raise RuntimeError(f"self-check: planted cluster {g} misses the gamma floor")
        if not _connected(adjacency[np.ix_(members, members)]):
            raise RuntimeError(f"self-check: planted cluster {g} is disconnected")
        block = attrs[np.ix_(members, dims)]
        if float((block.max(axis=0) - block.min(axis=0)).max()) > spec.width + 1e-12:
            raise RuntimeError(f"self-check: planted cluster {g} is not coherent")
    for o, g in outlier_hosts.items():
        members, dims = list(planted[g].members), list(planted[g].subspace)
        block = attrs[np.ix_(members + [o], dims)]
        if float((block.max(axis=0) - block.min(axis=0)).max()) <= spec.width:
            raise RuntimeError(f"self-check: outlier {o} does not deviate from cluster {g}")
        if not adjacency[graph.index[_user_id(o)], members].any():
            raise RuntimeError(f"self-check: outlier {o} is not wired into cluster {g}")


# ---------------------------------------------------------------------------
# log corpus generation


@dataclass(frozen=True)
class _Profile:
    logons: int  # business-hours logons per workday
    morning: float  # first-logon decimal hour
    emails: int
    files: int
    usb: int
    ah_logons: int = 0  # after-hours logons per calendar day


def _draw_profile(rng: np.random.Generator) -> _Profile:
    return _Profile(
        logons=int(rng.integers(1, 4)),
        morning=8.25 + float(rng.random()) * 1.25,
        emails=int(rng.integers(1, 4)),
        files=int(rng.integers(0, 3)),
        usb=int(rng.integers(0, 2)),
    )


class SynthCorpus(NamedTuple):
    """What :func:`generate_logs` wrote: the users, every file, and the
    number of rows in each log, keyed by file name."""

    directory: OrgDirectory
    paths: tuple[Path, ...]
    rows: dict[str, int]


def generate_logs(
    spec: SynthSpec,
    calendar: CalendarConfig,
    out_dir: str | Path,
    *,
    n_days: int = 20,
    silent_users: Iterable[str] = (),
) -> SynthCorpus:
    """Write a synthetic log corpus reflecting the spec's planted structure.

    Emits logon/device/email/file CSVs, an LDAP snapshot directory and
    ground_truth.txt under out_dir, and returns the directory of users with
    the paths of the files written.  Group members share an activity profile
    and email each other (reproducing the planted communities as graph
    edges); outliers follow their host group's profile but add heavy
    after-hours logons.  Users listed in silent_users emit no events at all.
    """
    if n_days < 1:
        raise ValueError("n_days must be positive")
    start_date = date(2010, 1, 4)  # a Monday; every corpus starts on it
    silent = set(silent_users)

    _, truth, planted, outlier_hosts = generate_attributed_graph_detailed(spec)
    rng = np.random.default_rng((spec.rng_seed, 97))
    n = spec.n_users
    group_of = {m: g for g, pc in enumerate(planted) for m in pc.members}

    group_profiles = [_draw_profile(rng) for _ in range(len(planted))]
    profiles: list[_Profile] = []
    for i in range(n):
        if i in group_of:
            profiles.append(group_profiles[group_of[i]])
        elif i in outlier_hosts:
            base = group_profiles[outlier_hosts[i]]
            profiles.append(
                _Profile(base.logons, base.morning, base.emails, base.files,
                         base.usb, ah_logons=int(rng.integers(3, 6)))
            )
        else:
            profiles.append(_draw_profile(rng))

    users: dict[str, UserRecord] = {}
    leaders = {g: pc.members[0] for g, pc in enumerate(planted)}
    root = _user_id(0)
    for i in range(n):
        uid = _user_id(i)
        if i in group_of:
            g = group_of[i]
            sup = _user_id(leaders[g]) if i != leaders[g] else root
            unit, dept, team = f"unit_{g % 3}", f"dept_{g}", f"team_{g}"
            role = f"role_{g}"
        elif i in outlier_hosts:
            g = outlier_hosts[i]
            sup = _user_id(leaders[g])
            unit, dept, team = f"unit_{g % 3}", f"dept_{g}", f"team_{g}"
            role = f"role_{g}"
        else:
            sup, unit, dept, team, role = root, "unit_9", "dept_ops", "team_pool", "staff"
        users[uid] = UserRecord(
            user_id=uid,
            employee_name=f"Synth Employee {i + 1:04d}",
            email=f"{uid.lower()}@dtaa.com",
            role=role,
            functional_unit=unit,
            department=dept,
            team=team,
            supervisor=None if uid == root else sup,
        )
    directory = OrgDirectory(users=users)

    def peers_of(i: int) -> list[int]:
        if i in group_of:
            members = planted[group_of[i]].members
        elif i in outlier_hosts:
            members = planted[outlier_hosts[i]].members
        else:
            return [j for j in range(n) if j != i]
        return [m for m in members if m != i]

    # Each log's events as drawn, one list per column: the second since
    # start_date's midnight, the user's index and the event kind's code.
    # Emails add their To recipients (user indices), size and attachments,
    # and file copies their file name.
    drawn = {kind: ([], [], []) for kind in LOG_LAYOUTS}
    logons, devices, emails, files = drawn.values()
    to: list[tuple[int, ...]] = []
    size: list[int] = []
    attachments: list[int] = []
    filename: list[str] = []
    LOGON, LOGOFF, CONNECT, DISCONNECT, EMAIL, FILE_COPY = map(EVENT_KINDS.index, (
        "logon", "logoff", "device_connect", "device_disconnect", "email", "file_copy"))

    def log(rows: tuple[list, list, list], second: int, user: int, kind: int) -> None:
        rows[0].append(second)
        rows[1].append(user)
        rows[2].append(kind)

    active = [i for i in range(n) if _user_id(i) not in silent]
    for day_index in range(n_days):
        workday = (start_date + timedelta(days=day_index)).weekday() in calendar.business_days
        midnight = day_index * 86400
        for i in active:
            prof = profiles[i]
            if workday:
                log(logons, midnight + int((prof.morning + float(rng.random()) * 0.4) * 3600),
                    i, LOGON)
                for _ in range(prof.logons - 1):
                    log(logons, midnight + int((10.0 + float(rng.random()) * 5.0) * 3600),
                        i, LOGON)
                log(logons, midnight + int((16.1 + float(rng.random()) * 0.8) * 3600), i, LOGOFF)
                for _ in range(prof.usb):
                    t = 10.0 + float(rng.random()) * 5.0
                    log(devices, midnight + int(t * 3600), i, CONNECT)
                    log(devices, midnight + int((t + 0.25) * 3600), i, DISCONNECT)
                for _ in range(prof.files):
                    t = 9.5 + float(rng.random()) * 6.0
                    ext = FILE_TYPES[int(rng.integers(len(FILE_TYPES)))]
                    filename.append(f"doc{int(rng.integers(1000)):03d}.{ext}")
                    log(files, midnight + int(t * 3600), i, FILE_COPY)
                peers = peers_of(i)
                for _ in range(prof.emails):
                    t = 9.0 + float(rng.random()) * 7.0
                    k = min(len(peers), 1 + int(rng.integers(2)))
                    chosen = sorted(int(x) for x in rng.choice(len(peers), size=k, replace=False))
                    to.append(tuple(peers[j] for j in chosen))
                    size.append(int(rng.integers(1000, 60000)))
                    attachments.append(int(rng.integers(0, 3)))
                    log(emails, midnight + int(t * 3600), i, EMAIL)
            for _ in range(prof.ah_logons):
                log(logons, midnight + int((19.0 + float(rng.random()) * 3.9) * 3600), i, LOGON)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ldap").mkdir(exist_ok=True)

    user_ids = [_user_id(i) for i in range(n)]
    pcs = [f"PC-{i + 1:04d}" for i in range(n)]
    paths, rows = [], {}
    for kind, prefix in (("logon", "L"), ("device", "D"), ("email", "M"), ("file", "F")):
        second, user, event_kind = drawn[kind]
        # time order; events drawn at the same second keep their draw order
        second = np.array(second, np.int64)
        order = np.argsort(second, kind="stable")
        second = second[order]
        user = np.array(user, np.int32)[order]
        table = EventTable(
            *_joined([f"{prefix}{k:06d}" for k in range(1, len(order) + 1)]), user, user_ids,
            (start_date.toordinal() + second // 86400).astype(np.int32),
            second % 86400 * 1_000_000, np.array(event_kind, np.int8)[order], user, pcs,
        )
        if kind == "email":
            recipients = [to[j] for j in order.tolist()]
            counts = np.zeros((len(order), 3), np.int64)
            counts[:, 0] = list(map(len, recipients))
            table.sender = user
            table.recipient_ptr = np.concatenate(([0], np.cumsum(counts.ravel())))
            table.recipients = np.fromiter(itertools.chain.from_iterable(recipients), np.int32,
                                           int(counts.sum()))
            table.addresses = [users[uid].email for uid in user_ids]
            table.size, table.attachments = (np.array(c, np.int64)[order]
                                             for c in (size, attachments))
        elif kind == "file":
            names: dict[str, int] = {}
            table.filename = _intern([filename[j] for j in order.tolist()], names)
            table.filenames = list(names)
        paths.append(out / LOG_LAYOUTS[kind].file_name)
        write_log_file(paths[-1], table, kind)
        rows[paths[-1].name] = len(table)
    snapshot, truth_path = out / "ldap" / "2009-12.csv", out / "ground_truth.txt"
    write_directory_csv(snapshot, directory)
    write_ground_truth(truth_path, truth)
    return SynthCorpus(directory, (*paths, snapshot, truth_path), rows)
