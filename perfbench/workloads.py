"""The benchmark's workloads: inputs made from a seed, and the CLI commands run on them.

Every workload is a batch job: one CLI command at a time, one client, closed
loop, default thread settings.  Inputs come from the package's own synthetic
generators plus transforms defined here; the program only ever sees the
generated files.  perfbench/README.md says why each workload was chosen.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

from tracing import LAYERS

LOG_FILES = ("logon.csv", "device.csv", "email.csv", "file.csv")

# GRASP rounds per workload.  `cap` keeps enough rounds for growth to stay
# its largest layer; `history` keeps few so parsing dominates.
CAP_ROUNDS = 100
ORG1K_ROUNDS = 300
HISTORY_ROUNDS = 20
# The `history` corpus repeats the `cap` corpus along time up to a fixed row
# count, so every seed parses the same amount; each copy is shifted by whole
# weeks so weekday/business-hour features keep their meaning.
HISTORY_ROWS = 125_000
HISTORY_SHIFT = timedelta(weeks=9)  # 63 days: one 60-day copy plus a gap

_TIMESTAMP = "%m/%d/%Y"

# Artifacts every repetition must leave, by workload family.
_SCORED = ("clusters.jsonl", "centrality.csv", "scores.csv", "auc_summary.csv", "manifest.json",
           *(f"{kind}.{k}.csv" for kind in ("ranking", "roc", "distribution") for k in range(1, 7)))
_PIPELINE = ("directory.csv", "rejects.csv", "nodes.csv", "nodes.norm.csv", "edges.csv",
             "graph_rejects.csv", *_SCORED)
# Artifacts whose sha256 must not change between repetitions (or commits).
DIGESTED = ("nodes.norm.csv", "edges.csv", "clusters.jsonl", "scores.csv",
            *(f"ranking.{k}.csv" for k in range(1, 7)))


@dataclass(frozen=True)
class Prepared:
    """Inputs of one workload, ready for its commands."""

    config: Path  # CLI config file
    out_dir: Path  # where the commands write; files present after set-up are inputs
    truth: Path  # planted ground truth
    input_rows: int  # data rows over the log CSVs, 0 when the workload has none
    generate_s: float  # time spent inside the package's generators


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], Prepared]
    stages: tuple[str, ...]  # CLI commands, each run with --config
    artifacts: tuple[str, ...]
    skipped: frozenset[str] = frozenset()  # layer functions the stages do not call

    @property
    def expected_layers(self) -> frozenset[str]:
        return frozenset(layer.key for layer in LAYERS) - self.skipped


def _write_config(path: Path, values: dict) -> Path:
    path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    return path


def _data_rows(log_dir: Path) -> int:
    total = 0
    for name in LOG_FILES:
        with open(log_dir / name, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def _cap_corpus(log_dir: Path, seed: int) -> float:
    """The log corpus at today's generator cap; returns generator seconds."""
    from insiderank.features import CalendarConfig
    from insiderank.synth import SynthSpec, generate_logs

    spec = SynthSpec(n_users=200, k_clusters=20, size_range=(5, 9), subspace_range=(8, 10),
                     p_in=0.9, p_out=0.05, n_attributes=40, width=0.05, n_outliers=10,
                     rng_seed=seed)
    start = time.perf_counter()
    generate_logs(spec, CalendarConfig(), log_dir, n_days=60)
    return time.perf_counter() - start


def _pipeline_config(root: Path, log_dir: Path, rounds: int) -> Path:
    return _write_config(root / "config.json", {
        "log_dir": str(log_dir), "out_dir": str(root / "out"), "grasp_iterations": rounds})


def setup_cap(root: Path, seed: int) -> Prepared:
    log_dir = root / "corpus"
    generate_s = _cap_corpus(log_dir, seed)
    (root / "out").mkdir()
    return Prepared(_pipeline_config(root, log_dir, CAP_ROUNDS), root / "out",
                    log_dir / "ground_truth.txt", _data_rows(log_dir), generate_s)


def repeat_along_time(src: Path, dst: Path, rows: int, shift: timedelta) -> None:
    """Write src's log CSVs to dst, repeated along time to `rows` data rows in all.

    Each log gets a share of `rows` in proportion to its size in src.  Copy k
    of a log is shifted by k*shift and its event ids get a two-digit copy
    suffix, so ids stay unique and rows stay in time order; the last copy is
    cut where the log's share is reached.
    """
    logs = {}
    for name in LOG_FILES:
        with open(src / name) as fh:
            logs[name] = (fh.readline(), [line.split(",", 2) for line in fh])
    total = sum(len(body) for _, body in logs.values())
    shares = [rows * len(body) // total for _, body in logs.values()]
    shares[0] += rows - sum(shares)
    dst.mkdir(parents=True)
    for (name, (header, body)), share in zip(logs.items(), shares):
        days: dict[tuple[str, int], str] = {}
        with open(dst / name, "w") as out:
            out.write(header)
            for i in range(share):
                k, j = divmod(i, len(body))
                event_id, stamp, rest = body[j]
                day = days.get((stamp[:10], k))
                if day is None:
                    moved = datetime.strptime(stamp[:10], _TIMESTAMP) + k * shift
                    day = days[(stamp[:10], k)] = moved.strftime(_TIMESTAMP)
                out.write(f"{event_id}{k:02d},{day}{stamp[10:]},{rest}")
    (dst / "ldap").mkdir()
    for snapshot in sorted((src / "ldap").glob("*.csv")):
        (dst / "ldap" / snapshot.name).write_bytes(snapshot.read_bytes())
    (dst / "ground_truth.txt").write_bytes((src / "ground_truth.txt").read_bytes())


def setup_history(root: Path, seed: int) -> Prepared:
    base, log_dir = root / "base", root / "corpus"
    generate_s = _cap_corpus(base, seed)
    repeat_along_time(base, log_dir, HISTORY_ROWS, HISTORY_SHIFT)
    (root / "out").mkdir()
    return Prepared(_pipeline_config(root, log_dir, HISTORY_ROUNDS), root / "out",
                    log_dir / "ground_truth.txt", _data_rows(log_dir), generate_s)


def setup_org1k(root: Path, seed: int) -> Prepared:
    from insiderank.evaluation import write_ground_truth
    from insiderank.features import write_nodes_csv
    from insiderank.graph import write_edges_csv
    from insiderank.synth import SynthSpec, generate_attributed_graph

    spec = SynthSpec(n_users=1000, k_clusters=50, size_range=(5, 15), subspace_range=(8, 12),
                     p_in=0.9, p_out=0.018, n_attributes=125, width=0.05, n_outliers=20,
                     rng_seed=seed)
    start = time.perf_counter()
    graph, truth = generate_attributed_graph(spec)
    generate_s = time.perf_counter() - start
    out = root / "out"
    out.mkdir()
    write_nodes_csv(out / "nodes.norm.csv", graph.user_ids, graph.attributes, graph.attribute_names)
    write_edges_csv(out / "edges.csv", graph)
    write_ground_truth(root / "ground_truth.txt", truth)
    config = _write_config(root / "config.json", {
        "out_dir": str(out), "ground_truth": str(root / "ground_truth.txt"),
        "grasp_iterations": ORG1K_ROUNDS})
    return Prepared(config, out, root / "ground_truth.txt", 0, generate_s)


# Layer functions that only the ingest, features and graph stages call.
_UPSTREAM = frozenset({
    "ingest.read_log_csv", "ingest.load_ldap_snapshots", "ingest.write_directory_csv",
    "ingest.load_directory_csv", "features.group_by_user", "features.extract_attributes",
    "features.attribute_matrix", "features.normalize_matrix", "features.write_nodes_csv",
    "graph.build_graph", "graph.write_edges_csv", "graph.degree_profile",
})

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("cap", setup_cap, ("pipeline",), _PIPELINE),
    Workload("org1k", setup_org1k, ("cluster", "rank", "eval"), _SCORED, _UPSTREAM),
    Workload("history", setup_history, ("pipeline",), _PIPELINE),
)}
