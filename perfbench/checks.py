"""Output checks that do not trust the program: digests, artifact sets and oracles."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(out_dir: Path, names) -> dict[str, str]:
    return {name: sha256(out_dir / name) for name in names if (out_dir / name).is_file()}


def missing(out_dir: Path, names) -> list[str]:
    return [name for name in names if not (out_dir / name).is_file()]


def digest_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that only one of the two runs produced."""
    return sorted(name for name in set(reference) | set(other)
                  if reference.get(name) != other.get(name))


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_auc_summary(out_dir: Path) -> list[float]:
    rows = _rows(out_dir / "auc_summary.csv")
    return [float(x) for x in rows[1][3:]]


def rank_auc(scores: dict[str, float], truth: set[str]) -> float:
    """Mann-Whitney AUC where a lower score marks a malicious user."""
    pos = np.array([s for u, s in scores.items() if u in truth])
    neg = np.array([s for u, s in scores.items() if u not in truth])
    below = int((pos[:, None] < neg[None, :]).sum())
    tied = int((pos[:, None] == neg[None, :]).sum())
    return (2 * below + tied) / (2 * len(pos) * len(neg))


def check_scores(out_dir: Path, truth_path: Path) -> list[str]:
    """AUCs against a rank-statistic oracle; every ranking against scores.csv."""
    problems = []
    rows = _rows(out_dir / "scores.csv")
    users = [r[0] for r in rows[1:]]
    columns = [{r[0]: float(r[k]) for r in rows[1:]} for k in range(1, 7)]
    truth = {line.strip() for line in truth_path.read_text().splitlines() if line.strip()}
    for k, (reported, column) in enumerate(zip(read_auc_summary(out_dir), columns), start=1):
        expected = rank_auc(column, truth)
        if abs(reported - expected) > 1e-9:
            problems.append(f"auc_summary score_{k}={reported!r}, oracle gives {expected!r}")
        ranking = _rows(out_dir / f"ranking.{k}.csv")[1:]
        ranked = [r[1] for r in ranking]
        values = [float(r[2]) for r in ranking]
        if sorted(ranked) != sorted(users):
            problems.append(f"ranking.{k}.csv does not list each scored user once")
        elif any(column[u] != v for u, v in zip(ranked, values)):
            problems.append(f"ranking.{k}.csv scores differ from scores.csv")
        elif any(a > b for a, b in zip(values, values[1:])):
            problems.append(f"ranking.{k}.csv is not in ascending score order")
    return problems


def check_clusters(out_dir: Path) -> list[str]:
    """Every cluster meets the density and subspace constraints it claims."""
    problems = []
    nodes = _rows(out_dir / "nodes.norm.csv")
    names = nodes[0][1:]
    index = {r[0]: i for i, r in enumerate(nodes[1:])}
    attrs = np.array([[float(x) for x in r[1:]] for r in nodes[1:]])
    adjacency = [set() for _ in index]
    for src, dst in _rows(out_dir / "edges.csv")[1:]:
        adjacency[index[src]].add(index[dst])
        adjacency[index[dst]].add(index[src])
    with open(out_dir / "clusters.jsonl") as fh:
        header, *clusters = [json.loads(line) for line in fh if line.strip()]
    p = header["params"]
    if header["n_clusters"] != len(clusters):
        problems.append(f"clusters.jsonl header says {header['n_clusters']} clusters, "
                        f"file has {len(clusters)}")
    for c in clusters:
        members = sorted(index[u] for u in c["members"])
        size = len(members)
        widths = attrs[members].max(axis=0) - attrs[members].min(axis=0)
        subspace = [names[j] for j in np.flatnonzero(widths <= p["w"])]
        min_degree = min(len(adjacency[v].intersection(members)) for v in members)
        gamma = min_degree / (size - 1)
        quality = size ** p["a_exp"] * len(subspace) ** p["b_exp"] * gamma ** p["c_exp"]
        label = ",".join(c["members"][:3])
        if size < p["n_min"] or len(subspace) < p["s_min"]:
            problems.append(f"cluster {label}...: below n_min or s_min")
        if min_degree < math.ceil(p["gamma_min"] * (size - 1)):
            problems.append(f"cluster {label}...: density below gamma_min")
        if sorted(c["subspace"]) != sorted(subspace):
            problems.append(f"cluster {label}...: subspace is not the maximal one for w")
        if abs(c["gamma"] - gamma) > 1e-12 or not math.isclose(c["quality"], quality, rel_tol=1e-9):
            problems.append(f"cluster {label}...: recorded gamma or quality is wrong")
    return problems
