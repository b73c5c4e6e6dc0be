"""Pipeline driver: run each stage individually or chained end to end.

Stages communicate through files in the output directory, so every stage can
be rerun from its persisted inputs:

    ingest    logs + LDAP snapshots -> directory.csv, rejects.csv
    features  logs + directory.csv  -> nodes.csv, nodes.norm.csv
    graph     emails + features     -> edges.csv, graph_rejects.csv
    cluster   nodes/edges           -> clusters.jsonl
    rank      graph + clusters      -> centrality.csv, scores.csv, ranking.<k>.csv
    eval      scores + ground truth -> roc.<k>.csv, distribution.<k>.csv, auc_summary.csv
    synth     nothing               -> a synthetic log corpus with ground truth
                                       (the files generate_logs reports writing)
    pipeline  ingest to eval, optionally over a parameter grid

The logs are parsed and joined into one columnar event table
(ingest.EventTable), in LOG_LAYOUTS order, and the per-file tables are
dropped; features groups that table by user and computes every attribute
column by column, and graph takes the emails from it and resolves each
distinct address once.  Run on its own, features parses the four logs and
graph parses email.csv again.  The pipeline parses each log once, in ingest,
and hands the one table and the rejects to features and graph in memory, so
a run holds one copy of the events; the artifacts are the same bytes either
way.  With a grid, auc_summary.csv adds a column for each cluster parameter
that differs between cases, after the AUCs.

Configuration is a single flat JSON object; command-line flags override
config keys, and the INSIDERANK_OUT environment variable overrides the
output directory.  Every run writes out/manifest.json with the effective
config, input file hashes, seed, timings and per-stage stats; a single-stage
run merges its entries into the manifest already there, a pipeline run
replaces it.  In a merged manifest, stage, config and seed are those of the
last command and timings.total is the pipeline's.  Artifact files are
deterministic byte for byte given equal config, inputs and seed; only the
manifest (timings) varies between reruns.  Betweenness runs on numpy's BLAS,
so a different BLAS thread count (e.g. OPENBLAS_NUM_THREADS) may change the
last bits of centrality.csv, scores.csv and the score column of each
ranking.<k>.csv, within 1e-12 relative.

The CLI lets numpy's idle OpenBLAS worker threads sleep at once instead of
spinning: it sets OPENBLAS_THREAD_TIMEOUT to 4 before numpy loads, unless the
environment already sets it.  The BLAS thread count and every artifact stay
the same; only CPU time falls.  Importing the insiderank library leaves the
environment alone.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import fields as dataclass_fields
from datetime import time as dtime
from pathlib import Path
from typing import Callable

# OpenBLAS keeps an idle worker busy-waiting for 2**OPENBLAS_THREAD_TIMEOUT
# cycles (default 28, about 0.1 s) at start-up and after every BLAS call,
# while the pipeline itself runs on one thread.  On a 2-core host that spin
# was about a quarter of the CPU time of the org1k benchmark's commands:
# with 4, cluster took 0.80 -> 0.73 s, rank 0.95 -> 0.70 s and eval
# 0.33 -> 0.20 s of CPU, at the same wall time.  4 is the shortest spin
# OpenBLAS allows, and OpenBLAS reads the variable only when numpy loads it,
# so this line precedes every numpy import.  The thread count stays, since
# OPENBLAS_NUM_THREADS=1 made betweenness 0.24 -> 0.33 s.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from .centrality import (
    CentralityTable,
    NonConvergenceError,
    compute_centralities,
    write_centrality_csv,
)
from .clustering import (
    ClusterParams,
    grasp_cluster,
    read_clusters_jsonl,
    write_clusters_jsonl,
)
from .evaluation import (
    load_ground_truth,
    roc_auc,
    score_distribution,
    write_auc_summary_csv,
    write_distribution_csv,
    write_roc_csv,
)
from .features import (
    CalendarConfig,
    attribute_matrix,
    extract_attributes,
    group_by_user,
    normalize_matrix,
    read_nodes_csv,
    write_nodes_csv,
)
from .graph import AttributedGraph, build_graph, degree_profile, load_graph, write_edges_csv
from .ingest import (
    EVENT_KINDS,
    LOG_LAYOUTS,
    EventTable,
    RejectReport,
    load_directory_csv,
    load_ldap_snapshots,
    read_log_csv,
    write_directory_csv,
)
from .ranking import (
    N_VARIANTS,
    compute_scores,
    read_scores_csv,
    write_ranking_csv,
    write_scores_csv,
)
from .synth import SynthSpec, generate_logs

__all__ = ["DEFAULTS", "STAGES", "main"]

STAGES = ("ingest", "features", "graph", "cluster", "rank", "eval", "synth", "pipeline")
OUT_ENV_VAR = "INSIDERANK_OUT"

# Flat config keys with their defaults; anything else in a config file is an
# error, and so is a value whose JSON type differs from its default's (see
# _typed).  Path keys left null fall back to locations under the output dir.
DEFAULTS: dict[str, object] = {
    # paths
    "log_dir": None,
    "ldap_dir": None,
    "out_dir": "out",
    "ground_truth": None,
    # calendar
    "bh_start": "08:00",
    "bh_end": "17:00",
    "business_days": [0, 1, 2, 3, 4],
    # email domain treated as internal
    "internal_domain": "dtaa.com",
    # cluster search parameters
    "n_min": 3,
    "s_min": 2,
    "gamma_min": 0.5,
    "w": 0.1,
    "a_exp": 1.0,
    "b_exp": 1.0,
    "c_exp": 1.0,
    "r_obj": 0.1,
    "r_dim": 0.1,
    "rng_seed": 0,
    "grasp_iterations": 2000,
    "rcl_alpha": 0.3,
    # centrality
    "eigen_tol": 1e-10,
    "eigen_max_iter": 10000,
    # scoring
    "centrality_outside_sum": False,
    # synthetic corpus generation
    "synth_n_users": 40,
    "synth_k_clusters": 3,
    "synth_size_lo": 4,
    "synth_size_hi": 6,
    "synth_n_outliers": 3,
    "synth_n_days": 20,
}


# The cluster search parameters, which --grid may sweep.
_GRID_KEYS = {f.name for f in dataclass_fields(ClusterParams)}


def _is_int(value: object) -> bool:
    # bool is a subclass of int; booleans are refused wherever a number is expected
    return isinstance(value, int) and not isinstance(value, bool)


# The test a config value must pass, by the type of its default, and how a
# diagnostic names it.  A null default marks an optional path.
_CONFIG_TYPES: dict[type, tuple[Callable[[object], bool], str]] = {
    type(None): (lambda v: v is None or isinstance(v, str), "a string or null"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v), "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


class StageError(RuntimeError):
    """A user-facing failure: bad config, missing inputs, bad arguments."""


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _typed(key: str, value: object) -> object:
    """``value`` as config key ``key`` holds it: of its default's type, with
    a decimal key's integer read as a float.  Raises ValueError otherwise."""
    kind = type(DEFAULTS[key])
    accepts, expected = _CONFIG_TYPES[kind]
    if not accepts(value):
        raise ValueError(f"{key} must be {expected}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _load_config(path: str | None, overrides: dict[str, object]) -> dict[str, object]:
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StageError(f"invalid config: no such file: {path}")
        except UnicodeDecodeError as exc:
            raise StageError(f"invalid config: {path} is not UTF-8 ({exc})")
        except json.JSONDecodeError as exc:
            raise StageError(f"invalid config: {path} is not valid JSON ({exc})")
        if not isinstance(raw, dict):
            raise StageError("invalid config: top level must be a JSON object")
        unknown = sorted(set(raw) - set(DEFAULTS))
        if unknown:
            raise StageError(f"invalid config: unknown key(s) {unknown}")
        cfg.update(raw)
    cfg.update(overrides)
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out:
        cfg["out_dir"] = env_out

    try:
        for key in DEFAULTS:
            cfg[key] = _typed(key, cfg[key])
        # a power iteration that cannot converge is refused before any stage runs
        if cfg["eigen_tol"] <= 0:
            raise ValueError(f"eigen_tol must be positive, got {cfg['eigen_tol']}")
        if cfg["eigen_max_iter"] < 1:
            raise ValueError(f"eigen_max_iter must be at least 1, got {cfg['eigen_max_iter']}")
    except ValueError as exc:
        raise StageError(f"invalid config: {exc}")
    return cfg


def _out_dir(cfg) -> Path:
    """The output directory.  Ingest and ``main`` create it just before they
    write, so a run that fails first leaves no directory behind."""
    return Path(cfg["out_dir"])


def _log_dir(cfg) -> Path:
    return Path(cfg["log_dir"]) if cfg["log_dir"] else _out_dir(cfg) / "corpus"


def _ldap_dir(cfg) -> Path:
    return Path(cfg["ldap_dir"]) if cfg["ldap_dir"] else _log_dir(cfg) / "ldap"


def _ground_truth_path(cfg) -> Path | None:
    if cfg["ground_truth"]:
        return Path(cfg["ground_truth"])
    fallback = _log_dir(cfg) / "ground_truth.txt"
    return fallback if fallback.exists() else None


def _calendar(cfg) -> CalendarConfig:
    try:
        return CalendarConfig(
            bh_start=dtime.fromisoformat(cfg["bh_start"]),
            bh_end=dtime.fromisoformat(cfg["bh_end"]),
            business_days=frozenset(cfg["business_days"]),
        )
    except ValueError as exc:
        raise StageError(f"invalid config: calendar: {exc}")


def _cluster_params(cfg, overrides: dict[str, object] | None = None) -> ClusterParams:
    try:
        return ClusterParams(**{**{k: cfg[k] for k in _GRID_KEYS}, **(overrides or {})})
    except ValueError as exc:
        raise StageError(f"invalid config: cluster parameters: {exc}")


def _synth_spec(cfg) -> SynthSpec:
    try:
        return SynthSpec(
            n_users=cfg["synth_n_users"],
            k_clusters=cfg["synth_k_clusters"],
            size_range=(cfg["synth_size_lo"], cfg["synth_size_hi"]),
            # fixed: these graph-only fields reach no log row (rng_seed re-draws groups)
            subspace_range=(8, 10), p_in=0.9, p_out=0.05, n_attributes=40, width=0.05,
            n_outliers=cfg["synth_n_outliers"],
            rng_seed=cfg["rng_seed"],
        )
    except ValueError as exc:
        raise StageError(f"invalid config: synth parameters: {exc}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    def __init__(self, stage: str, cfg: dict[str, object]) -> None:
        self.data: dict[str, object] = {
            "stage": stage,
            "config": {k: cfg[k] for k in sorted(cfg)},
            "seed": cfg["rng_seed"],
            "inputs": {},
            "outputs": [],
            "timings": {},
            "stats": {},
        }

    def add_input(self, path: Path) -> Path:
        """Record ``path`` and its sha256 as an input, and return it."""
        self.data["inputs"][str(path)] = _sha256(path)
        return path

    def add_output(self, path: Path) -> Path:
        """Record ``path`` as an output, and return it."""
        self.data["outputs"].append(str(path))
        return path

    def write(self, out: Path, *, merge: bool = False) -> None:
        """Write out/manifest.json.  With ``merge``, the inputs, outputs,
        timings and stats that earlier runs recorded there are kept, and this
        run's entries win where keys clash."""
        path = out / "manifest.json"
        data = self.data
        if merge:
            try:
                old = json.loads(path.read_text())
            except (OSError, ValueError):
                old = {}
            if isinstance(old, dict):
                data = dict(self.data)
                for key in ("inputs", "timings", "stats"):
                    if isinstance(old.get(key), dict):
                        data[key] = {**old[key], **self.data[key]}
                if isinstance(old.get("outputs"), list):
                    earlier = [o for o in old["outputs"] if isinstance(o, str)]
                    data["outputs"] = list(dict.fromkeys(earlier + self.data["outputs"]))
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise StageError(f"missing {what}: {path}")
    return path


# Parsed activity logs: one event table holding the events of every log file
# present, in LOG_LAYOUTS order; the rows parsed from each file, events and
# rejects, by file name; and the rows rejected across those files.
ParsedLogs = tuple[EventTable, dict[str, int], RejectReport]


def _load_events(
    cfg,
    manifest: Manifest,
    *,
    kinds: set[str] | None = None,
    required: bool = True,
) -> ParsedLogs:
    log_dir = _require(_log_dir(cfg), "log directory")
    known = {layout.file_name for layout in LOG_LAYOUTS.values()}
    for stray in sorted(p.name for p in log_dir.glob("*.csv") if p.name not in known):
        _warn(f"skipping unsupported log file: {stray}")
    wanted = [(kind, layout.file_name) for kind, layout in LOG_LAYOUTS.items()
              if kinds is None or kind in kinds]
    tables: list[EventTable] = []
    rows: dict[str, int] = {}
    rejects = RejectReport()
    for kind, name in wanted:
        path = log_dir / name
        if not path.exists():
            continue
        manifest.add_input(path)
        rejected = len(rejects)
        tables.append(read_log_csv(path, kind, rejects=rejects))
        rows[name] = len(tables[-1]) + len(rejects) - rejected
    if required and not tables:
        names = sorted(name for _, name in wanted)
        raise StageError(f"missing log files: none of {names} under {log_dir}")
    # the per-file tables go once joined, so a run holds one copy of the events
    return EventTable.concat(tables), rows, rejects


def _load_directory(cfg, manifest: Manifest):
    path = _require(_out_dir(cfg) / "directory.csv", "directory artifact (run ingest first)")
    return load_directory_csv(manifest.add_input(path))


def _load_graph_artifacts(cfg, manifest: Manifest):
    out = _out_dir(cfg)
    nodes, edges = out / "nodes.norm.csv", out / "edges.csv"
    if not (nodes.exists() and edges.exists()):
        raise StageError(
            f"missing graph artifacts: expected {nodes} and {edges}; "
            "run the features and graph stages first"
        )
    return load_graph(manifest.add_input(nodes), manifest.add_input(edges))


def stage_ingest(cfg, manifest: Manifest) -> ParsedLogs:
    out = _out_dir(cfg)
    ldap_dir = _require(_ldap_dir(cfg), "LDAP directory")
    snapshots = sorted(ldap_dir.glob("*.csv"))
    if not snapshots:
        raise StageError(f"missing LDAP snapshots: no CSV files under {ldap_dir}")
    for snap in snapshots:
        manifest.add_input(snap)
    directory = load_ldap_snapshots(ldap_dir)

    logs = _load_events(cfg, manifest)
    events, rows, rejects = logs
    out.mkdir(parents=True, exist_ok=True)
    write_directory_csv(manifest.add_output(out / "directory.csv"), directory)
    rejects.write_csv(manifest.add_output(out / "rejects.csv"))

    counts = {kind: int(count) for kind, count in
              zip(EVENT_KINDS, np.bincount(events.kind, minlength=len(EVENT_KINDS))) if count}
    manifest.data["stats"]["ingest"] = {
        "users": len(directory), "events": counts, "rows_parsed": rows,
        "rejected": len(rejects), "rejected_by_reason": rejects.counts_by_class(),
    }
    n_events = sum(counts.values())
    print(f"ingest: {len(directory)} users, {n_events} events, {len(rejects)} rejected rows")
    return logs


def stage_features(cfg, manifest: Manifest, logs: ParsedLogs | None = None) -> None:
    """``logs`` are the pipeline's ingest results; a lone run parses the logs."""
    out = _out_dir(cfg)
    directory = _load_directory(cfg, manifest)
    events, _, rejects = logs if logs is not None else _load_events(cfg, manifest)
    vectors = extract_attributes(
        group_by_user([events]), directory,
        _calendar(cfg), internal_domain=cfg["internal_domain"],
    )
    users, matrix = attribute_matrix(vectors)
    write_nodes_csv(manifest.add_output(out / "nodes.csv"), users, matrix)
    write_nodes_csv(manifest.add_output(out / "nodes.norm.csv"), users, normalize_matrix(matrix))
    constant = int((matrix.max(axis=0) == matrix.min(axis=0)).sum()) if users else 0
    manifest.data["stats"]["features"] = {
        "users": len(users), "attributes": matrix.shape[1],
        "constant_columns": constant, "rejected": len(rejects),
    }
    print(f"features: {len(users)} users x {matrix.shape[1]} attributes")


def stage_graph(cfg, manifest: Manifest, logs: ParsedLogs | None = None) -> None:
    """``logs`` are the pipeline's ingest results; a lone run parses email.csv."""
    out = _out_dir(cfg)
    directory = _load_directory(cfg, manifest)
    nodes_path = _require(out / "nodes.norm.csv", "feature artifacts (run features first)")
    users, matrix, names = read_nodes_csv(manifest.add_input(nodes_path))
    if users != directory.sorted_user_ids():
        raise StageError("graph: nodes.norm.csv users do not match directory.csv")
    if logs is None:
        logs = _load_events(cfg, manifest, kinds={"email"}, required=False)
    events, _, parse_rejects = logs
    # build_graph numbers its rejects by position among the email rows, and
    # graph_rejects.csv lists the email.csv parse rejects first
    rejects = parse_rejects.from_source(LOG_LAYOUTS["email"].file_name)
    graph = build_graph(
        directory, events, matrix, names,
        internal_domain=cfg["internal_domain"], rejects=rejects,
    )
    write_edges_csv(manifest.add_output(out / "edges.csv"), graph)
    rejects.write_csv(manifest.add_output(out / "graph_rejects.csv"))
    manifest.data["stats"]["graph"] = {
        **degree_profile(graph),
        "rejected": len(rejects), "rejected_by_reason": rejects.counts_by_class(),
    }
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")


def _centralities(cfg, graph: AttributedGraph) -> CentralityTable:
    return compute_centralities(
        graph, tol=cfg["eigen_tol"], max_iter=cfg["eigen_max_iter"])


def stage_cluster(cfg, manifest: Manifest, params: ClusterParams | None = None,
                  case_dir: Path | None = None, graph: AttributedGraph | None = None) -> None:
    out = case_dir or _out_dir(cfg)
    if graph is None:
        graph = _load_graph_artifacts(cfg, manifest)
    result = grasp_cluster(graph, params or _cluster_params(cfg))
    write_clusters_jsonl(manifest.add_output(out / "clusters.jsonl"), result, graph)
    stats = manifest.data["stats"]
    stats[f"clusters:{out.name}"] = len(result.clusters)
    if result.stats:
        stats[f"grasp:{out.name}"] = {**result.stats, **result.timings}
    print(f"cluster: {len(result.clusters)} clusters "
          f"(c_max={result.c_max}, s_max={result.s_max})")


def stage_rank(cfg, manifest: Manifest, case_dir: Path | None = None,
               graph: AttributedGraph | None = None,
               centralities: CentralityTable | None = None) -> None:
    out = case_dir or _out_dir(cfg)
    if graph is None:
        graph = _load_graph_artifacts(cfg, manifest)
    clusters_path = _require(out / "clusters.jsonl", "cluster artifact (run cluster first)")
    result = read_clusters_jsonl(manifest.add_input(clusters_path), graph)
    if centralities is None:
        centralities = _centralities(cfg, graph)
    write_centrality_csv(manifest.add_output(out / "centrality.csv"), graph, centralities)
    table = compute_scores(result, centralities, graph,
                           centrality_outside_sum=cfg["centrality_outside_sum"])
    write_scores_csv(manifest.add_output(out / "scores.csv"), table)
    for variant in range(1, N_VARIANTS + 1):
        write_ranking_csv(manifest.add_output(out / f"ranking.{variant}.csv"), table, variant)
    print(f"rank: scored {len(table.user_ids)} users, "
          f"{int((table.memberships > 0).sum())} appear in clusters")


def stage_eval(cfg, manifest: Manifest, params: ClusterParams | None = None,
               case_dir: Path | None = None, case_label: str = "A"):
    out = case_dir or _out_dir(cfg)
    scores_path = _require(out / "scores.csv", "score artifact (run rank first)")
    truth_path = _ground_truth_path(cfg)
    if truth_path is None:
        raise StageError("missing ground truth: set the ground_truth config key")
    manifest.add_input(_require(truth_path, "ground truth file"))
    truth = load_ground_truth(truth_path)
    table = read_scores_csv(manifest.add_input(scores_path))
    missing = sorted(truth.missing_from(table.user_ids))
    if missing:
        _warn(f"{len(missing)} ground-truth user(s) have no score: {missing}")

    aucs = []
    for variant in range(1, N_VARIANTS + 1):
        column = table.score(variant)
        curve = roc_auc(dict(zip(table.user_ids, column)), truth)
        aucs.append(curve.auc)
        write_roc_csv(manifest.add_output(out / f"roc.{variant}.csv"), curve)
        write_distribution_csv(manifest.add_output(out / f"distribution.{variant}.csv"),
                               score_distribution(table, variant))
    params = params or _cluster_params(cfg)
    row = (case_label, params, aucs)
    write_auc_summary_csv(manifest.add_output(out / "auc_summary.csv"), [row])
    shown = ", ".join(f"score_{k + 1}={a:.4f}" for k, a in enumerate(aucs))
    print(f"eval[{case_label}]: {shown}")
    return row


def stage_synth(cfg, manifest: Manifest) -> None:
    spec = _synth_spec(cfg)
    log_dir = _log_dir(cfg)
    try:
        corpus = generate_logs(spec, _calendar(cfg), log_dir, n_days=cfg["synth_n_days"])
    except ValueError as exc:
        raise StageError(f"invalid config: synth: {exc}")
    for path in corpus.paths:
        manifest.add_output(path)
    manifest.data["stats"]["synth"] = {"users": len(corpus.directory),
                                       "days": cfg["synth_n_days"], "rows": corpus.rows}
    print(f"synth: wrote {len(corpus.directory)}-user corpus of {sum(corpus.rows.values())} "
          f"log rows under {log_dir}")


def _parse_grid(text: str) -> list[tuple[str, list]]:
    axes: list[tuple[str, list]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, eq, values_text = part.partition("=")
        key = key.strip()
        if not eq or key not in _GRID_KEYS:
            raise StageError(
                f"invalid grid: expected '<param>=<values>' with param in "
                f"{sorted(_GRID_KEYS)}, got {part!r}"
            )
        if key in dict(axes):
            raise StageError(f"invalid grid: {key} is given twice")
        values_text = values_text.strip()
        try:
            if ".." in values_text:
                lo_text, _, hi_text = values_text.partition("..")
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError(f"empty range {values_text!r}")
                values: list = list(range(lo, hi + 1))
            else:
                tokens = [t.strip() for t in values_text.split(",") if t.strip()]
                if not tokens:
                    raise ValueError("no values")
                values = [json.loads(t) for t in tokens]
            values = [_typed(key, v) for v in values]
            if len(set(values)) < len(values):
                raise ValueError("a value is repeated")
        except json.JSONDecodeError as exc:
            raise StageError(f"invalid grid: {part!r}: {exc.doc!r} is not a number")
        except ValueError as exc:
            raise StageError(f"invalid grid: {part!r}: {exc}")
        axes.append((key, values))
    if not axes:
        raise StageError("invalid grid: no parameters given")
    return axes


def _case_label(i: int) -> str:
    label = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        label = chr(ord("A") + r) + label
    return label


def _grid_cases(grid: str | None) -> list[tuple[str, dict[str, object]]]:
    if grid is None:
        return [("A", {})]
    axes = _parse_grid(grid)
    keys = [k for k, _ in axes]
    cases = []
    for i, combo in enumerate(itertools.product(*(vals for _, vals in axes))):
        cases.append((_case_label(i), dict(zip(keys, combo))))
    return cases


def stage_pipeline(cfg, manifest: Manifest, grid: str | None = None) -> None:
    out = _out_dir(cfg)
    timings = manifest.data["timings"]
    # a bad grid or cluster parameter stops the run before any stage writes
    cases = [(label, _cluster_params(cfg, o)) for label, o in _grid_cases(grid)]

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        timings[name] = time.perf_counter() - start
        return value

    # each log is parsed once: features and graph reuse ingest's events
    logs = timed("ingest", stage_ingest, cfg, manifest)
    timed("features", stage_features, cfg, manifest, logs)
    timed("graph", stage_graph, cfg, manifest, logs)
    del logs
    # neither the graph nor its centralities depend on cluster parameters,
    # so every grid case shares one load and one computation
    graph = _load_graph_artifacts(cfg, manifest)
    centralities = timed("centrality", _centralities, cfg, graph)

    have_truth = _ground_truth_path(cfg) is not None
    if not have_truth:
        print("pipeline: no ground truth configured, skipping eval")
    rows = []
    for label, params in cases:
        if len(cases) == 1:
            case_dir = out
        else:
            case_dir = out / "cases" / label
            case_dir.mkdir(parents=True, exist_ok=True)
        timed(f"cluster:{label}", stage_cluster, cfg, manifest, params, case_dir, graph)
        timed(f"rank:{label}", stage_rank, cfg, manifest, case_dir, graph, centralities)
        if have_truth:
            rows.append(timed(f"eval:{label}", stage_eval, cfg, manifest, params,
                              case_dir, label))
    if rows:
        write_auc_summary_csv(manifest.add_output(out / "auc_summary.csv"), rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="insiderank",
        description="Rank users for insider-threat review from activity logs.",
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the rng_seed config key")
    parser.add_argument("--grid", metavar="SPEC",
                        help='parameter sweep for pipeline, e.g. "n_min=3,4,5;s_min=2..10"')
    args = parser.parse_args(argv)

    try:
        overrides: dict[str, object] = {}
        if args.seed is not None:
            if args.seed < 0:
                raise StageError("invalid arguments: --seed must be non-negative")
            overrides["rng_seed"] = args.seed
        if args.grid is not None and args.stage != "pipeline":
            raise StageError("invalid arguments: --grid applies to the pipeline stage only")
        cfg = _load_config(args.config, overrides)

        out = _out_dir(cfg)
        manifest = Manifest(args.stage, cfg)
        start = time.perf_counter()
        if args.stage == "pipeline":
            stage_pipeline(cfg, manifest, args.grid)
            manifest.data["timings"]["total"] = time.perf_counter() - start
        else:
            runner = {
                "ingest": stage_ingest,
                "features": stage_features,
                "graph": stage_graph,
                "cluster": stage_cluster,
                "rank": stage_rank,
                "eval": stage_eval,
                "synth": stage_synth,
            }[args.stage]
            runner(cfg, manifest)
            # "total" stays the time of the pipeline run this merges into
            manifest.data["timings"][args.stage] = time.perf_counter() - start
        # a pipeline run records everything; a single stage adds to earlier runs
        out.mkdir(parents=True, exist_ok=True)
        manifest.write(out, merge=args.stage != "pipeline")
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"error: eigenvector centrality did not converge: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # SchemaError among them
        print(f"error: invalid inputs: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a read or a write; the path, if any, is all it names
        where = "" if exc.filename is None else f"cannot access {exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
