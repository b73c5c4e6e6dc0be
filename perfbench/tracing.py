"""Per-layer spans for one insiderank CLI command, recorded from outside src/.

Run as a script, this module executes one CLI command in-process with every
public layer function in ``LAYERS`` wrapped, then writes the spans to a JSON
file and exits with the command's exit code:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json pipeline --config cfg.json

A wrapper replaces the function in every loaded ``insiderank`` module that
binds it (``insiderank.cli`` and the layer modules that call each other), so
spans follow whatever call sequence the CLI actually makes.  The benchmark
imports this module for ``LAYERS``, ``resolve_layers`` and
``layer_metrics``, which turn the span files of one traced repetition into
``<module>.<metric>`` numbers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable


class LayerMissing(RuntimeError):
    """A wrapped public function no longer exists, or was never called."""


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _const_columns(matrix) -> int:
    if len(matrix) == 0:
        return 0
    return int(((matrix.max(axis=0) - matrix.min(axis=0)) == 0).sum())


# A probe sees the bound call arguments before the span starts and returns a
# function that turns the result into counters after the span ends, so its
# own cost is traced wall time outside every layer span.

def _parse_probe(call):
    rejects = call.get("rejects")
    rejected_before = len(rejects) if rejects is not None else 0
    rss_before = _rss_mb()

    def after(events):
        rejected = (len(rejects) if rejects is not None else 0) - rejected_before
        return {"ingest.parse_calls": 1, "ingest.rows_parsed": len(events),
                "ingest.rows_rejected": rejected,
                "rss_before_mb": rss_before, "rss_peak_mb": _peak_rss_mb()}
    return after


def _normalize_probe(call):
    return lambda matrix: {"features.const_columns": _const_columns(matrix)}


def _read_nodes_probe(call):
    return lambda result: {"features.const_columns": _const_columns(result[1])}


def _graph_probe(call):
    return lambda graph: {"graph.edges": graph.n_edges, "graph.vertices": graph.n_vertices}


def _load_graph_probe(call):
    return lambda graph: {"graph.load_calls": 1, "graph.edges": graph.n_edges,
                          "graph.vertices": graph.n_vertices}


def _grasp_probe(call):
    rounds = call["params"].grasp_iterations

    def after(result):
        return {"clustering.rounds": rounds, "clustering.clusters": len(result.clusters),
                "clustering.c_max": result.c_max, "clustering.s_max": result.s_max}
    return after


def _centrality_probe(call):
    return lambda table: {"centrality.calls": 1}


@dataclass(frozen=True)
class Layer:
    module: str  # defining module under insiderank
    name: str  # public function name
    metric: str | None  # the `_s` metric its self time adds to; None: counted only
    probe: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


LAYERS: tuple[Layer, ...] = (
    Layer("ingest", "read_log_csv", "ingest.parse_s", _parse_probe),
    Layer("ingest", "load_ldap_snapshots", "ingest.directory_s"),
    Layer("ingest", "write_directory_csv", "ingest.directory_s"),
    Layer("ingest", "load_directory_csv", "ingest.directory_s"),
    Layer("features", "group_by_user", "features.extract_s"),
    Layer("features", "extract_attributes", "features.extract_s"),
    Layer("features", "attribute_matrix", "features.extract_s"),
    Layer("features", "normalize_matrix", "features.normalize_s", _normalize_probe),
    Layer("features", "write_nodes_csv", "features.io_s"),
    Layer("features", "read_nodes_csv", "features.io_s", _read_nodes_probe),
    Layer("graph", "build_graph", "graph.build_s", _graph_probe),
    Layer("graph", "write_edges_csv", "graph.build_s"),
    Layer("graph", "degree_profile", "graph.build_s"),
    Layer("graph", "load_graph", "graph.load_s", _load_graph_probe),
    Layer("clustering", "grasp_cluster", "clustering.grasp_s", _grasp_probe),
    Layer("clustering", "prune_redundant", "clustering.prune_s"),
    Layer("clustering", "write_clusters_jsonl", "clustering.io_s"),
    Layer("clustering", "read_clusters_jsonl", "clustering.io_s"),
    Layer("centrality", "compute_centralities", None, _centrality_probe),
    Layer("centrality", "degree_centrality", "centrality.degree_s"),
    Layer("centrality", "eigenvector_centrality", "centrality.eigenvector_s"),
    Layer("centrality", "betweenness_centrality", "centrality.betweenness_s"),
    Layer("centrality", "write_centrality_csv", "centrality.write_s"),
    Layer("ranking", "compute_scores", "ranking.score_s"),
    Layer("ranking", "write_scores_csv", "ranking.write_s"),
    Layer("ranking", "write_ranking_csv", "ranking.write_s"),
    Layer("ranking", "read_scores_csv", "ranking.read_s"),
    Layer("evaluation", "load_ground_truth", "evaluation.roc_s"),
    Layer("evaluation", "roc_auc", "evaluation.roc_s"),
    Layer("evaluation", "score_distribution", "evaluation.roc_s"),
    Layer("evaluation", "write_roc_csv", "evaluation.write_s"),
    Layer("evaluation", "write_distribution_csv", "evaluation.write_s"),
    Layer("evaluation", "write_auc_summary_csv", "evaluation.write_s"),
)

# Counters that describe one object seen several times take the largest value;
# every other counter is summed over calls.
_MAX_COUNTERS = frozenset({"features.const_columns", "graph.edges", "graph.vertices",
                           "clustering.c_max", "clustering.s_max"})


def resolve_layers(layers=LAYERS) -> list[Callable]:
    """The function behind each layer; raises LayerMissing if one is gone."""
    functions = []
    for layer in layers:
        try:
            module = importlib.import_module(f"insiderank.{layer.module}")
        except ImportError as exc:
            raise LayerMissing(f"cannot import insiderank.{layer.module}: {exc}") from exc
        fn = getattr(module, layer.name, None)
        if not callable(fn):
            raise LayerMissing(f"wrapped layer function insiderank.{layer.key} no longer exists")
        functions.append(fn)
    return functions


class Recorder:
    """Spans kept in memory: [layer index, start, end, parent span, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, index: int, layer: Layer, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            after = None
            if layer.probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after = layer.probe(bound.arguments)
            span = [index, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span[4] = after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS) -> None:
        """Replace each layer function wherever an insiderank module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "insiderank" or name.startswith("insiderank.")]
        for index, (layer, fn) in enumerate(zip(layers, resolve_layers(layers))):
            wrapped = self.wrap(index, layer, fn)
            for module in modules:
                if getattr(module, layer.name, None) is fn:
                    setattr(module, layer.name, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(commands: list[dict], *, input_rows: int, expected: frozenset[str],
                  layers=LAYERS) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``commands`` holds one record per CLI command: the span file's contents
    plus ``wall_s``, the command's spawn-to-exit time.  ``expected`` names the
    layers (``module.function``) the workload must call; a missing call raises
    LayerMissing rather than reporting a silent zero.
    """
    metrics = {layer.metric: 0.0 for layer in layers if layer.metric}
    counters: dict[str, float] = {}
    calls = {layer.key: 0 for layer in layers}
    wall = startup = rss_rise = 0.0
    for record in commands:
        spans = record["spans"]
        wall += record["wall_s"]
        startup += record["wall_s"] - record["main_s"]
        parses = []
        for (index, *_rest, extra), own in zip(spans, self_times(spans)):
            layer = layers[index]
            calls[layer.key] += 1
            if layer.metric:
                metrics[layer.metric] += own
            for name, value in (extra or {}).items():
                if name.startswith("rss_"):
                    continue
                if name in _MAX_COUNTERS:
                    counters[name] = max(counters.get(name, 0), value)
                else:
                    counters[name] = counters.get(name, 0) + value
            if extra and "rss_before_mb" in extra:
                parses.append(extra)
        if parses:
            rise = max(p["rss_peak_mb"] for p in parses) - min(p["rss_before_mb"] for p in parses)
            rss_rise = max(rss_rise, rise)

    missing = sorted(key for key in expected if calls.get(key, 0) == 0)
    if missing:
        raise LayerMissing(f"wrapped layer function(s) never called: {', '.join(missing)}")

    layer_total = sum(metrics.values())
    rows = counters.get("ingest.rows_parsed", 0)
    rounds = counters.get("clustering.rounds", 0)
    vertices = counters.get("graph.vertices", 0)
    metrics.update({
        "ingest.parse_calls": counters.get("ingest.parse_calls", 0),
        "ingest.rows_parsed": rows,
        "ingest.parse_us_per_row": metrics["ingest.parse_s"] / rows * 1e6 if rows else 0.0,
        "ingest.parses_per_row": rows / input_rows if input_rows else 0.0,
        "ingest.rows_rejected": counters.get("ingest.rows_rejected", 0),
        "ingest.rss_rise_mb": rss_rise,
        "features.const_columns": counters.get("features.const_columns", 0),
        "graph.load_calls": counters.get("graph.load_calls", 0),
        "graph.edges": counters.get("graph.edges", 0),
        "graph.degree_mean": 2 * counters.get("graph.edges", 0) / vertices if vertices else 0.0,
        "clustering.rounds": rounds,
        "clustering.round_ms": metrics["clustering.grasp_s"] / rounds * 1e3 if rounds else 0.0,
        "clustering.clusters": counters.get("clustering.clusters", 0),
        "clustering.yield": counters.get("clustering.clusters", 0) / rounds if rounds else 0.0,
        "clustering.c_max": counters.get("clustering.c_max", 0),
        "clustering.s_max": counters.get("clustering.s_max", 0),
        "centrality.calls": counters.get("centrality.calls", 0),
        "cli.startup_s": startup,
        "cli.residual_s": wall - startup - layer_total,
        "trace.coverage": (startup + layer_total) / wall if wall else 0.0,
    })
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import insiderank.cli as cli

    recorder = Recorder()
    try:
        recorder.install()
    except LayerMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    with open(spans_path, "w") as fh:
        json.dump({"main_s": main_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
