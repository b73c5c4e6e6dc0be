"""Self-tests for the benchmark at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 20-user, 5-day corpus and its config; nothing has run on it yet."""
    from insiderank.features import CalendarConfig
    from insiderank.synth import SynthSpec, generate_logs

    root = tmp_path_factory.mktemp("tiny")
    spec = SynthSpec(n_users=20, k_clusters=2, size_range=(4, 5), subspace_range=(4, 6),
                     p_in=0.9, p_out=0.05, n_attributes=20, width=0.05, n_outliers=2, rng_seed=3)
    generate_logs(spec, CalendarConfig(), root / "corpus", n_days=5)
    config = root / "config.json"
    config.write_text(json.dumps({"log_dir": str(root / "corpus"), "out_dir": str(root / "out"),
                                  "grasp_iterations": 20}))
    return root, config


@pytest.fixture(scope="module")
def traced(tiny):
    """The tiny pipeline run once through the traced CLI."""
    root, config = tiny
    spans = root / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "tracing.py"), str(spans),
                           "pipeline", "--config", str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(spans.read_text())
    record["wall_s"] = record["main_s"] + 0.5
    return root / "out", record


def test_metric_names_and_units_follow_the_rules():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_is_reported():
    timed = {layer.metric for layer in tracing.LAYERS if layer.metric}
    assert timed <= set(run.PER_LAYER)


def test_digest_check_flags_changed_and_missing_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "scores.csv").write_text("user_id,score_1\nU1,0.5\n")
        (d / "edges.csv").write_text("src,dst\nU1,U2\n")
    names = ("scores.csv", "edges.csv")
    assert checks.digest_mismatches(checks.digests(a, names), checks.digests(b, names)) == []
    (b / "scores.csv").write_text("user_id,score_1\nU1,0.6\n")
    (b / "edges.csv").unlink()
    assert checks.digest_mismatches(checks.digests(a, names), checks.digests(b, names)) == [
        "edges.csv", "scores.csv"]
    assert checks.missing(b, names) == ["edges.csv"]


def test_guard_fails_when_a_wrapped_function_is_gone():
    gone = tracing.Layer("ingest", "read_log_csv_renamed_away", "ingest.parse_s")
    with pytest.raises(tracing.LayerMissing, match="no longer exists"):
        tracing.resolve_layers((gone,))


def test_guard_fails_when_an_expected_function_is_never_called():
    keys = [layer.key for layer in tracing.LAYERS]
    record = {"main_s": 1.0, "wall_s": 1.5,
              "spans": [[keys.index("evaluation.roc_auc"), 0.0, 1.0, -1, None]]}
    with pytest.raises(tracing.LayerMissing, match="ingest.read_log_csv"):
        tracing.layer_metrics([record], input_rows=0,
                              expected=frozenset({"evaluation.roc_auc", "ingest.read_log_csv"}))


def test_traced_pipeline_calls_every_layer_and_self_times_are_non_negative(traced):
    _, record = traced
    metrics = tracing.layer_metrics([record], input_rows=1,
                                    expected=workloads.WORKLOADS["cap"].expected_layers)
    for name, value in metrics.items():
        assert name in run.PER_LAYER, name
        if name.endswith("_s"):
            assert value >= 0.0, (name, value)
    assert all(own >= 0.0 for own in tracing.self_times(record["spans"]))
    assert metrics["ingest.parse_calls"] == 9  # four logs in ingest and features, email in graph
    assert metrics["clustering.rounds"] == 20
    assert metrics["graph.load_calls"] == 2


def test_self_time_subtracts_direct_children_only():
    spans = [[0, 0.0, 10.0, -1, None], [1, 1.0, 4.0, 0, None], [2, 2.0, 3.0, 1, None],
             [3, 5.0, 6.0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_oracles_accept_real_output_and_reject_tampering(tiny, traced):
    root, _ = tiny
    out, _ = traced
    truth = root / "corpus" / "ground_truth.txt"
    assert checks.check_scores(out, truth) == []
    assert checks.check_clusters(out) == []
    summary = (out / "auc_summary.csv").read_text().splitlines()
    cells = summary[1].split(",")
    cells[3] = "0.123456789"
    (out / "auc_summary.csv").write_text("\n".join([summary[0], ",".join(cells)]) + "\n")
    assert any("score_1" in p for p in checks.check_scores(out, truth))
    lines = (out / "clusters.jsonl").read_text().splitlines()
    assert len(lines) > 1, "the tiny corpus should yield at least one cluster"
    cluster = json.loads(lines[1])
    cluster["subspace"] = cluster["subspace"][:-1]
    lines[1] = json.dumps(cluster)
    (out / "clusters.jsonl").write_text("\n".join(lines) + "\n")
    assert any("subspace" in p for p in checks.check_clusters(out))


def test_repeat_along_time_hits_the_row_count_and_keeps_weekdays(tiny, tmp_path):
    root, _ = tiny
    src, dst = root / "corpus", tmp_path / "history"
    base = {n: (src / n).read_text().splitlines()[1:] for n in workloads.LOG_FILES}
    rows = 5 * sum(len(b) for b in base.values()) // 2
    workloads.repeat_along_time(src, dst, rows, workloads.HISTORY_SHIFT)
    out = {n: (dst / n).read_text().splitlines()[1:] for n in workloads.LOG_FILES}
    assert sum(len(o) for o in out.values()) == rows

    def stamp(row):
        return datetime.strptime(row.split(",")[1], "%m/%d/%Y %H:%M:%S")

    for lines in out.values():
        assert len({line.split(",")[0] for line in lines}) == len(lines)
        assert [stamp(line) for line in lines] == sorted(stamp(line) for line in lines)
    first = stamp(base["logon.csv"][0])
    third_copy = stamp(out["logon.csv"][2 * len(base["logon.csv"])])
    assert third_copy - first == 2 * workloads.HISTORY_SHIFT
    assert third_copy.weekday() == first.weekday()
