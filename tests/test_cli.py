import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import insiderank.cli as cli
from insiderank.cli import _case_label, _grid_cases, main
from insiderank.ingest import LOG_LAYOUTS, EventTable
from insiderank.synth import generate_logs
from test_synth import _pinned_case

SPEED_KEYS = dict(
    synth_n_users=14,
    synth_k_clusters=2,
    synth_size_lo=3,
    synth_size_hi=4,
    synth_n_outliers=1,
    synth_n_days=8,
    grasp_iterations=150,
)


def write_config(path, **overrides):
    cfg = dict(SPEED_KEYS)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared")
    config = write_config(root / "config.json", log_dir=str(root / "corpus"),
                          out_dir=str(root / "synth_out"))
    assert main(["synth", "--config", config]) == 0
    return root / "corpus"


# Rows appended to the synthetic logs: every reject reason, an unpadded
# timestamp that parses, and an email whose internal recipient resolves to no
# user, which rejects it for edges only.
MESSY_ROWS = {
    "logon.csv": ["L900001,01/05/2010",
                  "L900002,13/45/2010 08:00:00,U0001,PC-0001,Logon",
                  "L900003,01/05/2010 08:00:00,,PC-0001,Logon",
                  "L900004,01/05/2010 08:00:00,U0001,PC-0001,Dance",
                  "L900005,1/5/2010 8:01:02,U0001,PC-0001,Logon"],
    "device.csv": ["D900001",
                   "D900002,01/05/2010 09:00:00,U0002,PC-0002,Eject"],
    "email.csv": ["M900001,01/05/2010 09:00:00,U0001",
                  "M900002,01/05/2010 09:10:00,U0001,PC-0001,u0002@dtaa.com,,,"
                  "u0001@dtaa.com,big,0,",
                  "M900003,01/05/2010 09:20:00,U0001,PC-0001,ghost@dtaa.com;u0002@dtaa.com,,,"
                  "u0001@dtaa.com,100,0,",
                  "M900004,02/30/2010 09:30:00,U0001,PC-0001,u0002@dtaa.com,,,"
                  "u0001@dtaa.com,100,0,"],
    "file.csv": ["F900001,01/05/2010 10:00:00,U0003,PC-0003,,",
                 "F900002,01/05/2010"],
}


@pytest.fixture(scope="module")
def messy_corpus(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("messy") / "corpus"
    shutil.copytree(corpus, root)
    for name, rows in MESSY_ROWS.items():
        with open(root / name, "a") as fh:
            fh.write("".join(row + "\r\n" for row in rows))
    return root


def run_pipeline(tmp_path, corpus, name="out", **overrides):
    config = write_config(tmp_path / f"{name}.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / name), **overrides)
    assert main(["pipeline", "--config", config]) == 0
    return tmp_path / name, config


def run_cli(*args, cwd=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "insiderank.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_synth_then_pipeline_produces_artifacts(tmp_path, corpus, capsys):
    out, _ = run_pipeline(tmp_path, corpus)
    for name in ("directory.csv", "rejects.csv", "nodes.csv", "nodes.norm.csv",
                 "edges.csv", "clusters.jsonl", "centrality.csv", "scores.csv",
                 "ranking.1.csv", "roc.1.csv", "distribution.1.csv",
                 "auc_summary.csv", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "auc_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["case", "n_min", "s_min"]
    assert len(rows) == 2 and rows[1][0] == "A"
    stdout = capsys.readouterr().out
    assert "ingest:" in stdout and "eval[A]:" in stdout


def test_stage_by_stage_matches_artifacts(tmp_path, corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    for stage in ("ingest", "features", "graph", "cluster", "rank", "eval"):
        assert main([stage, "--config", config]) == 0, stage
    assert (tmp_path / "out" / "scores.csv").exists()
    assert (tmp_path / "out" / "auc_summary.csv").exists()


def test_missing_artifact_diagnostics(tmp_path, corpus, capsys):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["cluster", "--config", config]) == 1
    assert "missing graph artifacts" in capsys.readouterr().err
    assert main(["rank", "--config", config]) == 1
    assert "missing graph artifacts" in capsys.readouterr().err
    assert main(["eval", "--config", config]) == 1
    assert "missing score artifact" in capsys.readouterr().err
    assert main(["features", "--config", config]) == 1
    assert "missing directory artifact" in capsys.readouterr().err


def test_missing_ground_truth_diagnostic(tmp_path, corpus, capsys):
    private = tmp_path / "corpus"
    shutil.copytree(corpus, private)
    (private / "ground_truth.txt").unlink()
    out, config = run_pipeline(tmp_path, private)  # pipeline skips eval politely
    assert not (out / "auc_summary.csv").exists()
    assert "skipping eval" in capsys.readouterr().out
    assert main(["eval", "--config", config]) == 1
    assert "missing ground truth" in capsys.readouterr().err


def test_invalid_config_diagnostics(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"no_such_key": 1}))
    assert main(["ingest", "--config", str(bad_key)]) == 1
    assert "invalid config: unknown key" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["ingest", "--config", str(bad_json)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 1
    assert "no such file" in capsys.readouterr().err

    bad_params = tmp_path / "params.json"
    bad_params.write_text(json.dumps({"gamma_min": 1.5, "out_dir": str(tmp_path / "o")}))
    assert main(["cluster", "--config", str(bad_params)]) == 1

    assert main(["cluster", "--grid", "n_min=3,4"]) == 1
    assert "--grid applies to the pipeline stage" in capsys.readouterr().err

    assert main(["pipeline", "--seed", "-3"]) == 1
    assert "--seed must be non-negative" in capsys.readouterr().err


def test_calendar_times_with_a_utc_offset_are_refused(tmp_path, capsys):
    for offsets in ({"bh_start": "08:00+01:00"},
                    {"bh_start": "08:00+01:00", "bh_end": "17:00+01:00"}):
        config = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"), **offsets)
        assert main(["synth", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: calendar: "), err
        assert err.count("\n") == 1, err


def test_config_types_follow_defaults(tmp_path, capsys):
    out = str(tmp_path / "o")
    accepted = {"w": 0, "log_dir": str(tmp_path), "ground_truth": None}
    cfg = cli._load_config(write_config(tmp_path / "ok.json", out_dir=out, **accepted), {})
    assert type(cfg["w"]) is float  # a decimal key's integer is read as a float

    refused = [("n_min", True), ("grasp_iterations", 2.5), ("w", "0.1"), ("log_dir", 3),
               ("business_days", "0-4"), ("business_days", [1.5]), ("business_days", ["3"]),
               ("business_days", [True]), ("out_dir", None),
               ("a_exp", float("inf")), ("eigen_tol", float("nan"))]
    for i, (key, value) in enumerate(refused):
        config = write_config(tmp_path / f"{i}.json", **{"out_dir": out, key: value})
        assert main(["features", "--config", config]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {key} must be "), (key, err)
        assert err.count("\n") == 1, (key, err)


@pytest.mark.parametrize("key, value", [
    ("synth_subspace_lo", 8), ("synth_subspace_hi", 10), ("synth_p_in", 0.9),
    ("synth_p_out", 0.05), ("synth_n_attributes", 40), ("synth_width", 0.05),
])
def test_graph_only_synth_keys_are_gone(tmp_path, key, value):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
    proc = run_cli("synth", "--config", str(config), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == f"error: invalid config: unknown key(s) ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_synth_refuses_zero_days(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), synth_n_days=0)
    assert main(["synth", "--config", config]) == 1
    assert capsys.readouterr().err == "error: invalid config: synth: n_days must be positive\n"


# A value for each synth key, other than its default, that changes the corpus.
SYNTH_CHANGES = {"synth_n_users": 41, "synth_k_clusters": 2, "synth_size_lo": 5,
                 "synth_size_hi": 7, "synth_n_outliers": 2, "synth_n_days": 19}


def test_every_synth_key_changes_the_corpus(tmp_path, capsys):
    assert sorted(SYNTH_CHANGES) == sorted(k for k in cli.DEFAULTS if k.startswith("synth_"))

    def corpus_bytes(name, **overrides):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / name), **overrides}))
        assert main(["synth", "--config", str(cfg)]) == 0
        corpus = tmp_path / name / "corpus"
        return {p.relative_to(corpus): p.read_bytes() for p in corpus.rglob("*") if p.is_file()}

    default = corpus_bytes("default")
    for key, value in SYNTH_CHANGES.items():
        assert value != cli.DEFAULTS[key]
        assert corpus_bytes(key, **{key: value}) != default, key


def test_threads_knob_is_gone(tmp_path):
    config = tmp_path / "threads.json"
    config.write_text(json.dumps({"threads": 2, "out_dir": str(tmp_path / "out")}))
    proc = run_cli("ingest", "--config", str(config), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: invalid config: unknown key(s) ['threads']\n"

    proc = run_cli("ingest", "--threads", "2", cwd=tmp_path)
    assert proc.returncode == 2
    assert "unrecognized arguments: --threads 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def built_out(corpus, tmp_path_factory):
    """Output directory of one pipeline run over the shared corpus."""
    out, _ = run_pipeline(tmp_path_factory.mktemp("built"), corpus)
    return out


@pytest.mark.parametrize("stage, key, value", [
    ("cluster", "n_min", None),
    ("cluster", "rng_seed", None),
    ("rank", "eigen_tol", None),
    ("rank", "centrality_outside_sum", "no"),
])
def test_mistyped_config_value_is_one_line_error(tmp_path, corpus, built_out, stage, key, value):
    # the stage's inputs exist, so only the config value can stop it
    out = tmp_path / "out"
    shutil.copytree(built_out, out)
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus), out_dir=str(out),
                          **{key: value})
    proc = run_cli(stage, "--config", config)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: invalid config: {key} must be "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


# Every CSV reader the CLI uses, with a stage that reads that file first.
@pytest.mark.parametrize("stage, name", [
    ("ingest", "corpus/email.csv"),
    ("ingest", "corpus/ldap/2009-12.csv"),
    ("features", "out/directory.csv"),
    ("cluster", "out/nodes.norm.csv"),
    ("cluster", "out/edges.csv"),
    ("eval", "out/scores.csv"),
])
def test_oversized_csv_field_is_one_line_error(tmp_path, corpus, built_out, stage, name):
    shutil.copytree(corpus, tmp_path / "corpus")
    shutil.copytree(built_out, tmp_path / "out")
    path = tmp_path / name
    line = len(path.read_text().splitlines()) + 1
    # a field one and a half times csv.field_size_limit() long, in a column
    # that is never parsed where the file has one
    with open(path, "a") as fh:
        if path.name == "email.csv":
            fh.write("M999999,01/05/2010 09:00:00,U0001,PC-0001,u0002@dtaa.com,,,"
                     "u0001@dtaa.com,100,0,")
        fh.write("x" * 200_000 + "\r\n")
    config = write_config(tmp_path / "cfg.json", log_dir=str(tmp_path / "corpus"),
                          out_dir=str(tmp_path / "out"))
    proc = run_cli(stage, "--config", config)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: invalid inputs: "), proc.stderr
    assert f"{path.name}:{line}: field larger than field limit" in proc.stderr, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


# Every CSV artifact reader, with a stage that reads that file first.
ARTIFACT_READERS = [
    ("ingest", "corpus/ldap/2009-12.csv"),
    ("features", "out/directory.csv"),
    ("cluster", "out/nodes.norm.csv"),
    ("cluster", "out/edges.csv"),
    ("eval", "out/scores.csv"),
]


# Each edit is made to the first data row: "short" cuts it to one field,
# "non-numeric" puts a word in its last (numeric) cell, and "blank" puts a
# blank line before it, which the reader skips.
@pytest.mark.parametrize("stage, name, edit", [
    *((stage, name, edit) for stage, name in ARTIFACT_READERS for edit in ("short", "blank")),
    ("cluster", "out/nodes.norm.csv", "non-numeric"),
    ("eval", "out/scores.csv", "non-numeric"),
])
def test_malformed_artifact_row_names_its_file_and_line(tmp_path, corpus, built_out, capsys,
                                                         stage, name, edit):
    shutil.copytree(corpus, tmp_path / "corpus")
    shutil.copytree(built_out, tmp_path / "out")
    path = tmp_path / name
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    edited = {"short": [fields[0]], "non-numeric": [",".join([*fields[:-1], "abc"])],
              "blank": ["", first]}[edit]
    path.write_text("\n".join([header, *edited, *rest]) + "\n")
    config = write_config(tmp_path / "cfg.json", log_dir=str(tmp_path / "corpus"),
                          out_dir=str(tmp_path / "out"))
    code = main([stage, "--config", config])
    err = capsys.readouterr().err
    if edit == "blank":
        assert code == 0, err
    else:
        assert code == 1
        assert err.startswith(f"error: invalid inputs: {path}:2: "), err
        assert err.count("\n") == 1, err


def test_input_path_that_is_a_directory_is_one_line_error(tmp_path, corpus, built_out):
    shutil.copytree(built_out, tmp_path / "out")
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"), ground_truth=str(tmp_path))
    proc = run_cli("eval", "--config", config)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: cannot access {tmp_path}: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_path_under_a_file_is_one_line_error(tmp_path):
    (tmp_path / "taken").write_text("")
    config = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "taken"))
    proc = run_cli("synth", "--config", config)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: cannot access {tmp_path / 'taken' / 'corpus'}: Not a directory\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_disk_is_one_line_error(tmp_path, corpus):
    # a write to /dev/full fails with ENOSPC, an OSError that names no file
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "rejects.csv").symlink_to("/dev/full")
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    proc = run_cli("ingest", "--config", config)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: No space left on device\n"


def test_grid_pipeline_mirrors_case_table(tmp_path, corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", config, "--grid", "n_min=3,4;s_min=2..3"]) == 0
    out = tmp_path / "out"
    with open(out / "auc_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case", "n_min", "s_min", *(f"score_{k}" for k in range(1, 7))]
    assert [r[0] for r in rows[1:]] == ["A", "B", "C", "D"]
    assert [(int(r[1]), int(r[2])) for r in rows[1:]] == [(3, 2), (3, 3), (4, 2), (4, 3)]
    for label in ("A", "B", "C", "D"):
        case = out / "cases" / label
        for name in ("clusters.jsonl", "scores.csv", "roc.1.csv", "auc_summary.csv"):
            assert (case / name).exists(), (label, name)


def test_grid_over_another_key_names_it_in_the_case_table(tmp_path, corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"), grasp_iterations=20)
    assert main(["pipeline", "--config", config, "--grid", "w=0.1,0.2;n_min=3"]) == 0
    with open(tmp_path / "out" / "auc_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "w" and len(rows[0]) == 10
    assert [(r[0], r[1], r[-1]) for r in rows[1:]] == [("A", "3", "0.1"), ("B", "3", "0.2")]


def test_grid_pipeline_shares_graph_and_centralities(tmp_path, corpus, monkeypatch):
    calls = {"load_graph": 0, "compute_centralities": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", config, "--grid", "n_min=3,4"]) == 0
    assert calls == {"load_graph": 1, "compute_centralities": 1}
    cases = tmp_path / "out" / "cases"
    assert (cases / "A" / "centrality.csv").read_bytes() == \
        (cases / "B" / "centrality.csv").read_bytes()


def test_bad_grid_rejected(tmp_path, corpus, capsys):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    for grid in ("bogus=1", "n_min", "n_min=", "n_min=5..3", "w=NaN", "w=abc",
                 "n_min=3;n_min=4", "n_min=3,3", "gamma_min=1,1.0"):
        assert main(["pipeline", "--config", config, "--grid", grid]) == 1, grid
        err = capsys.readouterr().err
        assert err.startswith("error: invalid grid: ") and err.count("\n") == 1, (grid, err)


def test_grid_values_take_their_key_types(tmp_path, corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    proc = run_cli("pipeline", "--config", config, "--grid", "n_min=3.0")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: invalid grid: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr

    assert main(["pipeline", "--config", config, "--grid", "gamma_min=1"]) == 0
    header = (tmp_path / "out" / "clusters.jsonl").read_text().splitlines()[0]
    assert '"gamma_min": 1.0' in header
    assert _grid_cases("gamma_min=1;w=0..1") == [
        ("A", {"gamma_min": 1.0, "w": 0.0}), ("B", {"gamma_min": 1.0, "w": 1.0}),
    ]


@pytest.mark.parametrize("args", [
    ("pipeline", "--grid", "n_min=3.0"),
    ("ingest",),
    ("cluster",),
    ("rank",),
])
def test_failed_run_creates_no_output_directory(tmp_path, monkeypatch, args):
    # default config in an empty working directory: the run fails on its
    # arguments or missing inputs before writing anything
    monkeypatch.delenv("INSIDERANK_OUT", raising=False)
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_oracle_bound_diagnostic(tmp_path, corpus, capsys):
    # clustering always runs GRASP: the keys that switched it to the exact
    # enumerator are refused by every stage before any work is done
    config = write_config(
        tmp_path / "cfg.json", log_dir=str(corpus), out_dir=str(tmp_path / "out"),
        use_exact=True, oracle_bound=10,
    )
    for stage in ("ingest", "features", "graph", "cluster", "rank", "pipeline"):
        assert main([stage, "--config", config]) == 1, stage
        err = capsys.readouterr().err
        assert err == "error: invalid config: unknown key(s) ['oracle_bound', 'use_exact']\n", (
            stage, err)
    assert not (tmp_path / "out").exists()


def test_reruns_are_byte_identical(tmp_path, corpus):
    out1, _ = run_pipeline(tmp_path, corpus, name="one")
    out2, _ = run_pipeline(tmp_path, corpus, name="two")
    # a fresh interpreter also draws a fresh string-hash seed
    config3 = write_config(tmp_path / "three.json", log_dir=str(corpus),
                           out_dir=str(tmp_path / "three"))
    proc = run_cli("pipeline", "--config", config3)
    assert proc.returncode == 0, proc.stderr
    out3 = tmp_path / "three"
    for name in ("nodes.norm.csv", "edges.csv", "clusters.jsonl", "centrality.csv",
                 "scores.csv", "ranking.1.csv", "auc_summary.csv"):
        reference = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == reference, name
        assert (out3 / name).read_bytes() == reference, name


def test_stale_clusters_artifact_diagnostic(tmp_path, corpus):
    out, config = run_pipeline(tmp_path, corpus)
    header, first, *rest = (out / "clusters.jsonl").read_text().splitlines()
    row = json.loads(first)
    edits = {
        "unknown member": dict(row, members=["NOSUCHUSER", *row["members"][1:]]),
        "unknown subspace attribute": dict(row, subspace=["no_such_attr"]),
        "missing key": {k: v for k, v in row.items() if k != "members"},
    }
    for message, record in edits.items():
        lines = [header, json.dumps(record), *rest]
        (out / "clusters.jsonl").write_text("\n".join(lines) + "\n")
        proc = run_cli("rank", "--config", config)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: invalid inputs: "), proc.stderr
        assert "clusters.jsonl:2: " + message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_env_var_overrides_output_dir(tmp_path, corpus, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("INSIDERANK_OUT", str(env_out))
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "ignored"))
    assert main(["ingest", "--config", config]) == 0
    assert (env_out / "directory.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_unsupported_logs_warned_and_skipped(tmp_path, corpus, capsys):
    private = tmp_path / "corpus"
    shutil.copytree(corpus, private)
    (private / "http.csv").write_text("id,date,user,pc,url\n")
    (private / "psychometric.csv").write_text("employee_name,user_id,O,C,E,A,N\n")
    config = write_config(tmp_path / "cfg.json", log_dir=str(private),
                          out_dir=str(tmp_path / "out"))
    assert main(["ingest", "--config", config]) == 0
    err = capsys.readouterr().err
    assert "skipping unsupported log file: http.csv" in err
    assert "skipping unsupported log file: psychometric.csv" in err


def test_synth_manifest_counts_the_rows_of_each_log(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["synth", "--config", config]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    rows = manifest["stats"]["synth"]["rows"]
    assert sorted(rows) == sorted(layout.file_name for layout in LOG_LAYOUTS.values())
    for name, count in rows.items():
        with open(corpus / name, newline="") as fh:
            assert count == len(list(csv.reader(fh))) - 1 > 0, name
    assert f"corpus of {sum(rows.values())} log rows under" in capsys.readouterr().out


def test_manifest_records_run(tmp_path, messy_corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(messy_corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", config, "--seed", "9"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stage"] == "pipeline"
    assert manifest["seed"] == 9
    assert manifest["config"]["rng_seed"] == 9
    assert "total" in manifest["timings"] and "cluster:A" in manifest["timings"]
    inputs = manifest["inputs"]
    assert any(path.endswith("logon.csv") for path in inputs)
    assert all(len(digest) == 64 for digest in inputs.values())
    assert any(path.endswith("scores.csv") for path in manifest["outputs"])
    grasp = manifest["stats"]["grasp:out"]
    assert grasp["rounds"] == SPEED_KEYS["grasp_iterations"]
    assert grasp["rounds"] >= grasp["valid_rounds"] >= grasp["unique_clusters"]
    assert grasp["unique_clusters"] >= grasp["admitted_clusters"] == manifest["stats"]["clusters:out"]
    assert grasp["growth_steps"] > 0 and grasp["local_search_moves"] >= 0
    # one scan per move and one that finds none, for each grown set searched
    searched = grasp["valid_rounds"] - grasp["local_search_cache_hits"]
    assert grasp["local_search_scans"] >= searched > 0
    assert grasp["swap_bases_skipped"] >= 0 and grasp["removes_prefiltered"] >= 0
    assert grasp["growth_s"] > 0 and grasp["local_search_s"] > 0

    ingest = manifest["stats"]["ingest"]
    for name in MESSY_ROWS:
        with open(messy_corpus / name, newline="") as fh:
            assert ingest["rows_parsed"][name] == len(list(csv.reader(fh))) - 1, name
    assert ingest["rejected_by_reason"] == {
        "short row": 4, "bad timestamp": 2, "empty user": 1, "unknown activity": 2,
        "non-integer size": 1, "empty filename": 1,
    }
    assert ingest["rejected"] == 11
    assert sum(ingest["events"].values()) == sum(ingest["rows_parsed"].values()) - 11
    with open(tmp_path / "out" / "nodes.csv", newline="") as fh:
        columns = list(zip(*list(csv.reader(fh))[1:]))[1:]
    features = manifest["stats"]["features"]
    assert features["constant_columns"] == sum(len(set(c)) == 1 for c in columns) > 0
    graph = manifest["stats"]["graph"]
    assert graph["rejected_by_reason"] == {
        "short row": 1, "non-integer size": 1, "unresolved address": 1, "bad timestamp": 1,
    }
    edges = (tmp_path / "out" / "edges.csv").read_text().splitlines()
    assert graph["n_edges"] == len(edges) - 1 and graph["n_vertices"] == 14


def test_single_stages_keep_earlier_manifest_stats(tmp_path, corpus):
    out, config = run_pipeline(tmp_path, corpus)
    total = json.loads((out / "manifest.json").read_text())["timings"]["total"]
    for stage in ("cluster", "rank", "eval"):
        assert main([stage, "--config", config]) == 0, stage
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "eval"
    stats = manifest["stats"]
    assert {"ingest", "features", "graph", "grasp:out", "clusters:out"} <= set(stats)
    assert stats["grasp:out"]["rounds"] == SPEED_KEYS["grasp_iterations"]
    assert {"ingest", "cluster", "rank", "eval", "total"} <= set(manifest["timings"])
    assert manifest["timings"]["total"] == total  # the pipeline's, not the last stage's
    assert any(path.endswith("logon.csv") for path in manifest["inputs"])
    assert any(path.endswith("clusters.jsonl") for path in manifest["inputs"])
    outputs = manifest["outputs"]
    assert len(outputs) == len(set(outputs))
    assert any(path.endswith("directory.csv") for path in outputs)


def test_pipeline_parses_each_log_once(tmp_path, messy_corpus, monkeypatch):
    parsed = []
    read_log_csv = cli.read_log_csv

    def counted(path, kind, **kwargs):
        parsed.append(Path(path).name)
        return read_log_csv(path, kind, **kwargs)

    monkeypatch.setattr(cli, "read_log_csv", counted)
    run_pipeline(tmp_path, messy_corpus)
    assert sorted(parsed) == ["device.csv", "email.csv", "file.csv", "logon.csv"]


def test_pipeline_holds_one_copy_of_the_events(tmp_path, messy_corpus, monkeypatch):
    joined, grouped, graphed, ingested = [], [], [], []
    concat, group_by_user = EventTable.concat.__func__, cli.group_by_user
    build_graph, stage_ingest = cli.build_graph, cli.stage_ingest

    def counted_concat(cls, tables):
        if len(tables) > 1:
            caller = sys._getframe(1)
            joined.append((caller.f_code.co_name, caller.f_back.f_code.co_name, len(tables)))
        return concat(cls, tables)

    def counted_group(tables):
        grouped.append(list(tables))
        return group_by_user(grouped[-1])

    def counted_build(directory, events, *args, **kwargs):
        graphed.append(events)
        return build_graph(directory, events, *args, **kwargs)

    def counted_ingest(*args):
        ingested.append(stage_ingest(*args))
        return ingested[-1]

    monkeypatch.setattr(EventTable, "concat", classmethod(counted_concat))
    monkeypatch.setattr(cli, "group_by_user", counted_group)
    monkeypatch.setattr(cli, "build_graph", counted_build)
    monkeypatch.setattr(cli, "stage_ingest", counted_ingest)
    run_pipeline(tmp_path, messy_corpus)
    # parse_log_file joins the batches of one file; only ingest joins files
    assert [call for call in joined if call[0] != "parse_log_file"] == \
        [("_load_events", "stage_ingest", 4)]
    [(events, _, _)] = ingested
    assert len(grouped) == 1 and len(grouped[0]) == 1 and grouped[0][0] is events
    assert len(graphed) == 1 and graphed[0] is events


def test_pipeline_matches_single_stages_byte_for_byte(tmp_path, messy_corpus):
    piped, _ = run_pipeline(tmp_path, messy_corpus, name="piped")
    staged = tmp_path / "staged"
    staged_config = write_config(tmp_path / "staged.json", log_dir=str(messy_corpus),
                                 out_dir=str(staged))
    for stage in ("ingest", "features", "graph", "cluster", "rank", "eval"):
        assert main([stage, "--config", staged_config]) == 0, stage
    artifacts = sorted(p.name for p in piped.iterdir() if p.name != "manifest.json")
    assert artifacts == sorted(p.name for p in staged.iterdir() if p.name != "manifest.json")
    assert {"rejects.csv", "nodes.csv", "nodes.norm.csv", "edges.csv", "graph_rejects.csv",
            "clusters.jsonl", "centrality.csv", "scores.csv", "auc_summary.csv",
            *(f"{kind}.{k}.csv" for kind in ("ranking", "roc", "distribution")
              for k in range(1, 7))} <= set(artifacts)
    for name in artifacts:
        assert (piped / name).read_bytes() == (staged / name).read_bytes(), name
    rejects = (piped / "rejects.csv").read_text()
    for name in MESSY_ROWS:
        assert name in rejects, name
    graph_rejects = (piped / "graph_rejects.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in graph_rejects[1:]] == \
        ["email.csv"] * 3 + ["<email-events>"]
    assert "M900003" in graph_rejects[-1] and "ghost@dtaa.com" in graph_rejects[-1]


@pytest.mark.parametrize("rows", [
    [],
    ["L1,13/45/2010 08:00:00,U0001,PC-0001,Logon", "L2,01/05/2010 08:00:00,U0001,PC-0001,Dance"],
], ids=["header-only", "all-rejected"])
def test_pipeline_runs_on_a_logon_log_without_events(tmp_path, corpus, rows):
    private = tmp_path / "corpus"
    shutil.copytree(corpus, private)
    (private / "logon.csv").write_text("".join(
        line + "\r\n" for line in ["id,date,user,pc,activity", *rows]))
    config = write_config(tmp_path / "cfg.json", log_dir=str(private),
                          out_dir=str(tmp_path / "out"))
    proc = run_cli("pipeline", "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    with open(tmp_path / "out" / "rejects.csv", newline="") as fh:
        rejected = [row[:2] for row in csv.reader(fh) if row[0] == "logon.csv"]
    assert rejected == [["logon.csv", str(line)] for line in range(2, len(rows) + 2)]
    assert (tmp_path / "out" / "auc_summary.csv").exists()


def test_empty_nodes_table_diagnostic(tmp_path, corpus):
    config = write_config(tmp_path / "cfg.json", log_dir=str(corpus),
                          out_dir=str(tmp_path / "out"))
    assert main(["ingest", "--config", config]) == 0
    (tmp_path / "out" / "nodes.norm.csv").write_text("")
    (tmp_path / "out" / "edges.csv").write_text("src,dst\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for stage in ("graph", "cluster", "rank"):
        proc = subprocess.run([sys.executable, "-m", "insiderank.cli", stage, "--config", config],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (stage, proc.stderr)
        assert proc.stderr.startswith("error:"), (stage, proc.stderr)
        assert "nodes.norm.csv" in proc.stderr, (stage, proc.stderr)
        assert "Traceback" not in proc.stderr, (stage, proc.stderr)


def test_case_labels_and_grid_order():
    assert [_case_label(i) for i in range(4)] == ["A", "B", "C", "D"]
    assert _case_label(25) == "Z" and _case_label(26) == "AA" and _case_label(27) == "AB"
    cases = _grid_cases("n_min=3,4,5;s_min=2..10")
    assert len(cases) == 27
    assert cases[0] == ("A", {"n_min": 3, "s_min": 2})
    assert cases[-1] == ("AA", {"n_min": 5, "s_min": 10})
    assert _grid_cases(None) == [("A", {})]
    assert _grid_cases("gamma_min=0.4,0.6") == [
        ("A", {"gamma_min": 0.4}), ("B", {"gamma_min": 0.6}),
    ]


# sha256 of the clusters.jsonl that pipeline writes for the synth corpora of
# PINNED_SYNTH: the CLI's default corpus at seeds 1 and 2, run at default
# settings with --seed, and the benchmark's cap corpus at seed 1, run as the
# benchmark runs it (100 GRASP rounds, rng_seed 0).  Taken from the GRASP
# that grew one round at a time; growth in lock-step must keep every byte.
PINNED_CLUSTERS = {
    "default-1": "a7d91f02cd7c9efd28ffc304246d157b2d4463ec7aa81279c1dde0bb045867b5",
    "default-2": "84be0c4d1bb76f958e094b23236bef87d8afaf1573b8f5781ff3099367dd8371",
    "cap-1": "3106c1488104926b7d999161514dcd9f9217b295c843090980578a85f20456e1",
}


# sha256 of the CSV artifacts that the same runs write before clustering,
# taken when each module formatted its own floats with repr().  None of them
# goes through BLAS, so their bytes do not depend on the host.
PINNED_CSV = {
    "cap-1": {
        "directory.csv": "cfc3d746284ff102a492e80e5c29a70608cd69da632ce9711388007e7509ee36",
        "rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
        "nodes.csv": "2a2e0af624f528c91bcb1d49d89feaece2a9e76acd3a6835fdbe5d9a2c428952",
        "nodes.norm.csv": "78e9c44966d7d86c69027108b3cc26f6fcc564cb356c344827a4013ef83af262",
        "edges.csv": "fe9dc25460d2151f3c8643549cf3bc244dba4ea44717b6540a6e57048ff66245",
        "graph_rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
    },
    "default-1": {
        "directory.csv": "e6bb3cb01d8abb2879987bf77918a4f6cf4ffa8519c8238d79fbaef07c64a7dd",
        "rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
        "nodes.csv": "412172e9922c1e6bfb861cd00d9d680fed80d34dd0584ac6f66d2314d58669af",
        "nodes.norm.csv": "d3f778e31440eff858b77942968f9d520cebb2cd3596a28894622dcd305dff74",
        "edges.csv": "f817a1c086efdea9d104861f597b0259b864d162d78f1d839e0b61eacbd4428a",
        "graph_rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
    },
    "default-2": {
        "directory.csv": "3c5a58f36e46530433ee494e9ba83447f024b3ed300af4a5d6bab4628a2332ec",
        "rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
        "nodes.csv": "e5bbb9158442fc21e7b559b40ca18c09774fde82d1794cfba5e2cbbbca6090ce",
        "nodes.norm.csv": "9270e0a28f271bd799c652cf45522da9ec8ca70d9507ba700bfb81f2bfe5264f",
        "edges.csv": "2a6464c53c0465254d359c27fcf64ae28ba638450eac14cf692cde031dee8192",
        "graph_rejects.csv": "54d5cb39d1b90a1e7496a705f1d75f387e9d895a89bde3f23c2a12e01fed5752",
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_CLUSTERS))
def test_pipeline_clusters_are_pinned(tmp_path, case):
    spec, calendar, n_days = _pinned_case(case)
    generate_logs(spec, calendar, tmp_path / "corpus", n_days=n_days)
    name, seed = case.rsplit("-", 1)
    cfg = {"log_dir": str(tmp_path / "corpus"), "out_dir": str(tmp_path / "out")}
    args = ["--seed", seed] if name == "default" else []
    if name == "cap":
        cfg["grasp_iterations"] = 100
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(tmp_path / "config.json"), *args]) == 0
    written = {artifact: hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest()
               for artifact in ("clusters.jsonl", *PINNED_CSV[case])}
    assert written == {"clusters.jsonl": PINNED_CLUSTERS[case], **PINNED_CSV[case]}
