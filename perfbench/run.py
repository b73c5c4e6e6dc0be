"""insiderank benchmark: run one workload through the CLI and report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cap --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 each repetition runs the workload's CLI commands as separate
`python3 -m insiderank.cli` processes and the end-to-end metrics are
reported; with --trace 1 repetitions alternate between traced runs
(perfbench/tracing.py) and untraced ones and the per-layer metrics are
reported.  `--workload all` runs every workload in both modes.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the full report
(samples, artifact digests, machine facts).  Set-up happens several times
per run and reports its median; repetitions then run until --seconds is
used up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import tracing
from checks import (check_clusters, check_scores, digest_mismatches, digests, missing,
                    read_auc_summary)
from workloads import DIGESTED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_REPS = 2  # untraced: two samples; traced: one traced and one untraced
HARD_LIMIT_S = 170.0  # every run ends well inside three minutes

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "auc_mean": "ratio"}
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.parse_calls": "count", "ingest.rows_parsed": "count",
    "ingest.parse_us_per_row": "us", "ingest.parses_per_row": "ratio",
    "ingest.rows_rejected": "count", "ingest.rss_rise_mb": "MB", "ingest.directory_s": "s",
    "features.extract_s": "s", "features.normalize_s": "s", "features.io_s": "s",
    "features.const_columns": "count",
    "graph.build_s": "s", "graph.load_s": "s", "graph.load_calls": "count",
    "graph.edges": "count", "graph.degree_mean": "count",
    "clustering.grasp_s": "s", "clustering.rounds": "count", "clustering.round_ms": "ms",
    "clustering.prune_s": "s", "clustering.io_s": "s", "clustering.clusters": "count",
    "clustering.yield": "ratio", "clustering.c_max": "count", "clustering.s_max": "count",
    "centrality.betweenness_s": "s", "centrality.eigenvector_s": "s",
    "centrality.degree_s": "s", "centrality.write_s": "s", "centrality.calls": "count",
    "ranking.score_s": "s", "ranking.write_s": "s", "ranking.read_s": "s",
    "evaluation.roc_s": "s", "evaluation.write_s": "s",
    "synth.generate_s": "s",
    "cli.startup_s": "s", "cli.residual_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a wrapper guard fired."""


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    commands: list = field(default_factory=list)  # traced: span file records
    digests: dict = field(default_factory=dict)
    error: str | None = None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_command(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process; returns exit code, wall s, user+sys CPU s and peak RSS MB."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _reset_outputs(out_dir: Path, inputs: set[str]) -> None:
    for path in out_dir.iterdir():
        if path.name in inputs:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def run_rep(workload, prep, inputs: set[str], traced: bool, work: Path, hard_deadline: float) -> Rep:
    _reset_outputs(prep.out_dir, inputs)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    rep = Rep(traced)
    log = work / "commands.log"
    for stage in workload.stages:
        cli_args = [stage, "--config", str(prep.config)]
        spans = work / f"spans.{stage}.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), *cli_args]
        else:
            argv = [sys.executable, "-m", "insiderank.cli", *cli_args]
        code, wall, cpu, rss = run_command(argv, env, log, hard_deadline - time.perf_counter())
        rep.wall_s += wall
        rep.cpu_s += cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            rep.error = f"{stage} exited with {code}: {' | '.join(tail)}"
            return rep
        if traced:
            record = json.loads(spans.read_text())
            record["wall_s"] = wall
            rep.commands.append(record)
    absent = missing(prep.out_dir, workload.artifacts)
    if absent:
        rep.error = f"missing artifacts: {', '.join(absent)}"
    rep.digests = digests(prep.out_dir, DIGESTED)
    return rep


def setup(workload, seed: int, work: Path):
    """Set the inputs up SETUP_REPEATS times; keep the last, time all."""
    totals, generators = [], []
    prep = None
    for i in range(SETUP_REPEATS):
        if prep is not None:
            shutil.rmtree(prep.out_dir.parent)
        root = work / f"setup{i}"
        root.mkdir()
        start = time.perf_counter()
        prep = workload.setup(root, seed)
        totals.append(time.perf_counter() - start)
        generators.append(prep.generate_s)
    return prep, totals, generators


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report)."""
    begin = time.perf_counter()
    hard_deadline = begin + HARD_LIMIT_S
    workload = WORKLOADS[name]
    try:
        tracing.resolve_layers()
    except tracing.LayerMissing as exc:
        raise BenchError(str(exc)) from exc
    facts = machine_facts()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prep, setup_totals, generator_times = setup(workload, seed, work)
        inputs = {p.name for p in prep.out_dir.iterdir()}
        deadline = time.perf_counter() + seconds
        reps: list[Rep] = []
        reference: dict | None = None
        problems: list[str] = []
        while True:
            traced = trace and len(reps) % 2 == 0
            rep = run_rep(workload, prep, inputs, traced, work, hard_deadline)
            reps.append(rep)
            if rep.error is None and reference is None:
                reference = rep.digests
                problems = check_scores(prep.out_dir, prep.truth) + check_clusters(prep.out_dir)
                auc = read_auc_summary(prep.out_dir)
            elif rep.error is None:
                differ = digest_mismatches(reference, rep.digests)
                if differ:
                    rep.error = f"artifact digests differ from the first repetition: {', '.join(differ)}"
            if rep.error is not None:
                print(f"perfbench: repetition {len(reps)} failed: {rep.error}", file=sys.stderr)
            typical = statistics.median(r.wall_s for r in reps)
            now = time.perf_counter()
            if len(reps) >= MIN_REPS and now + typical > deadline or now + typical > hard_deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    good = [r for r in reps if r.error is None]
    plain = [r for r in good if not r.traced]
    traced_reps = [r for r in good if r.traced]
    if not plain or (trace and not traced_reps):
        raise BenchError("no successful repetition: " + "; ".join(r.error or "" for r in reps))

    failed = len(reps) - len(good)
    if trace:
        try:
            per_rep = [tracing.layer_metrics(r.commands, input_rows=prep.input_rows,
                                             expected=workload.expected_layers) for r in traced_reps]
        except tracing.LayerMissing as exc:
            raise BenchError(str(exc)) from exc
        values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        values["synth.generate_s"] = statistics.median(generator_times)
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced_reps)
                                      - statistics.median(r.wall_s for r in plain))
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setup_totals),
            "auc_mean": statistics.fmean(auc),
        }
        units = END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": failed == 0 and not problems, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts,
        "samples": {"untraced": len(plain), "traced": len(traced_reps), "setup": len(setup_totals)},
        "wall_s": [r.wall_s for r in plain],
        "traced_wall_s": [r.wall_s for r in traced_reps],
        "setup_s": setup_totals,
        "aucs": auc,
        "failed_share": failed / len(reps),
        "errors": [r.error for r in reps if r.error],
        "check_problems": problems,
        "digests": reference,
        "elapsed_s": time.perf_counter() - begin,
    }
    return result, report


def print_table(name: str, metrics: dict) -> None:
    for key, metric in metrics.items():
        print(f"{name:8s} {key:28s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "insiderank" / "cli.py").is_file():
        print(f"perfbench: no insiderank sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    combined = {}
    try:
        for name, trace in runs:
            result, report = run_workload(name, args.seed, args.seconds, trace)
            print_table(name, result["metrics"])
            if not trace:
                print(f"{name:8s} {'failed_share':28s} {report['failed_share']:>14.6g} ratio")
            combined.setdefault(name, {}).update(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(json.dumps({"report": report}, sort_keys=True))
            print(json.dumps(result, sort_keys=True), flush=True)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"all": combined}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
