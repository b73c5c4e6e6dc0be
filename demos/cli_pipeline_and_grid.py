"""Driving the command line: one pipeline run, then a parameter grid.

Everything the library does is also reachable through the `insiderank`
console script. This demo calls the same entry point in-process: first a
synthetic corpus, then a full pipeline run, then a small grid sweep over
the cluster size floor and subspace floor.
"""

import json
import tempfile
from pathlib import Path

from insiderank.cli import main

with tempfile.TemporaryDirectory(prefix="demo_cli_") as tmp:
    root = Path(tmp)
    corpus = root / "corpus"
    config = {
        "log_dir": str(corpus),
        "out_dir": str(root / "out"),
        "synth_n_users": 30,
        "synth_k_clusters": 3,
        "synth_size_lo": 4,
        "synth_size_hi": 6,
        "synth_n_outliers": 2,
        "synth_n_days": 10,
        "n_min": 3,
        "s_min": 4,
        "grasp_iterations": 300,
        "rng_seed": 23,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    print(f"config at {cfg_path}\n")
    print("== insiderank synth ==")
    assert main(["synth", "--config", str(cfg_path)]) == 0

    print("\n== insiderank pipeline ==")
    assert main(["pipeline", "--config", str(cfg_path)]) == 0

    out = root / "out"
    print("\nartifacts:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}")

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"\nmanifest stage={manifest['stage']} seed={manifest['config']['rng_seed']}")
    print(f"timings: { {k: round(v, 2) for k, v in manifest['timings'].items()} }")

    print("\n== insiderank pipeline --grid \"n_min=3,4;s_min=3,5\" ==")
    grid_cfg = dict(config, out_dir=str(root / "grid"))
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps(grid_cfg))
    assert main(["pipeline", "--config", str(grid_path),
                 "--grid", "n_min=3,4;s_min=3,5"]) == 0

    print("\ncombined AUC summary (one row per grid case):")
    print((root / "grid" / "auc_summary.csv").read_text())
