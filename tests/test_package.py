"""The package namespace loads lazily, and only the CLI sets OpenBLAS's environment.

Each test runs in a fresh interpreter whose environment has no
OPENBLAS_THREAD_TIMEOUT, because whether numpy is loaded and what the
environment holds depend on what the process imported first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import insiderank

SRC = Path(insiderank.__file__).parents[1]

# The public names of the package, as it exported them when it imported
# every module eagerly.
EXPORTED = """
    ATTRIBUTE_NAMES AttributeVector AttributedGraph CalendarConfig CentralityTable
    ClusterParams ClusteringResult EventTable GroundTruth NonConvergenceError
    OracleBoundExceeded OrgDirectory OutlierScoreTable RejectReport RocCurve SynthSpec
    TwofoldCluster UserRecord attribute_matrix betweenness_centrality build_graph
    compute_centralities compute_scores degree_centrality degree_profile
    eigenvector_centrality enumerate_clusters_exact extract_attributes
    generate_attributed_graph generate_logs grasp_cluster group_by_user load_graph
    load_ground_truth load_ldap_snapshots max_subspace normalize_matrix prune_redundant
    quality quasi_clique_gamma rank_users read_log_csv roc_auc score_distribution
    __version__
""".split()


def run_python(script: str, **env_vars: str) -> dict:
    """Run ``script`` in a clean interpreter and return the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(PYTHONPATH=str(SRC), **env_vars)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_nothing_and_leaves_the_environment_alone():
    seen = run_python(
        "import json, os, sys; import insiderank; print(json.dumps({"
        "'modules': sorted(m for m in sys.modules if m == 'numpy' or m.startswith('insiderank.')),"
        "'timeout': os.environ.get('OPENBLAS_THREAD_TIMEOUT')}))")
    assert seen == {"modules": [], "timeout": None}


def test_the_cli_lets_idle_blas_workers_sleep_unless_the_user_chose():
    script = ("import json, os, sys; import insiderank.cli; print(json.dumps({"
              "'timeout': os.environ.get('OPENBLAS_THREAD_TIMEOUT'),"
              "'numpy': 'numpy' in sys.modules}))")
    assert run_python(script) == {"timeout": "4", "numpy": True}
    assert run_python(script, OPENBLAS_THREAD_TIMEOUT="30") == {"timeout": "30", "numpy": True}


def test_every_exported_name_is_its_defining_modules_object():
    seen = run_python(
        "import importlib, json, pkgutil, insiderank\n"
        "values = {name: getattr(insiderank, name) for name in insiderank.__all__}\n"
        "modules = [importlib.import_module(f'insiderank.{m.name}')\n"
        "           for m in pkgutil.iter_modules(insiderank.__path__)]\n"
        "owners = {name: sorted(m.__name__ for m in modules if vars(m).get(name) is value\n"
        "                       and getattr(value, '__module__', m.__name__) == m.__name__)\n"
        "          for name, value in values.items() if name != '__version__'}\n"
        "print(json.dumps({'all': insiderank.__all__, 'dir': dir(insiderank),\n"
        "                  'owners': owners, 'version': insiderank.__version__}))")
    assert sorted(seen["all"]) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(seen["dir"])
    assert seen["version"] == "0.1.0"
    assert all(seen["owners"].values()), seen["owners"]
