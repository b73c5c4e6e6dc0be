"""Graph-and-attribute outlier ranking for insider-threat review.

The package turns raw activity logs (logons, removable media, email, file
copies) plus an organisational directory into a ranked list of users whose
combined graph structure and behaviour profile deviates from their peers:

1. `ingest` parses the log corpus into columnar event tables, and the LDAP
   snapshots.
2. `features` summarizes each user as a 125-dimensional attribute vector.
3. `graph` builds the user relationship graph from supervisor links and
   internal email traffic, attributed with the normalized vectors.
4. `clustering` finds twofold clusters: vertex sets that are densely
   connected and agree on a subspace of attributes.
5. `centrality` computes degree, eigenvector and betweenness centralities.
6. `ranking` combines cluster membership and centrality into six outlier
   scores; low scores mark users that belong to little and connect little.
7. `evaluation` turns scores plus ground truth into ROC curves and AUC.
8. `synth` generates synthetic corpora with planted clusters and outliers.
9. `cli` wires the stages into a command-line pipeline.

Importing the package loads no submodule and so not numpy either: each name
below is imported from its module the first time it is used (PEP 562).  The
CLI relies on this to set OpenBLAS's environment before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "centrality": ("CentralityTable NonConvergenceError betweenness_centrality "
                   "compute_centralities degree_centrality eigenvector_centrality"),
    "clustering": ("ClusterParams ClusteringResult OracleBoundExceeded TwofoldCluster "
                   "enumerate_clusters_exact grasp_cluster max_subspace prune_redundant "
                   "quality quasi_clique_gamma"),
    "evaluation": "GroundTruth RocCurve load_ground_truth roc_auc score_distribution",
    "features": ("ATTRIBUTE_NAMES AttributeVector CalendarConfig attribute_matrix "
                 "extract_attributes group_by_user normalize_matrix"),
    "graph": "AttributedGraph build_graph degree_profile load_graph",
    "ingest": "EventTable OrgDirectory RejectReport UserRecord load_ldap_snapshots read_log_csv",
    "ranking": "OutlierScoreTable compute_scores rank_users",
    "synth": "SynthSpec generate_attributed_graph generate_logs",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
