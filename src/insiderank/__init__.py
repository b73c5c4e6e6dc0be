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
"""

from .centrality import (
    CentralityTable,
    NonConvergenceError,
    betweenness_centrality,
    compute_centralities,
    degree_centrality,
    eigenvector_centrality,
)
from .clustering import (
    ClusterParams,
    ClusteringResult,
    OracleBoundExceeded,
    TwofoldCluster,
    enumerate_clusters_exact,
    grasp_cluster,
    max_subspace,
    prune_redundant,
    quality,
    quasi_clique_gamma,
)
from .evaluation import GroundTruth, RocCurve, load_ground_truth, roc_auc, score_distribution
from .features import (
    ATTRIBUTE_NAMES,
    AttributeVector,
    CalendarConfig,
    attribute_matrix,
    extract_attributes,
    group_by_user,
    normalize_matrix,
)
from .graph import AttributedGraph, build_graph, degree_profile, load_graph
from .ingest import (
    EventTable,
    OrgDirectory,
    RejectReport,
    UserRecord,
    load_ldap_snapshots,
    read_log_csv,
)
from .ranking import (
    OutlierScoreTable,
    compute_scores,
    rank_users,
)
from .synth import SynthSpec, generate_attributed_graph, generate_logs

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_NAMES",
    "AttributeVector",
    "AttributedGraph",
    "CalendarConfig",
    "CentralityTable",
    "ClusterParams",
    "ClusteringResult",
    "EventTable",
    "GroundTruth",
    "NonConvergenceError",
    "OracleBoundExceeded",
    "OrgDirectory",
    "OutlierScoreTable",
    "RejectReport",
    "RocCurve",
    "SynthSpec",
    "TwofoldCluster",
    "UserRecord",
    "attribute_matrix",
    "betweenness_centrality",
    "build_graph",
    "compute_centralities",
    "compute_scores",
    "degree_centrality",
    "degree_profile",
    "eigenvector_centrality",
    "enumerate_clusters_exact",
    "extract_attributes",
    "generate_attributed_graph",
    "generate_logs",
    "grasp_cluster",
    "group_by_user",
    "load_graph",
    "load_ground_truth",
    "load_ldap_snapshots",
    "max_subspace",
    "normalize_matrix",
    "prune_redundant",
    "quality",
    "quasi_clique_gamma",
    "rank_users",
    "read_log_csv",
    "roc_auc",
    "score_distribution",
    "__version__",
]
