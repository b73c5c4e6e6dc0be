"""End-to-end walkthrough: synthetic logs to a ranked suspect list.

Generates a small activity-log corpus with three planted peer groups and two
outliers, then runs every library stage by hand: parse the logs, summarize
each user as an attribute vector, build the relationship graph, mine twofold
clusters, score, rank, and check the ranking against the planted truth.
"""

import tempfile
from pathlib import Path

from insiderank import (
    ATTRIBUTE_NAMES,
    CalendarConfig,
    ClusterParams,
    SynthSpec,
    attribute_matrix,
    build_graph,
    compute_centralities,
    compute_scores,
    extract_attributes,
    generate_logs,
    grasp_cluster,
    group_by_user,
    load_ground_truth,
    normalize_matrix,
    rank_users,
    read_log_csv,
    roc_auc,
)

spec = SynthSpec(
    n_users=36, k_clusters=3, size_range=(6, 8), subspace_range=(8, 10),
    p_in=0.95, p_out=0.05, n_attributes=24, width=0.05,
    n_outliers=2, rng_seed=23,
)
calendar = CalendarConfig()
with tempfile.TemporaryDirectory(prefix="demo_logs_") as tmp:
    out_dir = Path(tmp)
    directory = generate_logs(spec, calendar, out_dir, n_days=15).directory
    print(f"wrote corpus to {out_dir}")
    for path in sorted(out_dir.glob("*.csv")):
        print(f"  {path.name}: {sum(1 for _ in open(path)) - 1} rows")

    # parse the four activity logs back in, one event table per log
    logs = {kind: read_log_csv(out_dir / f"{kind}.csv", kind)
            for kind in ("logon", "device", "email", "file")}
    n_events = sum(len(table) for table in logs.values())
    print(f"parsed {n_events} events for {len(directory.users)} directory users")

    # one 125-dimensional vector per user, min-max normalized per column
    vectors = extract_attributes(group_by_user(logs.values()), directory, calendar)
    users, matrix = attribute_matrix(vectors)
    graph = build_graph(directory, logs["email"], normalize_matrix(matrix), ATTRIBUTE_NAMES)
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")

    params = ClusterParams(n_min=3, s_min=6, gamma_min=0.5, w=0.06,
                           grasp_iterations=600, rng_seed=23)
    result = grasp_cluster(graph, params)
    print(f"found {len(result.clusters)} twofold clusters "
          f"(largest {result.c_max} members, widest subspace {result.s_max} dims)")

    table = compute_scores(result, compute_centralities(graph), graph)
    ranking = rank_users(table, variant=1)
    truth = load_ground_truth(out_dir / "ground_truth.txt")
    print("\nmost suspicious first (score_1 ascending):")
    for user in ranking[:6]:
        i = graph.user_ids.index(user)
        tag = "  <- planted outlier" if user in truth else ""
        print(f"  {user}  score_1={table.score(1)[i]:.3f}  "
              f"in {int(table.memberships[i])} clusters{tag}")

    curve = roc_auc(dict(zip(graph.user_ids, table.score(1))), truth)
    print(f"\nscore_1 AUC against planted truth: {curve.auc:.4f}")
