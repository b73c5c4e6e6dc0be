"""Exact enumeration versus the randomized search, side by side.

The exact enumerator walks every connected vertex set (feasible only for
small graphs), so on a 13-vertex instance with two planted groups it serves
as ground truth for what the randomized multi-start search should find.
"""

import time

from insiderank import ClusterParams, SynthSpec, enumerate_clusters_exact, grasp_cluster
from insiderank.synth import generate_attributed_graph_detailed

spec = SynthSpec(
    n_users=13, k_clusters=2, size_range=(4, 5), subspace_range=(4, 5),
    p_in=1.0, p_out=0.1, n_attributes=12, width=0.04,
    n_outliers=0, rng_seed=5,
)
graph, _, planted, _ = generate_attributed_graph_detailed(spec)
print(f"13-vertex graph, planted member sets: {[c.members for c in planted]}")

params = ClusterParams(n_min=3, s_min=3, gamma_min=0.6, w=0.05, rng_seed=5)

t0 = time.perf_counter()
exact = enumerate_clusters_exact(graph, params, oracle_bound=14)
t_exact = time.perf_counter() - t0

t0 = time.perf_counter()
approx = grasp_cluster(graph, params)
t_grasp = time.perf_counter() - t0


def describe(name, result, seconds):
    total = sum(c.quality for c in result.clusters)
    print(f"\n{name}: {len(result.clusters)} clusters, "
          f"total quality {total:.3f}, {seconds * 1000:.0f} ms")
    for c in sorted(result.clusters, key=lambda c: -c.quality)[:4]:
        print(f"  members={c.members} |S|={len(c.subspace)} "
              f"gamma={c.gamma:.2f} quality={c.quality:.3f}")
    return total


q_exact = describe("exact enumeration", exact, t_exact)
q_grasp = describe("randomized search", approx, t_grasp)
print(f"\nquality ratio (search / exact): {q_grasp / q_exact:.4f}")

found = {c.members for c in approx.clusters}
hit = sum(1 for c in planted if c.members in found)
print(f"planted member sets recovered by the search: {hit}/{len(planted)}")
