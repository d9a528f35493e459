import numpy as np
from hypothesis import settings

from freqgcn.graph import SkeletonTopology

# CI runs with --hypothesis-profile=ci: the same examples on every run, and
# 1,000 for each test that sets no count of its own, the ingest oracle among them.
settings.register_profile("ci", derandomize=True, max_examples=1000)
# A second CI step runs the ingest oracle alone on 3,000 fresh random examples, which
# draw what the fixed ones never do; a failing example prints a blob to replay it.
settings.register_profile("ci-fresh", derandomize=False, max_examples=3000, print_blob=True)


def random_connected_topology(rng: np.random.Generator, num_joints: int, extra_edges: int = 0):
    """Random spanning tree plus optional extra edges; always connected."""
    edges = set()
    for j in range(1, num_joints):
        edges.add((int(rng.integers(0, j)), j))
    target = min(num_joints - 1 + extra_edges, num_joints * (num_joints - 1) // 2)
    while len(edges) < target:
        i, j = rng.integers(0, num_joints, size=2)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    return SkeletonTopology(
        num_joints=num_joints,
        edges=tuple(sorted(edges)),
        root=0,
        neck=1 if num_joints > 1 else 0,
    )
