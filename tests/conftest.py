import numpy as np
from hypothesis import settings

from freqgcn.graph import SkeletonTopology

# CI runs with --hypothesis-profile=ci: the same examples on every run, and
# 1,000 for each test that sets no count of its own, the ingest oracle among them.
settings.register_profile("ci", derandomize=True, max_examples=1000)
# Five more CI steps run the ingest oracle, the container ingest oracle, the band transform's
# Bluestein property, the Bluestein FFT's direct-DFT property and the gap fill's np.interp
# property alone on 3,000 fresh random examples each, which draw what the fixed ones never do;
# a failing example prints a blob to replay it.
settings.register_profile("ci-fresh", derandomize=False, max_examples=3000, print_blob=True)

# The toy5 preset in the topology file's text form.
TOY5_TOPOLOGY_TEXT = """\
# N=5
# root=0
# neck=1
# joint 0 root
# joint 1 mid
# joint 2 tip
# joint 3 left
# joint 4 right
0 1
1 2
1 3
1 4
"""


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
