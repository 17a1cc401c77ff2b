"""Union-find over one range of an edge array.

``stages/cluster.py`` runs it on each range of the edges (one range on the
driver while they fit the driver budget, ``stages/gates``) and contracts
what the ranges share. Cluster representative = min member id, matching
the deterministic-rep requirement (SURVEY.md §7 "hard parts"), so labels
of ranges compose.
"""

from __future__ import annotations

import numpy as np


def connected_components(edges_a: np.ndarray, edges_b: np.ndarray,
                         nodes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Union-find with path compression over int64 node ids.

    Returns (nodes, labels) where labels[i] is the **min node id** of node i's
    component. ``nodes`` defaults to the union of edge endpoints; pass all doc
    ids to include singletons.
    """
    if nodes is None:
        nodes = np.union1d(edges_a, edges_b)
    else:
        nodes = np.unique(nodes)
    # compact ids
    idx_a = np.searchsorted(nodes, edges_a)
    idx_b = np.searchsorted(nodes, edges_b)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(idx_a, idx_b):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # union by min id keeps representatives deterministic
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    # final flatten
    for i in range(len(parent)):
        parent[i] = find(i)
    labels = nodes[parent]
    return nodes, labels
