import numpy as np
import pytest

from setdyn.boxdyn import BoxSet, Domain, TransitionGraph


@pytest.fixture
def graph_from_edges():
    """Factory for synthetic transition graphs over a 1-d box grid.

    Lets the graph-algebra tests state adjacency directly instead of going
    through a map; node k is box code k.
    """

    def build(n_nodes, edges, epsilon=0.01, pad=0.0):
        depth = max(1, (n_nodes - 1).bit_length())
        domain = Domain(lower=(0.0,), upper=(1.0,), periodic=(False,))
        boxset = BoxSet(domain, depth, np.arange(n_nodes, dtype=np.int64))
        edges = sorted(set((int(s), int(d)) for s, d in edges))
        counts = np.zeros(n_nodes + 1, dtype=np.int64)
        for s, _ in edges:
            counts[s + 1] += 1
        indptr = np.cumsum(counts)
        indices = np.array([d for _, d in edges], dtype=np.int64)
        return TransitionGraph(boxset, epsilon, indptr, indices, pad)

    return build
