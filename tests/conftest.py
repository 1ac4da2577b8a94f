"""Shared builders for the test suite: small hand trees, seeded random ones
and Hypothesis strategies, plus the suite's Hypothesis profile."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra.numpy import arrays

from treekern import GeometricTree, Node

# Fixed example draws and no example database: a run's verdict depends on
# neither a random seed nor a local .hypothesis/ directory. Another profile
# can still be chosen with --hypothesis-profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def rel_close(a: float, b: float, tol: float) -> bool:
    """Relative comparison with a unit floor, so values near zero are
    compared absolutely."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def chain_tree(length: int, n: int = 1, d: int = 0, tree_id: str = "chain", step: float = 1.0):
    """Path graph rooted at one end; node k sits at k*step along the first axis."""
    nodes = []
    for k in range(length):
        x = np.zeros(n)
        x[0] = k * step
        a = np.full(d, float(k)) if d > 0 else None
        nodes.append(Node(parent=None if k == 0 else k - 1, x=x, a=a))
    return GeometricTree(tree_id, nodes, n=n, d=d)


def star_tree(leaves: int, n: int = 1, d: int = 0, tree_id: str = "star"):
    nodes = [Node(parent=None, x=np.zeros(n), a=np.zeros(d) if d > 0 else None)]
    for k in range(leaves):
        x = np.zeros(n)
        x[0] = 1.0
        nodes.append(Node(parent=0, x=x, a=np.ones(d) if d > 0 else None))
    return GeometricTree(tree_id, nodes, n=n, d=d)


def random_tree(rng, max_nodes: int, n: int = 3, d: int = 0, tree_id: str = "r"):
    """Random recursive tree: each node attaches to a uniformly chosen earlier
    node. Positions and attributes are standard normal."""
    size = int(rng.integers(1, max_nodes + 1))
    nodes = []
    for k in range(size):
        parent = None if k == 0 else int(rng.integers(0, k))
        a = rng.standard_normal(d) if d > 0 else None
        nodes.append(Node(parent=parent, x=rng.standard_normal(n), a=a))
    return GeometricTree(tree_id, nodes, n=n, d=d)


@st.composite
def shaped_trees(draw, tree_id: str, d: int):
    """Single nodes, chains, stars and random recursive trees of up to 7
    nodes, so two draws usually differ in height."""
    shape = draw(st.sampled_from(["single", "chain", "star", "random"]))
    size = 1 if shape == "single" else draw(st.integers(2, 7))
    if shape == "chain":
        parents = [None] + list(range(size - 1))
    elif shape == "star":
        parents = [None] + [0] * (size - 1)
    else:
        parents = [None] + [draw(st.integers(0, k - 1)) for k in range(1, size)]
    coords = st.floats(-2.0, 2.0)
    xs = draw(arrays(float, (size, 2), elements=coords))
    attrs = draw(arrays(float, (size, d), elements=coords)) if d else [None] * size
    nodes = [Node(parent=p, x=x, a=a) for p, x, a in zip(parents, xs, attrs)]
    return GeometricTree(tree_id, nodes, n=2, d=d)


def distance_histogram(tree) -> dict[int, int]:
    """Ordered node pairs (diagonal included) per tree distance, from
    networkx's all-pairs shortest paths on the undirected tree."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(tree.size))
    g.add_edges_from((i, int(p)) for i, p in enumerate(tree.parents) if p >= 0)
    out: dict[int, int] = {}
    for _, lengths in nx.all_pairs_shortest_path_length(g):
        for dist in lengths.values():
            out[dist] = out.get(dist, 0) + 1
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
