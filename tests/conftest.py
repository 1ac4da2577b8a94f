"""Shared builders for the test suite: small hand trees, seeded random ones
and Hypothesis strategies, plus the suite's Hypothesis profile and a patch
that makes the permutation scorer fail."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra.numpy import arrays

from treekern import GeometricTree, KERNEL_NAMES, build_kernel, twosample

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
    xs = np.zeros((length, n))
    xs[:, 0] = np.arange(length) * step
    attrs = np.repeat(np.arange(length, dtype=float)[:, None], d, axis=1) if d > 0 else None
    return GeometricTree(tree_id, np.arange(length) - 1, xs, attrs, n=n, d=d)


def star_tree(leaves: int, n: int = 1, d: int = 0, tree_id: str = "star"):
    """Root at the origin with ``leaves`` children at 1 along the first axis."""
    xs = np.zeros((leaves + 1, n))
    xs[1:, 0] = 1.0
    attrs = np.repeat(xs[:, :1], d, axis=1) if d > 0 else None  # 0 at the root, 1 at the leaves
    return GeometricTree(tree_id, [-1] + [0] * leaves, xs, attrs, n=n, d=d)


def random_tree(rng, max_nodes: int, n: int = 3, d: int = 0, tree_id: str = "r"):
    """Random recursive tree: each node attaches to a uniformly chosen earlier
    node. Positions and attributes are standard normal."""
    size = int(rng.integers(1, max_nodes + 1))
    parents, xs, attrs = [], [], []
    for k in range(size):  # per node: parent, then attributes, then position
        parents.append(-1 if k == 0 else int(rng.integers(0, k)))
        attrs.append(rng.standard_normal(d) if d > 0 else None)
        xs.append(rng.standard_normal(n))
    return GeometricTree(tree_id, parents, xs, attrs if d > 0 else None, n=n, d=d)


def recursive_tree(size: int, seed: int, tree_id: str) -> GeometricTree:
    """Random recursive tree of exactly ``size`` nodes: node k attaches to a
    uniformly chosen earlier node; standard normal positions and attributes."""
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, k)) for k in range(1, size)]
    return GeometricTree(tree_id, parents, rng.standard_normal((size, 3)), rng.standard_normal((size, 1)))


@st.composite
def shaped_trees(draw, tree_id: str, d: int):
    """Single nodes, chains, stars and random recursive trees of up to 7
    nodes, so two draws usually differ in height."""
    shape = draw(st.sampled_from(["single", "chain", "star", "random"]))
    size = 1 if shape == "single" else draw(st.integers(2, 7))
    if shape == "chain":
        parents = [-1] + list(range(size - 1))
    elif shape == "star":
        parents = [-1] + [0] * (size - 1)
    else:
        parents = [-1] + [draw(st.integers(0, k - 1)) for k in range(1, size)]
    coords = st.floats(-2.0, 2.0)
    xs = draw(arrays(float, (size, 2), elements=coords))
    attrs = draw(arrays(float, (size, d), elements=coords)) if d else None
    return GeometricTree(tree_id, parents, xs, attrs, n=2, d=d)


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


def kernel_cases():
    """(name, params) for every catalogued kernel and form, with attributes
    where the kernel takes them."""
    for name in KERNEL_NAMES:
        params = build_kernel(name).params
        forms = [None] if "form" not in params or name == "rootpath-node-linear-fast" else ["linear", "gaussian"]
        for form in forms:
            case = {} if form is None else {"form": form}
            if "use_attributes" in params:
                case["use_attributes"] = True
            yield name, case


def fail_scoring_at(monkeypatch, m: int, seed: int, start: int = 512) -> None:
    """Make the permutation scorer raise a ValueError on the block of a pool
    of m that starts at row ``start`` (> 0) of ``seed``'s stream. The block
    is known by its first order: ``start - 1`` ``permutation(m)`` draws
    precede it, as the identity row takes no draw."""
    draws = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(start - 1):
        draws.permutation(m)
    first = draws.permutation(m)
    score = twosample._Scorer.__call__

    def failing(self, block, *buffers):
        if np.array_equal(block[0], first):
            raise ValueError(f"scoring failed on the block at {start}")
        return score(self, block, *buffers)

    monkeypatch.setattr(twosample._Scorer, "__call__", failing)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
