"""Path kernels: landmark resampling, node kernels, and agreement of the
naive, per-level decomposed, and linear fast rootpath routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from treekern import path_kernels
from treekern import (
    GeometricTree,
    Node,
    NodeKernelSpec,
    PathKernelSpec,
    all_pairs_kernel,
    landmark_path_kernel,
    node_kernel,
    node_path_kernel,
    rootpath_kernel_decomposed,
    rootpath_kernel_linear_fast,
    rootpath_kernel_naive,
    sample_embedded_path,
)

from conftest import chain_tree, random_tree, rel_close


NODE_SPECS = [
    NodeKernelSpec(form="linear"),
    NodeKernelSpec(form="gaussian"),
    NodeKernelSpec(form="linear", use_attributes=True),
    NodeKernelSpec(form="gaussian", use_attributes=True),
]


def constant_tree(size: int, tree_id: str) -> GeometricTree:
    """Every node at x = (1.0,): every linear or gaussian node kernel value is 1."""
    nodes = [Node(parent=None if k == 0 else k - 1, x=np.array([1.0])) for k in range(size)]
    return GeometricTree(tree_id, nodes, n=1, d=0)


# -- embedded landmark paths -------------------------------------------------------


def test_sample_embedded_path_arc_length():
    # polyline x = 3 -> 1 -> 0 has segment lengths 2 and 1, so with three
    # landmarks the middle one sits at arc length 1.5, inside the first
    # segment, at x = 1.5
    nodes = [
        Node(parent=None, x=np.array([0.0, 0.0, 0.0])),
        Node(parent=0, x=np.array([1.0, 0.0, 0.0])),
        Node(parent=1, x=np.array([3.0, 0.0, 0.0])),
    ]
    t = GeometricTree("seg", nodes, n=3, d=0)
    lm = sample_embedded_path(t, 2, 0, 3).landmarks
    assert np.allclose(lm, [[3.0, 0, 0], [1.5, 0, 0], [0.0, 0, 0]], atol=1e-15)
    # endpoints are always included
    lm2 = sample_embedded_path(t, 0, 2, 2).landmarks
    assert np.allclose(lm2, [[0.0, 0, 0], [3.0, 0, 0]])


def test_sample_embedded_path_degenerate():
    t = constant_tree(1, "single")
    lm = sample_embedded_path(t, 0, 0, 5).landmarks
    assert lm.shape == (5, 1)
    assert np.all(lm == 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        sample_embedded_path(t, 0, 0, 1)


def test_landmark_path_kernel_values():
    spec_lin = PathKernelSpec(representation="embedded_landmarks", form="linear", landmarks=2)
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    assert landmark_path_kernel(a, b, spec_lin) == pytest.approx(11.0)

    spec_g = PathKernelSpec(
        representation="embedded_landmarks", form="gaussian", landmarks=2, lam=0.25
    )
    # squared distance 4 + 4 = 8
    assert landmark_path_kernel(a, b, spec_g) == pytest.approx(math.exp(-2.0))

    # default gaussian scale is 1/(landmarks * n) = 1/2 here
    spec_default = PathKernelSpec(representation="embedded_landmarks", form="gaussian", landmarks=2)
    assert landmark_path_kernel(a, b, spec_default, n=1) == pytest.approx(math.exp(-4.0))

    with pytest.raises(ValueError, match="shapes differ"):
        landmark_path_kernel(a, np.zeros((3, 1)), spec_lin)


def test_spec_validation():
    with pytest.raises(ValueError, match="form"):
        NodeKernelSpec(form="cubic")
    with pytest.raises(ValueError, match="lambda1"):
        NodeKernelSpec(lambda1=0.0)
    with pytest.raises(ValueError, match="representation"):
        PathKernelSpec(representation="walks")
    with pytest.raises(ValueError, match="at least 2"):
        PathKernelSpec(landmarks=1)
    with pytest.raises(ValueError, match="lam"):
        PathKernelSpec(lam=-1.0)


# -- node kernels ------------------------------------------------------------------


def test_node_kernel_values():
    t1 = chain_tree(2, n=1, d=1, tree_id="k1")  # positions 0, 1; attrs 0, 1
    t2 = chain_tree(2, n=1, d=1, tree_id="k2")
    g = NodeKernelSpec(form="gaussian", lambda1=1.0)
    assert node_kernel(t1, 0, t2, 1, g) == pytest.approx(math.exp(-1.0))
    assert node_kernel(t1, 0, t2, 0, g) == pytest.approx(1.0)

    lin = NodeKernelSpec(form="linear")
    assert node_kernel(t1, 1, t2, 1, lin) == pytest.approx(1.0)
    lin_a = NodeKernelSpec(form="linear", use_attributes=True)
    assert node_kernel(t1, 1, t2, 1, lin_a) == pytest.approx(1.0)

    # attribute factor: positions equal, attrs differ by 1, lambda2 = 2
    g_a = NodeKernelSpec(form="gaussian", use_attributes=True, lambda1=1.0, lambda2=2.0)
    assert node_kernel(t1, 1, t2, 0, g_a) == pytest.approx(math.exp(-1.0) * math.exp(-2.0))


def test_node_kernel_default_scales():
    # defaults are 1/n and 1/d
    nodes1 = [Node(parent=None, x=np.zeros(4), a=np.zeros(2))]
    nodes2 = [Node(parent=None, x=np.array([2.0, 0, 0, 0]), a=np.array([0.0, 2.0]))]
    t1 = GeometricTree("s1", nodes1, n=4, d=2)
    t2 = GeometricTree("s2", nodes2, n=4, d=2)
    g = NodeKernelSpec(form="gaussian")
    assert node_kernel(t1, 0, t2, 0, g) == pytest.approx(math.exp(-4.0 / 4.0))
    g_a = NodeKernelSpec(form="gaussian", use_attributes=True)
    assert node_kernel(t1, 0, t2, 0, g_a) == pytest.approx(math.exp(-1.0) * math.exp(-4.0 / 2.0))


def test_node_kernel_dimension_checks():
    t1 = chain_tree(2, n=1, tree_id="a")
    t2 = chain_tree(2, n=2, tree_id="b")
    with pytest.raises(ValueError, match="dimensions differ"):
        node_kernel(t1, 0, t2, 0, NodeKernelSpec())
    t3 = chain_tree(2, n=1, tree_id="c")
    with pytest.raises(ValueError, match="d = 0"):
        node_kernel(t1, 0, t3, 0, NodeKernelSpec(use_attributes=True))


def test_node_path_kernel():
    t1 = chain_tree(3, n=1, tree_id="p1")
    t2 = chain_tree(3, n=1, tree_id="p2")
    spec = NodeKernelSpec(form="gaussian", lambda1=1.0)
    # length mismatch is exactly zero
    assert node_path_kernel(t1.rootpath(2), t2.rootpath(0), spec) == 0.0
    # rootpaths (1, 0) on both trees: positions (1, 0) vs (1, 0)
    assert node_path_kernel(t1.rootpath(1), t2.rootpath(1), spec) == pytest.approx(2.0)
    # reversed second path: positions (1, 0) vs (0, 1)
    rev = t2.rootpath(1).reverse()
    assert node_path_kernel(t1.rootpath(1), rev, spec) == pytest.approx(2 * math.exp(-1.0))


# -- whole-tree sums ---------------------------------------------------------------


def test_constant_tree_sums():
    # with every node kernel value equal to 1, the sums count path pairs:
    # rootpaths of a 2-chain have lengths 1 and 2, so only the two
    # equal-length pairs survive, contributing 1 + 2 node terms
    t1 = constant_tree(2, "c1")
    t2 = constant_tree(2, "c2")
    for spec in (NodeKernelSpec(form="linear"), NodeKernelSpec(form="gaussian")):
        path_spec = PathKernelSpec(representation="node_path", node=spec)
        assert rootpath_kernel_naive(t1, t2, path_spec) == pytest.approx(3.0)
        assert rootpath_kernel_decomposed(t1, t2, spec) == pytest.approx(3.0)
        # ordered node pairs give 2 paths of length 1 and 2 of length 2 per
        # tree: 2*2*1 + 2*2*2 node terms
        assert all_pairs_kernel(t1, t2, path_spec) == pytest.approx(12.0)
    assert rootpath_kernel_linear_fast(t1, t2, NodeKernelSpec(form="linear")) == pytest.approx(3.0)


def all_pairs_by_enumeration(t1, t2, spec: NodeKernelSpec) -> float:
    """Quadruple loop over ordered node pairs of both trees."""
    expected = 0.0
    for i1 in range(t1.size):
        for j1 in range(t1.size):
            for i2 in range(t2.size):
                for j2 in range(t2.size):
                    expected += node_path_kernel(t1.node_path(i1, j1), t2.node_path(i2, j2), spec)
    return expected


def test_all_pairs_matches_explicit_enumeration(rng):
    for trial in range(15):
        d = int(rng.integers(0, 3))
        t1 = random_tree(rng, 8, n=2, d=d, tree_id=f"e{trial}a")
        t2 = random_tree(rng, 8, n=2, d=d, tree_id=f"e{trial}b")
        spec = NodeKernelSpec(
            form="linear" if trial % 2 else "gaussian",
            use_attributes=bool(d and trial % 3 == 0),
        )
        path_spec = PathKernelSpec(representation="node_path", node=spec)
        expected = all_pairs_by_enumeration(t1, t2, spec)
        got = all_pairs_kernel(t1, t2, path_spec)
        assert rel_close(got, expected, 1e-12), (got, expected)


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


@st.composite
def all_pairs_cases(draw):
    use_attributes = draw(st.booleans())
    d = 1 if use_attributes else draw(st.integers(0, 1))
    form = draw(st.sampled_from(["linear", "gaussian"]))
    spec = NodeKernelSpec(form=form, use_attributes=use_attributes)
    return draw(shaped_trees("a", d)), draw(shaped_trees("b", d)), spec


@settings(max_examples=60, deadline=None)
@given(all_pairs_cases())
def test_all_pairs_node_matches_enumeration_on_any_shape(case):
    t1, t2, spec = case
    expected = all_pairs_by_enumeration(t1, t2, spec)
    got = all_pairs_kernel(t1, t2, PathKernelSpec(representation="node_path", node=spec))
    assert rel_close(got, expected, 1e-12), (t1.height, t2.height, got, expected)


def test_all_pairs_embedded_matches_pairwise_loop(rng):
    spec = PathKernelSpec(representation="embedded_landmarks", form="gaussian", landmarks=5)
    for trial in range(5):
        t1 = random_tree(rng, 6, n=2, tree_id=f"m{trial}a")
        t2 = random_tree(rng, 6, n=2, tree_id=f"m{trial}b")
        expected = 0.0
        for i1 in range(t1.size):
            for j1 in range(t1.size):
                p = sample_embedded_path(t1, i1, j1, 5)
                for i2 in range(t2.size):
                    for j2 in range(t2.size):
                        q = sample_embedded_path(t2, i2, j2, 5)
                        expected += landmark_path_kernel(p, q, spec, n=2)
        got = all_pairs_kernel(t1, t2, spec)
        assert rel_close(got, expected, 1e-12), (got, expected)


def test_rootpath_routes_agree(rng):
    for trial in range(40):
        d = int(rng.integers(0, 3))
        t1 = random_tree(rng, 30, n=3, d=d, tree_id=f"g{trial}a")
        t2 = random_tree(rng, 30, n=3, d=d, tree_id=f"g{trial}b")
        for spec in NODE_SPECS:
            if spec.use_attributes and d == 0:
                continue
            path_spec = PathKernelSpec(representation="node_path", node=spec)
            naive = rootpath_kernel_naive(t1, t2, path_spec)
            decomposed = rootpath_kernel_decomposed(t1, t2, spec)
            assert rel_close(naive, decomposed, 1e-10), (spec, naive, decomposed)
            if spec.form == "linear":
                fast = rootpath_kernel_linear_fast(t1, t2, spec)
                assert rel_close(naive, fast, 1e-10), (spec, naive, fast)


@pytest.mark.parametrize("dense_pairs", [0, 10**9])
def test_decomposed_dense_and_level_loops_agree(rng, monkeypatch, dense_pairs):
    # forces every pair through the masked all-node product or the level loop
    monkeypatch.setattr(path_kernels, "_DENSE_NODE_PAIRS", dense_pairs)
    for trial in range(10):
        t1 = random_tree(rng, 60, n=3, d=1, tree_id=f"m{trial}a")
        t2 = random_tree(rng, 60, n=3, d=1, tree_id=f"m{trial}b")
        for spec in NODE_SPECS:
            path_spec = PathKernelSpec(representation="node_path", node=spec)
            naive = rootpath_kernel_naive(t1, t2, path_spec)
            decomposed = rootpath_kernel_decomposed(t1, t2, spec)
            assert rel_close(naive, decomposed, 1e-10), (spec, naive, decomposed)


def test_fast_route_requires_linear():
    t = constant_tree(3, "f")
    with pytest.raises(ValueError, match="linear"):
        rootpath_kernel_linear_fast(t, t, NodeKernelSpec(form="gaussian"))


def test_kernel_symmetry_is_exact(rng):
    # canonical pair ordering makes K(a, b) bitwise equal to K(b, a)
    for trial in range(10):
        t1 = random_tree(rng, 25, n=3, d=1, tree_id=f"s{trial}a")
        t2 = random_tree(rng, 25, n=3, d=1, tree_id=f"s{trial}b")
        spec = NodeKernelSpec(form="gaussian", use_attributes=True)
        path_spec = PathKernelSpec(representation="node_path", node=spec)
        assert rootpath_kernel_decomposed(t1, t2, spec) == rootpath_kernel_decomposed(t2, t1, spec)
        assert all_pairs_kernel(t1, t2, path_spec) == all_pairs_kernel(t2, t1, path_spec)
        emb = PathKernelSpec(representation="embedded_landmarks", landmarks=4)
        assert all_pairs_kernel(t1, t2, emb) == all_pairs_kernel(t2, t1, emb)
