"""Baseline tree kernels: point clouds, attribute summaries, branch counts,
shortest paths, and iterative label refinement.

Each kernel is a cohort route of :mod:`treekern.features`: a feature map,
a node set (a gaussian of summary rows is a node set of one point per
tree), or for label refinement a pair loop. Each is reached through
:func:`treekern.build_kernel`, which holds the defaults;
``build_kernel(name, **params).value(t1, t2)`` evaluates one pair.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np

from .features import FeatureMap, NodeSet, PairLoop
from .path_kernels import FORMS, NodeKernelSpec, node_point_set
from .trees import GeometricTree

__all__: list[str] = []


def pointcloud_node_set(*, lambda1: float | None, lambda2: float | None) -> NodeSet:
    """Point-cloud kernel: the sum over all edge pairs of a gaussian in the
    child-node positions times a gaussian in the child-node attributes
    (scales ``lambda1``, default 1/n, and ``lambda2``, default 1/d).

    Each edge is represented by the node it leads to, so the route is the
    non-root nodes' points in one group with unit weights. Requires
    attributed trees (d > 0); a single-node tree has no edges, scores 0 and
    warns once.
    """

    def build(tree: GeometricTree, z: np.ndarray):
        if tree.size == 1:
            warnings.warn(f"tree '{tree.id}' has no edges; pointcloud kernel is 0")
        return z[1:], np.zeros(tree.size - 1, dtype=np.intp), np.ones((tree.size - 1, 1))

    spec = NodeKernelSpec(form="gaussian", use_attributes=True, lambda1=lambda1, lambda2=lambda2)
    return node_point_set(spec, build)


def _row_route(row, form: str, width: int) -> FeatureMap | NodeSet:
    """<r1, r2> (linear ``form``) or exp(-||r1 - r2||^2) (gaussian: each
    tree one point, its row, in one group, with unit weight) of the summary
    rows ``row(tree)``."""
    if form not in FORMS:
        raise ValueError(f"unknown form '{form}'")
    if form == "linear":
        return FeatureMap(row, width)
    one = (np.zeros(1, dtype=np.intp), np.ones((1, 1)))
    return NodeSet(lambda tree: (row(tree)[None, :], *one))


def _attribute_column(tree: GeometricTree, component: int) -> np.ndarray:
    if tree.d == 0:
        raise ValueError(f"tree '{tree.id}' has no attributes (d = 0)")
    if not (0 <= component < tree.d):
        raise ValueError(f"attribute component {component} out of range for d = {tree.d}")
    return tree.attributes[:, component]


def attribute_mean_map(*, component: int, form: str) -> FeatureMap | NodeSet:
    """Average-attribute kernel on the tree-wide means m of one attribute
    component (d > 0 required): exp(-(m1 - m2)^2), or m1 * m2 for the
    linear ``form``."""

    def row(tree: GeometricTree) -> np.ndarray:
        return np.array([float(_attribute_column(tree, component).mean())])

    return _row_route(row, form, 1)


def generation_mean_map(*, gen_lo: int, gen_hi: int, component: int, form: str) -> FeatureMap | NodeSet:
    """Generation-average kernel on the vectors m of per-generation means of
    one attribute component (d > 0 required), generations ``gen_lo`` to
    ``gen_hi``: exp(-||m1 - m2||^2), or <m1, m2> for the linear ``form``.
    Generation g holds the nodes at depth g (root depth 0), so a tree lacks
    the window's generations from its height on: their means are 0, and the
    tree warns once, naming them."""
    if gen_lo < 0 or gen_hi < gen_lo:
        raise ValueError("need 0 <= gen_lo <= gen_hi")

    def row(tree: GeometricTree) -> np.ndarray:
        col = _attribute_column(tree, component)
        out = np.zeros(gen_hi - gen_lo + 1)
        for gen in range(gen_lo, min(gen_hi + 1, tree.height)):
            out[gen - gen_lo] = col[tree.nodes_at_level(gen + 1)].mean()  # generation = depth, 1-based levels
        lo = max(gen_lo, tree.height)
        if lo <= gen_hi:
            missing = f"generation {lo}; mean" if lo == gen_hi else f"generations {lo} to {gen_hi}; means"
            warnings.warn(f"tree '{tree.id}' has no nodes in {missing} set to 0")
        return out

    return _row_route(row, form, gen_hi - gen_lo + 1)


def node_count_map(form: str) -> FeatureMap | NodeSet:
    """Branch-count kernels on the node count |V|: |V1| * |V2| (linear
    ``form``) or exp(-(|V1| - |V2|)^2) (gaussian)."""
    return _row_route(lambda tree: np.array([float(tree.size)]), form, 1)


def shortest_path_map(*, length_kernel: str) -> FeatureMap:
    """Shortest-path kernel: compares the multisets of pairwise path lengths.

    With the delta length kernel the value is the sum over lengths of the
    product of occurrence counts, so the row is the counts per length. With
    the linear one lengths are compared by their product, which factorizes
    into the product of the length-weighted count sums, a one-column row.
    """
    if length_kernel not in ("delta", "linear"):
        raise ValueError(f"unknown length kernel '{length_kernel}'")

    def row(tree: GeometricTree) -> np.ndarray:
        # Ordered node pairs (diagonal included) per distance k < 2 * height.
        counts = tree.sphere_table.sum(axis=0)
        if length_kernel == "delta":
            return counts
        # Integer counts times integer lengths: the sum is exact in any order.
        return np.array([counts @ np.arange(len(counts), dtype=float)])

    return FeatureMap(row, 1 if length_kernel == "linear" else None)


def _counter_dot(c1: Counter, c2: Counter) -> float:
    # Integer counts: the sum is exact in any order.
    return float(sum(count * c2[label] for label, count in c1.items()))


def wl_route(*, iterations: int) -> PairLoop:
    """Iterative label-refinement kernel on the undirected tree graphs, a
    pair loop over each tree's adjacency lists and degree labels.

    Initial labels are node degrees. Each of ``iterations`` rounds relabels
    every node by its own label plus the sorted labels of its neighbours,
    compressed through a dictionary shared by the pair; the kernel is the sum
    over rounds of the dot product between the label count vectors. Values
    do not depend on the dictionary's label numbering, so pairwise evaluation
    matches a shared per-population compression exactly.

    Once a round splits no label class of the pair, every later round adds
    the same dot product, so the rest is one product.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    def build(tree: GeometricTree) -> tuple[list[list[int]], list[int]]:
        adjacency = [[*kids, p] if p >= 0 else list(kids) for kids, p in zip(tree.children, tree.parents.tolist())]
        return adjacency, tree.degrees.tolist()

    def pair(x1: tuple, x2: tuple) -> float:
        (adj1, labels1), (adj2, labels2) = x1, x2
        compressed: dict[tuple, int] = {}

        def refine(labels: list[int], adj: list[list[int]]) -> list[int]:
            out = []
            for v, label in enumerate(labels):
                signature = (label, tuple(sorted(labels[w] for w in adj[v])))
                if signature not in compressed:
                    compressed[signature] = len(compressed)
                out.append(compressed[signature])
            return out

        total = _counter_dot(Counter(labels1), Counter(labels2))
        classes = len(set(labels1).union(labels2))
        for done in range(1, iterations + 1):
            labels1, labels2 = refine(labels1, adj1), refine(labels2, adj2)
            dot = _counter_dot(Counter(labels1), Counter(labels2))
            total += dot
            classes, before = len(set(labels1).union(labels2)), classes
            if classes == before:
                return total + (iterations - done) * dot
        return total

    return PairLoop(build, pair)
