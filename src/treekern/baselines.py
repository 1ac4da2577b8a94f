"""Baseline tree kernels: point clouds, attribute summaries, branch counts,
shortest paths, and iterative label refinement.

Each kernel is a cohort route of :mod:`treekern.features`: a feature map,
a node set (a gaussian of summary rows is a node set of one point per
tree), or its own route for label refinement. Each is reached through
:func:`treekern.build_kernel`, which holds the defaults;
``build_kernel(name, **params).value(t1, t2)`` evaluates one pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import FeatureMap, NodeSet, _Route
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
    attributes = tree.attribute_rows("an attribute-average kernel")
    if not (0 <= component < tree.d):
        raise ValueError(f"attribute component {component} out of range for d = {tree.d}")
    return attributes[:, component]


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


@dataclass(frozen=True)
class _Refinement(_Route):
    """Label refinement over a cohort: node degrees, then ``iterations`` rounds
    that relabel every node of every tree once, by its label and its
    neighbours' sorted labels, through one dictionary; the kernel sums the
    label count dot products. A pair's value equals its entry in any Gram."""

    iterations: int
    _block = 1 << 21  # floats in one block of label count columns

    def gram(self, trees: Sequence[GeometricTree], inputs: Sequence[tuple]) -> np.ndarray:
        adjacency, labels = zip(*inputs)
        size, step, total, classes = len(trees), max(1, self._block // len(trees)), 0.0, 0
        owner = np.repeat(np.arange(size), [len(adj) for adj in adjacency])
        for done in range(self.iterations + 1):
            if done:
                compressed: dict[tuple, int] = {}
                labels = [[compressed.setdefault((label, tuple(sorted(old[w] for w in adj[v]))), len(compressed))
                           for v, label in enumerate(old)] for old, adj in zip(labels, adjacency)]
            # C Cᵀ over labels two or more trees hold, in blocks of columns, plus each tree's
            # other labels' squared counts on its diagonal: integer sums, exact in any order.
            key, counts = np.unique(np.concatenate(labels) * size + owner, return_counts=True)
            tree, holders = key % size, np.unique(key // size, return_counts=True)[1]
            shared = np.repeat(holders > 1, holders)
            current = np.diag(np.bincount(tree[~shared], counts[~shared] ** 2, size).astype(float))
            column, tree, counts = np.repeat(np.cumsum(holders > 1) - 1, holders)[shared], tree[shared], counts[shared]
            for lo in range(0, len(column) and column[-1] + 1, step):
                part = slice(*np.searchsorted(column, (lo, lo + step)))
                block = np.zeros((size, min(step, column[-1] + 1 - lo)))
                block[tree[part], column[part] - lo] = counts[part]
                current += block @ block.T
            total = total + current
            if len(holders) == classes:
                # Every later round repeats this one, as each pair's did from the round before its
                # classes settled, so total - (done + 1) * current and each entry are stop-independent.
                return total - (done + 1) * current + float(self.iterations + 1) * current
            classes = len(holders)
        return total


def wl_route(*, iterations: int) -> _Refinement:
    """Label refinement on the undirected tree graphs: a tree's input is its adjacency lists and degrees."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    def build(tree: GeometricTree) -> tuple[list[list[int]], list[int]]:
        adjacency = [[*kids, p] if p >= 0 else list(kids) for kids, p in zip(tree.children, tree.parents.tolist())]
        return adjacency, tree.degrees.tolist()

    return _Refinement(build, iterations)
