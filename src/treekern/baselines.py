"""Baseline tree kernels: point clouds, attribute summaries, branch counts,
shortest paths, and iterative label refinement.

Each kernel but the last is a cohort route (a feature map, or a node set;
a gaussian of summary rows is a node set of one point per tree), reached
through :func:`treekern.build_kernel`, which holds the defaults;
``build_kernel(name, **params).value(t1, t2)`` evaluates one pair. The
label-refinement kernel is a pair function.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, NodeSet
from .path_kernels import FORMS, NodeKernelSpec, node_point_set
from .trees import GeometricTree, canonical_pair

__all__ = ["WLConfig", "weisfeiler_lehman_kernel"]


@dataclass(frozen=True)
class WLConfig:
    """Label-refinement kernel settings: number of refinement rounds."""

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


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
    return node_point_set(spec, "pointcloud_nodes", build)


def _row_route(row, key, form: str, width: int) -> FeatureMap | NodeSet:
    """<r1, r2> (linear ``form``) or exp(-||r1 - r2||^2) (gaussian: each
    tree one point, its row, in one group, with unit weight) of the summary
    rows ``row(tree)``, memoized under ``key`` for both forms."""
    if form not in FORMS:
        raise ValueError(f"unknown form '{form}'")
    rows, one = FeatureMap(row, key, width), (np.zeros(1, dtype=np.intp), np.ones((1, 1)))
    return rows if form == "linear" else NodeSet(lambda trees: [(r[None, :], *one) for r in rows.features(trees)])


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

    return _row_route(row, ("attribute_mean", component), form, 1)


def generation_mean_map(*, gen_lo: int, gen_hi: int, component: int, form: str) -> FeatureMap | NodeSet:
    """Generation-average kernel on the vectors m of per-generation means of
    one attribute component (d > 0 required), generations ``gen_lo`` to
    ``gen_hi``: exp(-||m1 - m2||^2), or <m1, m2> for the linear ``form``.
    Generation g holds the nodes at depth g (root depth 0); a generation the
    tree lacks has mean 0 and warns once."""
    if gen_lo < 0 or gen_hi < gen_lo:
        raise ValueError("need 0 <= gen_lo <= gen_hi")

    def row(tree: GeometricTree) -> np.ndarray:
        col = _attribute_column(tree, component)
        out = np.zeros(gen_hi - gen_lo + 1)
        for k, gen in enumerate(range(gen_lo, gen_hi + 1)):
            idx = tree.nodes_at_level(gen + 1)  # generation = depth; root has depth 0
            if len(idx) == 0:
                warnings.warn(f"tree '{tree.id}' has no nodes in generation {gen}; mean set to 0")
            else:
                out[k] = col[idx].mean()
        return out

    key = ("generation_means", gen_lo, gen_hi, component)
    return _row_route(row, key, form, gen_hi - gen_lo + 1)


def node_count_map(form: str) -> FeatureMap | NodeSet:
    """Branch-count kernels on the node count |V|: |V1| * |V2| (linear
    ``form``) or exp(-(|V1| - |V2|)^2) (gaussian)."""
    return _row_route(lambda tree: np.array([float(tree.size)]), "node_count", form, 1)


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

    return FeatureMap(row, ("path_lengths", length_kernel), 1 if length_kernel == "linear" else None)


def _counter_dot(c1: Counter, c2: Counter) -> float:
    small, big = (c1, c2) if len(c1) <= len(c2) else (c2, c1)
    return float(sum(count * big[label] for label, count in sorted(small.items()) if label in big))


def weisfeiler_lehman_kernel(
    t1: GeometricTree, t2: GeometricTree, cfg: WLConfig = WLConfig()
) -> float:
    """Iterative label-refinement kernel on the undirected tree graphs.

    Initial labels are node degrees. Each round relabels every node by its
    own label plus the sorted labels of its neighbours, compressed through a
    dictionary shared by the pair; the kernel is the sum over rounds of the
    dot product between the label count vectors. Values do not depend on the
    dictionary's label numbering, so pairwise evaluation matches a shared
    per-population compression exactly.
    """
    t1, t2 = canonical_pair(t1, t2)

    def neighbours(tree: GeometricTree) -> list[list[int]]:
        adj = [list(kids) for kids in tree.children]
        for i, p in enumerate(tree.parents):
            if p >= 0:
                adj[i].append(int(p))
        return adj

    adj1 = neighbours(t1)
    adj2 = neighbours(t2)
    labels1 = [int(v) for v in t1.degrees]
    labels2 = [int(v) for v in t2.degrees]
    total = _counter_dot(Counter(labels1), Counter(labels2))
    compressed: dict[tuple, int] = {}
    for _ in range(cfg.iterations):
        def refine(labels: list[int], adj: list[list[int]]) -> list[int]:
            out = []
            for v, label in enumerate(labels):
                signature = (label, tuple(sorted(labels[w] for w in adj[v])))
                if signature not in compressed:
                    compressed[signature] = len(compressed)
                out.append(compressed[signature])
            return out

        labels1 = refine(labels1, adj1)
        labels2 = refine(labels2, adj2)
        total += _counter_dot(Counter(labels1), Counter(labels2))
    return total
