"""Baseline tree kernels: point clouds, attribute summaries, branch counts,
shortest paths, and iterative label refinement."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, tree_rows
from .trees import GeometricTree, canonical_pair

__all__ = [
    "WLConfig",
    "pointcloud_kernel",
    "average_attribute_kernel",
    "generation_average_kernel",
    "branchcount_kernels",
    "shortest_path_kernel",
    "weisfeiler_lehman_kernel",
]


@dataclass(frozen=True)
class WLConfig:
    """Label-refinement kernel settings: number of refinement rounds."""

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def pointcloud_kernel(
    t1: GeometricTree,
    t2: GeometricTree,
    lambda1: float | None = None,
    lambda2: float | None = None,
) -> float:
    """Sum over all edge pairs of a gaussian in the child-node positions
    times a gaussian in the child-node attributes.

    Each edge is represented by the node it leads to, so the root contributes
    no edge. Requires attributed trees (d > 0); a single-node tree has no
    edges and yields 0 with a warning. lambda1 defaults to 1/n, lambda2 to 1/d.
    """
    t1, t2 = canonical_pair(t1, t2)
    if t1.n != t2.n:
        raise ValueError(f"geometric dimensions differ: {t1.n} vs {t2.n}")
    if t1.d == 0 or t2.d == 0:
        raise ValueError("pointcloud kernel requires attributed trees (d > 0)")
    if t1.d != t2.d:
        raise ValueError(f"attribute dimensions differ: {t1.d} vs {t2.d}")
    if t1.size == 1 or t2.size == 1:
        single = t1.id if t1.size == 1 else t2.id
        warnings.warn(f"tree '{single}' has no edges; pointcloud kernel is 0", stacklevel=2)
        return 0.0
    l1 = lambda1 if lambda1 is not None else 1.0 / t1.n
    l2 = lambda2 if lambda2 is not None else 1.0 / t1.d
    if not (l1 > 0 and l2 > 0):
        raise ValueError("lambda1 and lambda2 must be positive")
    x1 = t1.positions[1:]
    x2 = t2.positions[1:]
    a1 = t1.attributes[1:]
    a2 = t2.attributes[1:]
    dx = x1[:, None, :] - x2[None, :, :]
    da = a1[:, None, :] - a2[None, :, :]
    vals = np.exp(-l1 * (dx * dx).sum(axis=2)) * np.exp(-l2 * (da * da).sum(axis=2))
    return float(vals.sum())


def _attribute_column(tree: GeometricTree, component: int) -> np.ndarray:
    if tree.d == 0:
        raise ValueError(f"tree '{tree.id}' has no attributes (d = 0)")
    if not (0 <= component < tree.d):
        raise ValueError(f"attribute component {component} out of range for d = {tree.d}")
    return tree.attributes[:, component]


def attribute_mean_map(component: int = 0, form: str = "gaussian") -> FeatureMap:
    """Feature map of :func:`average_attribute_kernel`."""

    def row(tree: GeometricTree) -> np.ndarray:
        return np.array([float(_attribute_column(tree, component).mean())])

    return FeatureMap(lambda trees: tree_rows(trees, ("attribute_mean", component), row), form, 1)


def average_attribute_kernel(
    t1: GeometricTree,
    t2: GeometricTree,
    component: int = 0,
    form: str = "gaussian",
) -> float:
    """Compare the tree-wide means of one attribute component: gaussian of
    the squared mean difference, or the plain product of means (linear)."""
    return attribute_mean_map(component, form).value(t1, t2)


def generation_mean_map(
    gen_lo: int = 3, gen_hi: int = 6, component: int = 0, form: str = "gaussian"
) -> FeatureMap:
    """Feature map of :func:`generation_average_kernel`, one column per
    generation; a tree warns once for each generation it lacks."""
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
    return FeatureMap(lambda trees: tree_rows(trees, key, row), form, gen_hi - gen_lo + 1)


def generation_average_kernel(
    t1: GeometricTree,
    t2: GeometricTree,
    gen_lo: int = 3,
    gen_hi: int = 6,
    component: int = 0,
    form: str = "gaussian",
) -> float:
    """Compare vectors of per-generation attribute means.

    Generation g holds the nodes at depth g (root depth 0). Generations
    outside the tree contribute a mean of 0, with a warning.
    """
    return generation_mean_map(gen_lo, gen_hi, component, form).value(t1, t2)


def node_count_map(form: str) -> FeatureMap:
    """Feature map of :func:`branchcount_kernels`: the node count |V|."""
    return FeatureMap(lambda trees: np.array([[float(t.size)] for t in trees]), form, 1)


def branchcount_kernels(t1: GeometricTree, t2: GeometricTree) -> tuple[float, float]:
    """Node-count kernels: (|V1| * |V2|, exp(-(|V1| - |V2|)^2))."""
    return node_count_map("linear").value(t1, t2), node_count_map("gaussian").value(t1, t2)


def _path_length_counts(tree: GeometricTree) -> np.ndarray:
    """counts[k] = number of ordered node pairs at tree distance k (edge
    count), diagonal included, via breadth-first search from every node."""
    adj = [list(kids) for kids in tree.children]
    for i, p in enumerate(tree.parents):
        if p >= 0:
            adj[i].append(int(p))
    counts = np.zeros(2 * tree.height, dtype=np.int64)
    dist = np.empty(tree.size, dtype=np.int64)
    for src in range(tree.size):
        dist.fill(-1)
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        counts += np.bincount(dist, minlength=len(counts))
    return counts.astype(float)


def shortest_path_map(length_kernel: str = "delta") -> FeatureMap:
    """Feature map of :func:`shortest_path_kernel`: the counts per length,
    or (linear length kernel) their single length-weighted sum."""
    if length_kernel not in ("delta", "linear"):
        raise ValueError(f"unknown length kernel '{length_kernel}'")

    def features(trees):
        counts = tree_rows(trees, "path_length_counts", _path_length_counts)
        if length_kernel == "delta":
            return counts
        # Integer counts times integer lengths: the sum is exact in any order.
        return counts @ np.arange(counts.shape[1], dtype=float)[:, None]

    return FeatureMap(features, "linear", 1 if length_kernel == "linear" else None)


def shortest_path_kernel(t1: GeometricTree, t2: GeometricTree, length_kernel: str = "delta") -> float:
    """Compare the multisets of pairwise path lengths of two trees.

    With the delta length kernel, the value is the sum over lengths of the
    product of occurrence counts; with the linear length kernel, lengths are
    compared by their product, which factorizes into a product of weighted
    count sums.
    """
    return shortest_path_map(length_kernel).value(t1, t2)


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
