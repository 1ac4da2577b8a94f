"""Path-based kernels between geometric trees.

Two path representations are supported. An *embedded* path resamples the
polyline through the node positions at a fixed number of arc-length
equidistant landmark points and compares stacked landmark vectors. A *node
path* keeps the node sequence itself and compares paths position by position
with a node kernel; paths of different lengths contribute zero.

On top of these sit the tree kernels: the all-pairs kernel sums a path kernel
over every ordered node pair of each tree, and the rootpath kernel sums over
node-to-root paths only. The direct double sums are the reference oracles.
The node-path all-pairs kernel weights each node pair by closed-form path
counts: a pair loop for a gaussian node kernel, a feature map for a linear
one. The node-path rootpath kernel decomposes into same-level node pairs,
each node kernel weighted by the inner product of the two descendant count
vectors: a gaussian node set, or for a linear node kernel a feature map of
per-level sums (see :mod:`treekern.features`). Embedded kernels are node
sets (gaussian) or feature maps of landmark row sums (linear).
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .features import FeatureMap, NodeSet, _pair_terms
from .trees import GeometricTree, NodePath, canonical_pair

__all__ = [
    "NodeKernelSpec",
    "PathKernelSpec",
    "sample_embedded_path",
    "landmark_path_kernel",
    "node_kernel",
    "node_path_kernel",
    "all_pairs_kernel",
    "rootpath_kernel_naive",
    "rootpath_kernel_decomposed",
    "rootpath_kernel_linear_fast",
]

FORMS = ("linear", "gaussian")


def _check_scale(name: str, value) -> None:
    """A gaussian scale is None (its default) or a positive real that is
    finite as a float; an integer past the float range is rejected."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    with contextlib.suppress(OverflowError):
        if value is None or real and 0 < float(value) < math.inf:
            return
    raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class NodeKernelSpec:
    """Kernel between two nodes.

    linear:    <x1, x2>, times <a1, a2> when attributes are used.
    gaussian:  exp(-lambda1 ||x1 - x2||^2), times exp(-lambda2 ||a1 - a2||^2)
               when attributes are used.

    ``lambda1`` defaults to 1/n and ``lambda2`` to 1/d at evaluation time.
    """

    form: str = "gaussian"
    use_attributes: bool = False
    lambda1: float | None = None
    lambda2: float | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown node kernel form '{self.form}'")
        _check_scale("lambda1", self.lambda1)
        _check_scale("lambda2", self.lambda2)


@dataclass(frozen=True)
class PathKernelSpec:
    """Kernel between two paths.

    representation "embedded_landmarks" resamples each path at ``landmarks``
    points and applies ``form`` to the stacked landmark vectors (gaussian
    scale ``lam``, default 1/(landmarks * n)). Embedded paths never consume
    attributes. representation "node_path" compares equal-length node
    sequences with ``node`` and yields zero otherwise.
    """

    representation: str = "node_path"
    form: str = "gaussian"
    landmarks: int = 20
    lam: float | None = None
    node: NodeKernelSpec = field(default_factory=NodeKernelSpec)

    def __post_init__(self):
        if self.representation not in ("node_path", "embedded_landmarks"):
            raise ValueError(f"unknown path representation '{self.representation}'")
        if self.form not in FORMS:
            raise ValueError(f"unknown path kernel form '{self.form}'")
        if self.landmarks < 2:
            raise ValueError("landmark count must be at least 2")
        _check_scale("lam", self.lam)


def _lambda1(spec: NodeKernelSpec, n: int) -> float:
    return spec.lambda1 if spec.lambda1 is not None else 1.0 / n


def _lambda2(spec: NodeKernelSpec, d: int) -> float:
    return spec.lambda2 if spec.lambda2 is not None else 1.0 / d


def _embedded_lam(spec: PathKernelSpec, n: int) -> float:
    return spec.lam if spec.lam is not None else 1.0 / (spec.landmarks * n)


def _check_node_spec(trees, spec: NodeKernelSpec) -> None:
    """Every tree must match the first's dimensions under ``spec``."""
    t1 = trees[0]
    for t2 in trees:
        if t1.n != t2.n:
            raise ValueError(f"geometric dimensions differ: tree '{t2.id}' has n = {t2.n}, tree '{t1.id}' {t1.n}")
        if spec.use_attributes:
            if t1.d == 0 or t2.d == 0:
                bare = t1 if t1.d == 0 else t2
                raise ValueError(f"node kernel uses attributes, which needs d > 0, but tree '{bare.id}' has d = 0")
            if t1.d != t2.d:
                raise ValueError(f"attribute dimensions differ: tree '{t2.id}' has d = {t2.d}, tree '{t1.id}' {t1.d}")


# -- embedded landmark paths ---------------------------------------------------


def sample_embedded_path(tree: GeometricTree, vi: int, vj: int, m: int) -> np.ndarray:
    """Resample the path polyline from ``vi`` to ``vj`` at ``m`` arc-length
    equidistant points, endpoints included: the landmarks, shape (m, n). A
    degenerate path of total length zero yields ``m`` copies of the start
    position."""
    if m < 2:
        raise ValueError("landmark count must be at least 2")
    pts = tree.node_path(vi, vj).positions()
    if len(pts) == 1:
        return np.tile(pts[0], (m, 1))
    seg = np.diff(pts, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total == 0.0:
        return np.tile(pts[0], (m, 1))
    t = np.linspace(0.0, total, m)
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg) - 1)
    denom = np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    frac = np.clip((t - cum[idx]) / denom, 0.0, 1.0)
    return pts[idx] + frac[:, None] * seg[idx]


def landmark_path_kernel(p, q, spec: PathKernelSpec, n: int | None = None) -> float:
    """Kernel between two embedded paths, given as landmark arrays: dot
    product of the stacked landmark vectors, or a gaussian of their squared
    distance."""
    a, b = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"landmark shapes differ: {a.shape} vs {b.shape}")
    if spec.form == "linear":
        return float(np.dot(a.ravel(), b.ravel()))
    lam = _embedded_lam(spec, n if n is not None else a.shape[1])
    diff = a - b
    return float(math.exp(-lam * float((diff * diff).sum())))


def _landmark_stack(tree: GeometricTree, m: int, paths: str) -> np.ndarray:
    """Landmark vectors of every node-to-root path (``paths`` "rootpath",
    |V| rows) or of every ordered node pair's path ("all_pairs", |V|^2
    rows); shape (rows, m*n)."""

    def build():
        nodes = range(tree.size)
        ends = [(v, 0) for v in nodes] if paths == "rootpath" else [(i, j) for i in nodes for j in nodes]
        out = np.array([sample_embedded_path(tree, i, j, m).ravel() for i, j in ends])
        out.setflags(write=False)
        return out

    return tree._memo((paths, "landmarks", m), build)


def landmark_route(spec: PathKernelSpec, paths: str) -> FeatureMap | NodeSet:
    """Cohort route of the embedded-path kernel over ``paths`` (see
    :func:`_landmark_stack`): the inner product of the landmark row sums
    (linear form), or a node set of the landmark rows times sqrt(lam) in one
    group with unit weights (gaussian form)."""
    check = partial(_check_node_spec, spec=NodeKernelSpec())  # positions only
    if spec.form == "linear":
        key = (paths, "landmark_sum", spec.landmarks)
        return FeatureMap(lambda tree: _landmark_stack(tree, spec.landmarks, paths).sum(axis=0), key, check=check)

    def nodes(trees):
        check(trees)
        stacks = [_landmark_stack(tree, spec.landmarks, paths) for tree in trees]
        scales = [math.sqrt(_embedded_lam(spec, tree.n)) for tree in trees]
        return [(c * s, np.zeros(len(s), dtype=np.intp), np.ones((len(s), 1))) for c, s in zip(scales, stacks)]

    return NodeSet(nodes)


# -- node kernels ----------------------------------------------------------------


def node_kernel(t1: GeometricTree, v1: int, t2: GeometricTree, v2: int, spec: NodeKernelSpec) -> float:
    """Kernel between node ``v1`` of ``t1`` and node ``v2`` of ``t2``: the
    node path kernel of the two single-node paths."""
    return node_path_kernel(t1.node_path(v1, v1), t2.node_path(v2, v2), spec)


def node_path_kernel(p1: NodePath, p2: NodePath, spec: NodeKernelSpec) -> float:
    """Sum of position-wise node kernels along two equal-length node paths;
    zero when the lengths differ."""
    if len(p1) != len(p2):
        return 0.0
    t1, t2 = p1.tree, p2.tree
    _check_node_spec((t1, t2), spec)
    x1 = p1.positions()
    x2 = p2.positions()
    if spec.form == "linear":
        vals = (x1 * x2).sum(axis=1)
        if spec.use_attributes:
            vals = vals * (p1.attributes() * p2.attributes()).sum(axis=1)
    else:
        diff = x1 - x2
        vals = np.exp(-_lambda1(spec, t1.n) * (diff * diff).sum(axis=1))
        if spec.use_attributes:
            da = p1.attributes() - p2.attributes()
            vals = vals * np.exp(-_lambda2(spec, t1.d) * (da * da).sum(axis=1))
    return float(vals.sum())


def _node_points(tree: GeometricTree, spec: NodeKernelSpec) -> np.ndarray:
    """One point per node whose dot product (linear form) or exp(-squared
    distance) (gaussian form) is the node kernel ``spec``: the position,
    with the attributes Kronecker it when used, or both scaled by the
    square roots of their gaussian scales and concatenated."""
    if spec.form == "linear":
        if not spec.use_attributes:
            return tree.positions
        return (tree.attributes[:, :, None] * tree.positions[:, None, :]).reshape(tree.size, -1)
    z = math.sqrt(_lambda1(spec, tree.n)) * tree.positions
    if spec.use_attributes:
        z = np.hstack([z, math.sqrt(_lambda2(spec, tree.d)) * tree.attributes])
    return z


def node_point_set(spec: NodeKernelSpec, key, build: Callable) -> NodeSet:
    """Node set whose ``build(tree, points)`` gives a tree's (z, g, w) from
    its node points under the gaussian ``spec``, memoized under ``key``."""

    def nodes(trees):
        _check_node_spec(trees, spec)
        return [tree._memo((key, spec), lambda tree=tree: build(tree, _node_points(tree, spec))) for tree in trees]

    return NodeSet(nodes)


# -- all-pairs tree kernel ---------------------------------------------------------


def _path_counts(tree: GeometricTree) -> np.ndarray:
    """Per-node visit counts of all ordered-pair paths, shape
    (|V|, L(L + 1)/2), L the longest path's node count.

    Slot l(l - 1)/2 + p of row v counts the l-node paths whose node at
    position p is v. The layout is the same for every tree, so a shorter
    tree's slots are a prefix of a taller tree's.

    Closed form, with no path enumerated: a path through v at position p
    starts p edges from v and ends q = l - 1 - p edges from v, on
    different sides of v. Of the S[v, p] * S[v, q] such endpoint pairs (S
    the sphere table), U[v, p] * U[v, q] lie on its parent's side (U = S
    minus the descendant table D) and D[c, p - 1] * D[c, q - 1] on child
    c's side. All terms are integers, so the counts are exact. The build
    adds only O(|V| * L) temporaries, one length at a time.
    """

    def build():
        sphere = tree.sphere_table
        up = sphere.copy()
        up[:, : tree.height] -= tree.descendant_table
        # below[c, p] = D[c, p - 1]: child c's side, p edges from its parent.
        below = np.zeros_like(sphere[1:])
        below[:, 1 : tree.height + 1] = tree.descendant_table[1:]
        # Non-root nodes are ordered by parent: each node's children are one run.
        parents, starts = np.unique(tree.parents[1:], return_index=True)
        top = int(np.flatnonzero(sphere.any(axis=0))[-1]) + 1
        out = np.empty((tree.size, top * (top + 1) // 2))
        for length in range(1, top + 1):
            # Column k of the p side pairs with column k of the q side.
            p, q = slice(0, length), slice(length - 1, None, -1)
            counts = out[:, length * (length - 1) // 2 : length * (length + 1) // 2]
            np.subtract(sphere[:, p] * sphere[:, q], up[:, p] * up[:, q], out=counts)
            counts[parents] -= np.add.reduceat(below[:, p] * below[:, q], starts, axis=0)
        out.setflags(write=False)
        return out

    return tree._memo("path_counts", build)


def all_pairs_linear_map(spec: NodeKernelSpec) -> FeatureMap:
    """Feature map of the node-path all-pairs kernel for a linear node
    kernel: slot s of the row is the node points (the position, Kronecker
    the attributes when used) summed with the path counts of slot s as
    weights (:func:`_path_counts`), laid out slot-major, so rows compare
    over their common prefix, unpadded."""

    def row(tree: GeometricTree) -> np.ndarray:
        return (_path_counts(tree).T @ _node_points(tree, spec)).ravel()

    return FeatureMap(row, ("all_pairs_linear", spec.use_attributes), check=partial(_check_node_spec, spec=spec))


def all_pairs_kernel(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over every ordered node pair of each tree
    (diagonal pairs included).

    Embedded paths are compared through |V|^2 landmark rows per tree
    (:func:`landmark_route`); the gaussian form's cost grows with
    |V1|^2 * |V2|^2 path pairs, so that representation is for small trees
    only. Node paths only pair up at equal lengths, position by position,
    so the sum is the node kernel of every node pair weighted by the inner
    product of the two nodes' path count rows (:func:`_path_counts`, cut
    to the common width): one integer GEMM per pair, exact in any order,
    against exp(-squared distance) of the node points for a gaussian node
    kernel. A linear node kernel factorizes into
    :func:`all_pairs_linear_map`.
    """
    if spec.representation == "embedded_landmarks":
        return landmark_route(spec, "all_pairs").value(t1, t2)
    if spec.node.form == "linear":
        return all_pairs_linear_map(spec.node).value(t1, t2)
    t1, t2 = canonical_pair(t1, t2)
    _check_node_spec((t1, t2), spec.node)
    w1, w2 = _path_counts(t1), _path_counts(t2)
    c = min(w1.shape[1], w2.shape[1])
    z1, z2 = (t._memo(("node_points", spec.node), partial(_node_points, t, spec.node)) for t in (t1, t2))
    return float(_pair_terms(z1.T, z2.T, w1[:, :c], w2[:, :c]).sum())


# -- rootpath tree kernels -----------------------------------------------------------


def rootpath_kernel_naive(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over all node-to-root path pairs, evaluated
    directly. Reference oracle for the rootpath node sets and feature maps."""
    t1, t2 = canonical_pair(t1, t2)
    if spec.representation == "embedded_landmarks":
        _check_node_spec((t1, t2), NodeKernelSpec())  # positions only
        s1 = _landmark_stack(t1, spec.landmarks, "rootpath")
        s2 = _landmark_stack(t2, spec.landmarks, "rootpath")
        return sum(landmark_path_kernel(p, q, spec, t1.n) for p in s1 for q in s2)
    _check_node_spec((t1, t2), spec.node)
    total = 0.0
    for i in range(t1.size):
        p1 = t1.rootpath(i)
        for j in range(t2.size):
            total += node_path_kernel(p1, t2.rootpath(j), spec.node)
    return total


def rootpath_route(spec: NodeKernelSpec) -> FeatureMap | NodeSet:
    """Cohort route of the node-path rootpath kernel: node points grouped by
    level, weighted by descendant count vectors (a same-level node pair
    appears in the direct double sum once per descendant pair at equal
    depths below them). A node set for a gaussian node kernel; a linear one
    factorizes into :func:`rootpath_linear_map`."""
    if spec.form == "linear":
        return rootpath_linear_map(spec)
    return node_point_set(spec, "rootpath_nodes", lambda tree, z: (z, tree.node_levels, tree.descendant_table))


def rootpath_kernel_decomposed(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> float:
    """Node-path rootpath kernel via the descendant-vector decomposition
    (see :func:`rootpath_route`)."""
    return rootpath_route(spec).value(t1, t2)


def rootpath_linear_map(spec: NodeKernelSpec) -> FeatureMap:
    """Feature map of the node-path rootpath kernel for a linear node kernel.

    The decomposed sum factorizes over levels: a level-g node's point (the
    position, Kronecker the attributes when used) times its descendant
    count j levels down adds into slot l(l - 1)/2 + g - 1, l = g + j. A tree
    of height H fills the first H(H + 1)/2 slots of this common layout, so
    rows are compared over their common prefix, unpadded. Cost and
    temporary memory are linear in |V| times the height.
    """
    if spec.form != "linear":
        raise ValueError("rootpath-node-linear-fast requires form=linear")

    def row(tree: GeometricTree) -> np.ndarray:
        nodes = _node_points(tree, spec)
        # Levels are contiguous index ranges, so one reduceat sums each level:
        # by_level[g - 1, j]. Slot s is (l1[s] + 1, g1[s] + 1), as np.tril_indices, cheaper.
        starts = [int(idx[0]) for idx in tree.levels]
        by_level = np.add.reduceat(tree.descendant_table[:, :, None] * nodes[:, None, :], starts, axis=0)
        l1 = np.repeat(np.arange(tree.height), np.arange(1, tree.height + 1))
        g1 = np.arange(len(l1)) - l1 * (l1 + 1) // 2
        return by_level[g1, l1 - g1].ravel()

    return FeatureMap(row, ("rootpath_linear", spec.use_attributes), check=partial(_check_node_spec, spec=spec))


def rootpath_kernel_linear_fast(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> float:
    """Node-path rootpath kernel for linear node kernels via per-level
    Kronecker features (see :func:`rootpath_linear_map`)."""
    return rootpath_linear_map(spec).value(t1, t2)
