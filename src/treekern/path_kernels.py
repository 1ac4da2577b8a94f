"""Path-based kernels between geometric trees.

Two path representations are supported. An *embedded* path resamples the
polyline through the node positions at a fixed number of arc-length
equidistant landmark points and compares stacked landmark vectors. A *node
path* keeps the node sequence itself and compares paths position by position
with a node kernel; paths of different lengths contribute zero.

On top of these sit the tree kernels: the all-pairs kernel sums a path kernel
over every ordered node pair of each tree, and the rootpath kernel sums over
node-to-root paths only; each is a route of :mod:`treekern.features`. The
direct double sum over root paths, a pair loop, is the reference oracle.
The node-path all-pairs kernel weights each node pair by closed-form path
counts: a pair loop for a gaussian node kernel, a feature map for a linear
one. The node-path rootpath kernel decomposes into same-level node pairs,
each node kernel weighted by the inner product of the two descendant count
vectors: a gaussian node set, or for a linear node kernel a feature map of
per-level sums. Embedded kernels are node sets (gaussian) or feature maps
of landmark row sums (linear).
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .features import FeatureMap, NodeSet, PairLoop, _pair_terms, check_cohort
from .trees import GeometricTree, NodePath

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


# The most 8-byte floats one array can hold.
_MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


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
        if self.landmarks > _MAX_FLOATS:
            raise ValueError(
                f"landmarks must be at most {_MAX_FLOATS}, so that one coordinate of a path's "
                f"landmarks fits in an array; got {self.landmarks}"
            )
        _check_scale("lam", self.lam)


def _lambda1(spec: NodeKernelSpec, n: int) -> float:
    return spec.lambda1 if spec.lambda1 is not None else 1.0 / n


def _lambda2(spec: NodeKernelSpec, d: int) -> float:
    return spec.lambda2 if spec.lambda2 is not None else 1.0 / d


def _embedded_lam(spec: PathKernelSpec, n: int) -> float:
    return spec.lam if spec.lam is not None else 1.0 / (spec.landmarks * n)


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
    rows); shape (rows, m*n). A path's ``m`` landmarks must fit in an array."""
    check_landmark_fit(m, tree.n)
    nodes = range(tree.size)
    ends = [(v, 0) for v in nodes] if paths == "rootpath" else [(i, j) for i in nodes for j in nodes]
    return np.array([sample_embedded_path(tree, i, j, m).ravel() for i, j in ends])


def check_landmark_fit(m: int, n: int) -> None:
    """One path's ``m`` landmarks of ``n`` coordinates each must fit in an array."""
    if m > _MAX_FLOATS // n:
        raise ValueError(
            f"landmarks must be at most {_MAX_FLOATS // n} for n = {n}, so that a path's "
            f"landmarks fit in an array; got {m}"
        )


ALL_PAIRS_EMBEDDED_MAX_NODES = 32  # gaussian all-pairs-embedded: one pair compares |V1|^2 |V2|^2 paths


def landmark_route(spec: PathKernelSpec, paths: str) -> FeatureMap | NodeSet:
    """Cohort route of the embedded-path kernel over ``paths`` (see
    :func:`_landmark_stack`): the inner product of the landmark row sums
    (linear form), or a node set of the landmark rows times sqrt(lam) in one
    group with unit weights (gaussian form, over all pairs for trees of at
    most :data:`ALL_PAIRS_EMBEDDED_MAX_NODES` nodes)."""
    if spec.form == "linear":
        return FeatureMap(lambda tree: _landmark_stack(tree, spec.landmarks, paths).sum(axis=0))

    def points(tree):
        if paths == "all_pairs" and tree.size > ALL_PAIRS_EMBEDDED_MAX_NODES:
            raise ValueError(
                f"tree '{tree.id}' has {tree.size} nodes; gaussian all-pairs-embedded compares all "
                f"{tree.size}^2 paths of each tree and takes trees of at most {ALL_PAIRS_EMBEDDED_MAX_NODES} nodes"
            )
        stack = math.sqrt(_embedded_lam(spec, tree.n)) * _landmark_stack(tree, spec.landmarks, paths)
        return stack, np.zeros(len(stack), dtype=np.intp), np.ones((len(stack), 1))

    return NodeSet(points)


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
    check_cohort((t1, t2))
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
    a = tree.attribute_rows("a node kernel that uses attributes") if spec.use_attributes else None
    if spec.form == "linear":
        return tree.positions if a is None else (a[:, :, None] * tree.positions[:, None, :]).reshape(tree.size, -1)
    z = math.sqrt(_lambda1(spec, tree.n)) * tree.positions
    return z if a is None else np.hstack([z, math.sqrt(_lambda2(spec, tree.d)) * a])


def node_point_set(spec: NodeKernelSpec, build: Callable) -> NodeSet:
    """Node set whose ``build(tree, points)`` gives a tree's (z, g, w) from
    its node points under the gaussian ``spec``."""
    return NodeSet(lambda tree: build(tree, _node_points(tree, spec)))


# -- all-pairs tree kernel ---------------------------------------------------------


def _path_count_blocks(tree: GeometricTree, sphere: np.ndarray):
    """Per-node visit counts of all ordered-pair paths from the ``sphere``
    table, one (|V|, l) block per path length l = 1..L (L the longest path's
    node count): entry [v, p] counts the l-node paths with v at position p.

    Closed form, with no path enumerated: a path through v at position p
    starts p edges from v and ends q = l - 1 - p edges from v, on
    different sides of v. Of the S[v, p] * S[v, q] such endpoint pairs (S
    the sphere table), U[v, p] * U[v, q] lie on its parent's side (U = S
    minus the descendant table D) and D[c, p - 1] * D[c, q - 1] on child
    c's side. All terms are integers, so the counts are exact. Each block
    adds only O(|V| * L) temporaries.
    """
    descendants = tree.descendant_table
    up = sphere.copy()
    up[:, : tree.height] -= descendants
    # below[c, p] = D[c, p - 1]: child c's side, p edges from its parent.
    below = np.zeros_like(sphere[1:])
    below[:, 1 : tree.height + 1] = descendants[1:]
    # Non-root nodes are ordered by parent: each node's children are one run.
    parents, starts = np.unique(tree.parents[1:], return_index=True)
    for length in range(1, int(np.flatnonzero(sphere.any(axis=0))[-1]) + 2):
        # Column k of the p side pairs with column k of the q side.
        p, q = slice(0, length), slice(length - 1, None, -1)
        counts = sphere[:, p] * sphere[:, q] - up[:, p] * up[:, q]
        counts[parents] -= np.add.reduceat(below[:, p] * below[:, q], starts, axis=0)
        yield counts


def _path_counts(tree: GeometricTree) -> np.ndarray:
    """The blocks of :func:`_path_count_blocks` side by side, filled one at a
    time: slot l(l - 1)/2 + p of row v counts the l-node paths whose node at
    position p is v, so a shorter tree's slots are a prefix of a taller's."""
    sphere = tree.sphere_table
    top = int(np.flatnonzero(sphere.any(axis=0))[-1]) + 1
    out = np.empty((tree.size, top * (top + 1) // 2))
    for length, counts in enumerate(_path_count_blocks(tree, sphere), 1):
        out[:, length * (length - 1) // 2 : length * (length + 1) // 2] = counts
    return out


def _weighted_node_pairs(x1: tuple, x2: tuple) -> float:
    (z1, w1), (z2, w2) = x1, x2
    c = min(w1.shape[1], w2.shape[1])
    return float(_pair_terms(z1.T, z2.T, w1[:, :c], w2[:, :c]).sum())


def all_pairs_route(spec: NodeKernelSpec) -> FeatureMap | PairLoop:
    """Cohort route of the node-path all-pairs kernel. Node paths only pair
    up at equal lengths, position by position, so the sum is the node
    kernel of every node pair weighted by the inner product of the two
    nodes' path count rows (:func:`_path_counts`, cut to the common width).
    A gaussian node kernel gives a pair loop over each tree's node points
    and count table: one integer GEMM per pair, exact in any order. A linear
    one factorizes into a feature map: slot s of the row is the node points
    (the position, Kronecker the attributes when used) summed with the
    counts of slot s as weights, so rows compare over their common prefix.
    The row is built one path length at a time, so no count table exists."""
    if spec.form == "linear":
        row = lambda tree, z: np.concatenate([(c.T @ z).ravel() for c in _path_count_blocks(tree, tree.sphere_table)])
        return FeatureMap(lambda tree: row(tree, _node_points(tree, spec)))
    return PairLoop(lambda tree: (_node_points(tree, spec), _path_counts(tree)), _weighted_node_pairs)


def all_pairs_kernel(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over every ordered node pair of each tree
    (diagonal pairs included): :func:`all_pairs_route` for node paths.

    Embedded paths are compared through |V|^2 landmark rows per tree
    (:func:`landmark_route`); the gaussian form's cost grows with
    |V1|^2 * |V2|^2 path pairs, so that representation is for small trees
    only.
    """
    if spec.representation == "embedded_landmarks":
        return landmark_route(spec, "all_pairs").value(t1, t2)
    return all_pairs_route(spec.node).value(t1, t2)


# -- rootpath tree kernels -----------------------------------------------------------


def rootpath_naive_route(spec: PathKernelSpec) -> PairLoop:
    """Pair loop of the path kernel summed over all root path pairs; a
    tree's paths are (m, n) landmark arrays or :class:`NodePath` objects."""
    m = spec.landmarks
    if spec.representation == "embedded_landmarks":
        kernel = partial(landmark_path_kernel, spec=spec)
        paths = lambda tree: _landmark_stack(tree, m, "rootpath").reshape(tree.size, m, tree.n)
    else:
        kernel = partial(node_path_kernel, spec=spec.node)
        paths = lambda tree: [tree.rootpath(v) for v in range(tree.size)]

    def pair(paths1: list, paths2: list) -> float:
        total = 0.0
        for p1 in paths1:
            for p2 in paths2:
                total += kernel(p1, p2)
        return total

    return PairLoop(paths, pair)


def rootpath_kernel_naive(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over all node-to-root path pairs, evaluated
    directly (:func:`rootpath_naive_route`). Reference oracle for the
    rootpath node sets and feature maps."""
    return rootpath_naive_route(spec).value(t1, t2)


def rootpath_route(spec: NodeKernelSpec) -> FeatureMap | NodeSet:
    """Cohort route of the node-path rootpath kernel: node points grouped by
    level, weighted by descendant count vectors (a same-level node pair
    appears in the direct double sum once per descendant pair at equal
    depths below them). A node set for a gaussian node kernel; a linear one
    factorizes into :func:`rootpath_linear_map`."""
    if spec.form == "linear":
        return rootpath_linear_map(spec)
    return node_point_set(spec, lambda tree, z: (z, tree.node_levels, tree.descendant_table))


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

    return FeatureMap(row)


def rootpath_kernel_linear_fast(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> float:
    """Node-path rootpath kernel for linear node kernels via per-level
    Kronecker features (see :func:`rootpath_linear_map`)."""
    return rootpath_linear_map(spec).value(t1, t2)
