"""Path-based kernels between geometric trees.

Two path representations are supported. An *embedded* path resamples the
polyline through the node positions at a fixed number of arc-length
equidistant landmark points and compares stacked landmark vectors. A *node
path* keeps the node sequence itself and compares paths position by position
with a node kernel; paths of different lengths contribute zero.

On top of these sit the tree kernels: the all-pairs kernel sums a path kernel
over every ordered node pair of each tree, and the rootpath kernel sums over
node-to-root paths only. For node-path rootpath kernels there are three
routes that must agree: the direct double sum, a per-level decomposition that
weights each node pair by the inner product of their descendant count
vectors, and (for linear node kernels) a Kronecker feature construction whose
per-tree feature tensors make the double sum one inner product. The direct
route is the reference oracle for the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import FORMS, FeatureMap, tree_rows
from .trees import GeometricTree, NodePath, canonical_pair

__all__ = [
    "NodeKernelSpec",
    "PathKernelSpec",
    "EmbeddedPath",
    "sample_embedded_path",
    "landmark_path_kernel",
    "node_kernel",
    "node_path_kernel",
    "all_pairs_kernel",
    "rootpath_kernel_naive",
    "rootpath_kernel_decomposed",
    "rootpath_kernel_linear_fast",
]

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
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")


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
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True, eq=False)
class EmbeddedPath:
    """A path resampled at m arc-length equidistant points, shape (m, n)."""

    landmarks: np.ndarray


def _lambda1(spec: NodeKernelSpec, n: int) -> float:
    return spec.lambda1 if spec.lambda1 is not None else 1.0 / n


def _lambda2(spec: NodeKernelSpec, d: int) -> float:
    return spec.lambda2 if spec.lambda2 is not None else 1.0 / d


def _embedded_lam(spec: PathKernelSpec, n: int) -> float:
    return spec.lam if spec.lam is not None else 1.0 / (spec.landmarks * n)


def _check_node_spec(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> None:
    if t1.n != t2.n:
        raise ValueError(f"geometric dimensions differ: {t1.n} vs {t2.n}")
    if spec.use_attributes:
        if t1.d == 0 or t2.d == 0:
            raise ValueError("node kernel uses attributes but a tree has d = 0")
        if t1.d != t2.d:
            raise ValueError(f"attribute dimensions differ: {t1.d} vs {t2.d}")


# -- embedded landmark paths ---------------------------------------------------


def sample_embedded_path(tree: GeometricTree, vi: int, vj: int, m: int) -> EmbeddedPath:
    """Resample the path polyline from ``vi`` to ``vj`` at ``m`` arc-length
    equidistant points, endpoints included. A degenerate path of total length
    zero yields ``m`` copies of the start position."""
    if m < 2:
        raise ValueError("landmark count must be at least 2")
    pts = tree.node_path(vi, vj).positions()
    if len(pts) == 1:
        out = np.tile(pts[0], (m, 1))
        return EmbeddedPath(out)
    seg = np.diff(pts, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total == 0.0:
        return EmbeddedPath(np.tile(pts[0], (m, 1)))
    t = np.linspace(0.0, total, m)
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg) - 1)
    denom = np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    frac = np.clip((t - cum[idx]) / denom, 0.0, 1.0)
    out = pts[idx] + frac[:, None] * seg[idx]
    return EmbeddedPath(out)


def _as_landmarks(p) -> np.ndarray:
    return p.landmarks if isinstance(p, EmbeddedPath) else np.asarray(p, dtype=float)


def landmark_path_kernel(p, q, spec: PathKernelSpec, n: int | None = None) -> float:
    """Kernel between two embedded paths: dot product of the stacked landmark
    vectors, or a gaussian of their squared distance."""
    a = _as_landmarks(p)
    b = _as_landmarks(q)
    if a.shape != b.shape:
        raise ValueError(f"landmark shapes differ: {a.shape} vs {b.shape}")
    if spec.form == "linear":
        return float(np.dot(a.ravel(), b.ravel()))
    lam = _embedded_lam(spec, n if n is not None else a.shape[1])
    diff = a - b
    return float(math.exp(-lam * float((diff * diff).sum())))


def _rootpath_landmark_stack(tree: GeometricTree, m: int) -> np.ndarray:
    """Landmark vectors of every node-to-root path, shape (|V|, m*n)."""

    def build():
        out = np.empty((tree.size, m * tree.n))
        for v in range(tree.size):
            out[v] = sample_embedded_path(tree, v, tree.root_index, m).landmarks.ravel()
        out.setflags(write=False)
        return out

    return tree._memo(("rootpath_landmarks", m), build)


def _all_pairs_landmark_stack(tree: GeometricTree, m: int) -> np.ndarray:
    """Landmark vectors of all ordered node pair paths, shape (|V|^2, m*n)."""

    def build():
        out = np.empty((tree.size * tree.size, m * tree.n))
        row = 0
        for i in range(tree.size):
            for j in range(tree.size):
                out[row] = sample_embedded_path(tree, i, j, m).landmarks.ravel()
                row += 1
        out.setflags(write=False)
        return out

    return tree._memo(("all_pairs_landmarks", m), build)


def _landmark_cross_sum(s1: np.ndarray, s2: np.ndarray, form: str, lam: float) -> float:
    """Sum of the landmark path kernel over all row pairs of two stacks."""
    if form == "linear":
        return float(np.dot(s1.sum(axis=0), s2.sum(axis=0)))
    norms2 = (s2 * s2).sum(axis=1)
    total = 0.0
    chunk = max(1, 8_000_000 // max(len(s2), 1))
    for start in range(0, len(s1), chunk):
        block = s1[start : start + chunk]
        sq = (block * block).sum(axis=1)[:, None] + norms2[None, :] - 2.0 * (block @ s2.T)
        np.maximum(sq, 0.0, out=sq)
        total += float(np.exp(-lam * sq).sum())
    return total


# -- node kernels ----------------------------------------------------------------


def _node_kernel_matrix(
    t1: GeometricTree,
    idx1: np.ndarray,
    t2: GeometricTree,
    idx2: np.ndarray,
    spec: NodeKernelSpec,
) -> np.ndarray:
    """Node kernel between every node of ``idx1`` and every node of ``idx2``."""
    x1 = t1.positions[idx1]
    x2 = t2.positions[idx2]
    if spec.form == "linear":
        out = x1 @ x2.T
        if spec.use_attributes:
            out = out * (t1.attributes[idx1] @ t2.attributes[idx2].T)
        return out
    diff = x1[:, None, :] - x2[None, :, :]
    out = np.exp(-_lambda1(spec, t1.n) * (diff * diff).sum(axis=2))
    if spec.use_attributes:
        da = t1.attributes[idx1][:, None, :] - t2.attributes[idx2][None, :, :]
        out = out * np.exp(-_lambda2(spec, t1.d) * (da * da).sum(axis=2))
    return out


def node_kernel(t1: GeometricTree, v1: int, t2: GeometricTree, v2: int, spec: NodeKernelSpec) -> float:
    """Kernel between node ``v1`` of ``t1`` and node ``v2`` of ``t2``."""
    _check_node_spec(t1, t2, spec)
    idx1 = np.array([v1], dtype=np.intp)
    idx2 = np.array([v2], dtype=np.intp)
    return float(_node_kernel_matrix(t1, idx1, t2, idx2, spec)[0, 0])


def node_path_kernel(p1: NodePath, p2: NodePath, spec: NodeKernelSpec) -> float:
    """Sum of position-wise node kernels along two equal-length node paths;
    zero when the lengths differ."""
    if len(p1) != len(p2):
        return 0.0
    t1, t2 = p1.tree, p2.tree
    _check_node_spec(t1, t2, spec)
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


# -- all-pairs tree kernel ---------------------------------------------------------


def _path_counts(tree: GeometricTree) -> np.ndarray:
    """Node visit counts of all ordered-pair paths, shape (L, L, |V|).

    Entry [length - 1, position, node] counts the paths of that node length
    whose node at that position is ``node``; L is the longest path's node
    count, and positions at or beyond a length are zero. Paths are
    enumerated once, bucketed by length and reduced with one ``bincount``
    per length; only the counts are cached.
    """

    def build():
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for i in range(tree.size):
            for j in range(tree.size):
                seq = tree.node_path(i, j).nodes
                buckets.setdefault(len(seq), []).append(seq)
        top = max(buckets)
        out = np.zeros((top, top, tree.size))
        for length, seqs in buckets.items():
            # Offset each position's node indices into its own |V|-wide slot.
            flat = np.asarray(seqs, dtype=np.intp) + tree.size * np.arange(length)
            out[length - 1, :length] = np.bincount(
                flat.ravel(), minlength=length * tree.size
            ).reshape(length, tree.size)
        out.setflags(write=False)
        return out

    return tree._memo("path_counts", build)


def all_pairs_kernel(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over every ordered node pair of each tree
    (diagonal pairs included).

    Embedded paths are compared directly: cost grows with |V1|^2 * |V2|^2
    path pairs, so that representation is intended for small trees. Node
    paths only pair up at equal lengths, position by position, so the sum
    is the node kernel matrix weighted by the two trees' per-tree path
    counts: sum over (length, position) of C1[l, p] @ K @ C2[l, p].
    """
    t1, t2 = canonical_pair(t1, t2)
    if spec.representation == "embedded_landmarks":
        if t1.n != t2.n:
            raise ValueError(f"geometric dimensions differ: {t1.n} vs {t2.n}")
        s1 = _all_pairs_landmark_stack(t1, spec.landmarks)
        s2 = _all_pairs_landmark_stack(t2, spec.landmarks)
        return _landmark_cross_sum(s1, s2, spec.form, _embedded_lam(spec, t1.n))
    _check_node_spec(t1, t2, spec.node)
    all1 = np.arange(t1.size, dtype=np.intp)
    all2 = np.arange(t2.size, dtype=np.intp)
    kn = _node_kernel_matrix(t1, all1, t2, all2, spec.node)
    c1 = _path_counts(t1)
    c2 = _path_counts(t2)
    # Trees of different height have different longest paths; both the
    # length and the position axis are cut to the shorter one.
    top = min(len(c1), len(c2))
    return float(((c1[:top, :top] @ kn) * c2[:top, :top]).sum())


# -- rootpath tree kernels -----------------------------------------------------------


def rootpath_kernel_naive(t1: GeometricTree, t2: GeometricTree, spec: PathKernelSpec) -> float:
    """Sum of the path kernel over all node-to-root path pairs, evaluated
    directly. Reference oracle for the decomposed rootpath variants."""
    t1, t2 = canonical_pair(t1, t2)
    if spec.representation == "embedded_landmarks":
        if t1.n != t2.n:
            raise ValueError(f"geometric dimensions differ: {t1.n} vs {t2.n}")
        s1 = _rootpath_landmark_stack(t1, spec.landmarks)
        s2 = _rootpath_landmark_stack(t2, spec.landmarks)
        return _landmark_cross_sum(s1, s2, spec.form, _embedded_lam(spec, t1.n))
    _check_node_spec(t1, t2, spec.node)
    total = 0.0
    for i in range(t1.size):
        p1 = t1.rootpath(i)
        for j in range(t2.size):
            total += node_path_kernel(p1, t2.rootpath(j), spec.node)
    return total


# Up to this many node pairs, one masked product over all nodes is cheaper
# than a Python loop over levels; on 2 vCPUs the two cost the same near
# 3,000 pairs (complete binary trees of about 55 nodes each).
_DENSE_NODE_PAIRS = 2048


def rootpath_kernel_decomposed(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> float:
    """Node-path rootpath kernel via the descendant-vector decomposition.

    A node pair (v1, v2) on the same level appears in the direct double sum
    once for every descendant pair at equal depths below them, so its node
    kernel can be weighted by the inner product of the two descendant count
    vectors (taken over the common prefix) and summed. Small tree pairs are
    summed in one product over all node pairs with cross-level pairs masked
    out; larger ones level by level, which evaluates only same-level pairs.
    """
    t1, t2 = canonical_pair(t1, t2)
    _check_node_spec(t1, t2, spec)
    height = min(t1.height, t2.height)
    # Levels are contiguous index ranges, so the nodes down to the common
    # height are a prefix of each tree.
    n1 = int(t1.levels[height - 1][-1]) + 1
    n2 = int(t2.levels[height - 1][-1]) + 1
    if n1 * n2 <= _DENSE_NODE_PAIRS:
        # The shorter tree's descendant rows are zero from column ``height``
        # on, so cutting both tables there keeps every inner product.
        weights = t1.descendant_table[:n1, :height] @ t2.descendant_table[:n2, :height].T
        weights *= t1.node_levels[:n1, None] == t2.node_levels[None, :n2]
        kn = _node_kernel_matrix(t1, np.arange(n1), t2, np.arange(n2), spec)
        return float((weights * kn).sum())
    total = 0.0
    for level in range(1, height + 1):
        idx1 = t1.levels[level - 1]
        idx2 = t2.levels[level - 1]
        d1 = t1.descendant_matrix(level)
        d2 = t2.descendant_matrix(level)
        width = min(d1.shape[1], d2.shape[1])
        weights = d1[:, :width] @ d2[:, :width].T
        kn = _node_kernel_matrix(t1, idx1, t2, idx2, spec)
        total += float((weights * kn).sum())
    return total


def rootpath_linear_map(spec: NodeKernelSpec) -> FeatureMap:
    """Feature map of the node-path rootpath kernel for a linear node kernel.

    For a linear node kernel the decomposed sum factorizes: entry [l, j, :]
    of a tree's feature tensor sums, over the nodes of level l, the node's
    position (Kronecker its attributes, when used) times its descendant
    count j levels below. Cost is linear in |V| times the height.
    """
    if spec.form != "linear":
        raise ValueError("fast rootpath route requires a linear node kernel spec")

    def row(tree: GeometricTree) -> np.ndarray:
        nodes = tree.positions
        if spec.use_attributes:
            nodes = (tree.attributes[:, :, None] * nodes[:, None, :]).reshape(tree.size, -1)
        # Levels are contiguous index ranges, so one reduceat sums each level.
        starts = [int(idx[0]) for idx in tree.levels]
        return np.add.reduceat(tree.descendant_table[:, :, None] * nodes[:, None, :], starts, axis=0)

    def features(trees):
        for tree in trees:
            _check_node_spec(trees[0], tree, spec)
        return tree_rows(trees, ("rootpath_linear", spec.use_attributes), row)

    return FeatureMap(features, "linear")


def rootpath_kernel_linear_fast(t1: GeometricTree, t2: GeometricTree, spec: NodeKernelSpec) -> float:
    """Node-path rootpath kernel for linear node kernels via per-level
    Kronecker features (see :func:`rootpath_linear_map`)."""
    return rootpath_linear_map(spec).value(t1, t2)
