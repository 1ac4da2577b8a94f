"""Cohort routes: a :class:`FeatureMap` (one vector per tree, Gram matrix by
:func:`feature_gram`) or a :class:`NodeSet` (weighted points per tree, Gram
matrix by :func:`nodeset_gram`) plus a linear or gaussian form. A single
pair is the same computation on two trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .trees import GeometricTree

__all__ = ["FORMS", "FeatureMap", "NodeSet", "feature_gram", "nodeset_gram", "tree_rows"]

FORMS = ("linear", "gaussian")

# Floats in one block of gaussian row differences (8 MB).
_BLOCK_FLOATS = 1 << 20

# Floats in one node-set temporary (256 KB): more gains no speed and adds
# to a small cohort's peak memory.
_NODE_BLOCK_FLOATS = 1 << 15


def feature_gram(phi: np.ndarray, form: str) -> np.ndarray:
    """Kernel matrix of the rows of ``phi`` under ``form``.

    Every entry is one dot product or one squared distance of two rows,
    both symmetric in their operands, so the result is exactly symmetric,
    and entry (i, j) is bit-identical to the same form applied to rows i
    and j alone.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form '{form}'")
    if form == "linear":
        # A broadcast vector-vector matmul makes one BLAS dot per entry; a
        # GEMM would round differently from the two-row case.
        return np.matmul(phi[:, None, None, :], phi[None, :, :, None])[:, :, 0, 0]
    out = np.empty((len(phi), len(phi)))
    step = max(1, _BLOCK_FLOATS // max(phi.size, 1))
    for start in range(0, len(phi), step):
        diff = phi[start : start + step, None, :] - phi[None, :, :]
        out[start : start + step] = np.exp(-(diff * diff).sum(axis=2))
    return out


def tree_rows(trees: Sequence[GeometricTree], key, row: Callable) -> np.ndarray:
    """Stack per-tree feature arrays into one matrix, one flattened row per tree.

    ``row(tree)`` is memoized on the tree under ``key`` and kept at the
    tree's own size; stacking zero-pads every axis to the largest tree's, so
    an entry keeps its meaning (say, a level or a path length) across trees
    of different heights.
    """
    rows = [tree._memo(key, lambda tree=tree: row(tree)) for tree in trees]
    out = np.zeros((len(rows), *map(max, zip(*(r.shape for r in rows)))))
    for k, r in enumerate(rows):
        out[(k, *(slice(0, s) for s in r.shape))] = r
    return out.reshape(len(rows), -1)


def _pair_terms(zr: np.ndarray, zc: np.ndarray, wr: np.ndarray, wc: np.ndarray, form: str) -> np.ndarray:
    """k(z_u, z_v) <w_u, w_v> for coordinate-major (p, m) points, one
    coordinate at a time, so an entry's rounding depends on its two nodes
    only; direct differences stay exact where |a|^2 + |b|^2 - 2ab cancels."""
    out = np.zeros((zr.shape[1], zc.shape[1]))
    term = np.empty_like(out)
    for a, b in zip(zr, zc):
        if form == "linear":
            out += np.multiply.outer(a, b, out=term)
        else:
            np.subtract.outer(a, b, out=term)
            out += np.multiply(term, term, out=term)
    if form == "gaussian":
        np.exp(np.negative(out, out=out), out=out)
    # Integer weights: the inner products are exact in any order.
    return np.multiply(out, np.matmul(wr, wc.T, out=term), out=out)


def _add_group(out, slots, z, w, bounds, form: str, block: int) -> None:
    """Add one group's sums into ``out``: the trees at ``slots`` hold nodes
    ``bounds[k]:bounds[k + 1]`` of ``z`` (coordinate-major) and ``w``."""
    trees, total = len(slots), int(bounds[-1])
    i0 = 0
    while i0 < trees:
        # Whole trees as rows, against their own and later trees' nodes,
        # in row tiles of about ``block`` floats.
        i1 = max(i0 + 1, int(np.searchsorted(bounds, bounds[i0] + block // trees, "right")) - 1)
        cols = slice(bounds[i0], total)
        sums = np.empty((bounds[i1] - bounds[i0], trees - i0))
        step = max(1, block // (total - bounds[i0]))
        for lo in range(0, len(sums), step):
            rows = slice(bounds[i0] + lo, bounds[i0] + min(lo + step, len(sums)))
            pairs = _pair_terms(z[:, rows], z[:, cols], w[rows], w[cols], form)
            sums[lo : lo + step] = np.add.reduceat(pairs, bounds[i0:-1] - bounds[i0], axis=1)
        part = np.add.reduceat(sums, bounds[i0:i1] - bounds[i0], axis=0)
        first, second = np.arange(i0, i1)[:, None], np.arange(i0, trees)
        out[np.ix_(slots[i0:i1], slots[i0:])] += np.where(first <= second, part, 0.0)
        out[np.ix_(slots[i0:], slots[i0:i1])] += np.where(first < second, part, 0.0).T
        i0 = i1


def nodeset_gram(sets: Sequence[tuple], form: str, block: int, order: Sequence[int] | None = None) -> np.ndarray:
    """Gram matrix of a weighted node-set kernel.

    ``sets`` holds one (z, g, w) per tree: points z (m, p), integer group
    ids g sorted ascending and integer weight rows w (m, h). Entry (s, t)
    sums k(z_u, z_v) <w_u, w_v> (w zero-padded) over same-group node pairs;
    k is the dot product (linear) or exp(-||z_u - z_v||^2) (gaussian).

    A pair is summed once, the tree earlier in ``order`` as rows, over each
    row's nodes, then the rows, then the groups, in blocks of about
    ``block`` floats, and written to both entries: the result is exactly
    symmetric, and an entry depends on neither the other trees nor ``block``.
    """
    slots = np.arange(len(sets)) if order is None else np.asarray(order, dtype=np.intp)
    sets = [sets[k] for k in slots]
    out = np.zeros((len(sets), len(sets)))
    # Not np.unique: its first call imports numpy.ma, about 1 MB.
    for group in sorted(set(np.concatenate([g for _, g, _ in sets]).tolist())):
        parts = []
        for slot, (z, g, w) in zip(slots, sets):
            lo, hi = np.searchsorted(g, (group, group + 1))
            if hi > lo:
                parts.append((slot, z[lo:hi], w[lo:hi]))
        bounds = np.cumsum([0] + [len(z) for _, z, _ in parts])
        z = np.concatenate([z for _, z, _ in parts]).T.copy()
        w = np.zeros((len(z[0]), max(w.shape[1] for _, _, w in parts)))
        for (_, _, rows), lo in zip(parts, bounds):
            w[lo : lo + len(rows), : rows.shape[1]] = rows
        _add_group(out, np.array([slot for slot, _, _ in parts]), z, w, bounds, form, block)
    return out


@dataclass(frozen=True)
class FeatureMap:
    """A kernel given by a feature extractor and a form. ``width`` is the
    feature count when the parameters fix it, None when it varies with the trees."""

    features: Callable[[Sequence[GeometricTree]], np.ndarray]
    form: str
    width: int | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form '{self.form}'")

    def gram(self, trees: Sequence[GeometricTree]) -> np.ndarray:
        return feature_gram(self.features(trees), self.form)

    def value(self, t1: GeometricTree, t2: GeometricTree) -> float:
        return float(self.gram([t1, t2])[0, 1])


@dataclass(frozen=True)
class NodeSet:
    """A kernel given by ``nodes(trees)``, each tree's (z, g, w) for
    :func:`nodeset_gram`, and a form. Trees go in ``sort_key`` order, as
    :func:`~treekern.trees.canonical_pair` orders a pair."""

    nodes: Callable[[Sequence[GeometricTree]], list]
    form: str

    def gram(self, trees: Sequence[GeometricTree]) -> np.ndarray:
        order = sorted(range(len(trees)), key=lambda k: trees[k].sort_key)
        return nodeset_gram(self.nodes(trees), self.form, _NODE_BLOCK_FLOATS, order)

    def value(self, t1: GeometricTree, t2: GeometricTree) -> float:
        return float(self.gram([t1, t2])[0, 1])
