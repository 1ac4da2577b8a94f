"""Cohort routes. A route's ``inputs(trees)`` checks the cohort rule and builds
one input per tree, ``gram(trees, inputs)`` the matrix from those inputs, and
``value(t1, t2)`` the same on one pair; nothing is kept on the trees. A
:class:`FeatureMap` gives each tree one feature row and compares rows by dot
products over their common prefix: K = ΦΦᵀ exactly. A :class:`NodeSet` gives
each tree weighted points and sums a gaussian over same-group node pairs. A
:class:`PairLoop` calls a pair function on two trees' inputs. Label
refinement, with cohort-wide labels, has its own route in :mod:`treekern.baselines`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .trees import GeometricTree, canonical_order

__all__ = ["FeatureMap", "NodeSet", "PairLoop", "feature_gram", "nodeset_gram"]

# Floats in one node-set temporary (256 KB): more gains no speed and adds
# to a small cohort's peak memory.
_NODE_BLOCK_FLOATS = 1 << 15


def feature_gram(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Dot products of the 1-D feature ``rows`` over each pair's common
    prefix: rows of length c against every row at least that long, cut to
    c, in one broadcast vector-vector matmul. Each entry is one BLAS dot of
    its two rows, symmetric in them, so the result is exactly symmetric and
    entry (i, j) equals rows i and j alone bit for bit; a GEMM would round
    differently from the two-row case.
    """
    out = np.empty((len(rows), len(rows)))
    lengths = np.array([len(r) for r in rows])
    for c in sorted(set(lengths.tolist())):
        short, long = np.flatnonzero(lengths == c), np.flatnonzero(lengths >= c)
        a, b = np.array([rows[k] for k in short]), np.array([rows[k][:c] for k in long])
        out[np.ix_(short, long)] = np.matmul(a[:, None, None, :], b[None, :, :, None])[:, :, 0, 0]
        out[np.ix_(long, short)] = out[np.ix_(short, long)].T
    return out


def _pair_terms(zr: np.ndarray, zc: np.ndarray, wr: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """exp(-||z_u - z_v||^2) <w_u, w_v> for coordinate-major (p, m) points, one
    coordinate at a time, so an entry's rounding depends on its two nodes
    only; direct differences stay exact where |a|^2 + |b|^2 - 2ab cancels."""
    out = np.zeros((zr.shape[1], zc.shape[1]))
    term = np.empty_like(out)
    for a, b in zip(zr, zc):
        np.subtract.outer(a, b, out=term)
        out += np.multiply(term, term, out=term)
    np.exp(np.negative(out, out=out), out=out)
    # Integer weights: the inner products are exact in any order.
    return np.multiply(out, np.matmul(wr, wc.T, out=term), out=out)


def _add_group(out, slots, z, w, bounds, block: int) -> None:
    """Add one group's sums into ``out``: the trees at ``slots`` hold nodes
    ``bounds[k]:bounds[k + 1]`` of ``z`` (coordinate-major) and ``w``. Each
    pair is written once, into the cell whose row is the earlier tree."""
    trees, total = len(slots), int(bounds[-1])
    i0 = 0
    while i0 < trees:
        # Whole trees as rows, in row tiles of about ``block`` floats; a
        # sub-tile's columns start at the tree of its first row.
        i1 = max(i0 + 1, int(np.searchsorted(bounds, bounds[i0] + block // trees, "right")) - 1)
        sums = np.zeros((bounds[i1] - bounds[i0], trees - i0))
        step = max(1, block // (total - bounds[i0]))
        for lo in range(0, len(sums), step):
            rows = slice(bounds[i0] + lo, bounds[i0] + min(lo + step, len(sums)))
            t = int(np.searchsorted(bounds, rows.start, "right")) - 1
            cols = slice(bounds[t], total)
            pairs = _pair_terms(z[:, rows], z[:, cols], w[rows], w[cols])
            sums[lo : lo + step, t - i0 :] = np.add.reduceat(pairs, bounds[t:-1] - bounds[t], axis=1)
        part = np.add.reduceat(sums, bounds[i0:i1] - bounds[i0], axis=0)
        first, second = np.arange(i0, i1)[:, None], np.arange(i0, trees)
        out[np.ix_(slots[i0:i1], slots[i0:])] += np.where(first <= second, part, 0.0)
        i0 = i1


def nodeset_gram(sets: Sequence[tuple], block: int, order: Sequence[int]) -> np.ndarray:
    """Gram matrix of a weighted gaussian node-set kernel.

    ``sets`` holds one (z, g, w) per tree: points z (m, p), integer group
    ids g sorted ascending and integer weight rows w (m, h). Entry (s, t)
    sums exp(-||z_u - z_v||^2) <w_u, w_v> (w zero-padded) over same-group
    node pairs.

    ``order`` lists every index of ``sets`` once; the routes pass
    :func:`~treekern.trees.canonical_order`. A pair is summed once, the
    earlier tree in ``order`` as rows, over each row's nodes, then the
    rows, then the groups, in blocks of about ``block`` floats, into the
    entry whose row is the earlier tree; square tiles then copy it to the
    other entry. The result is exactly symmetric, and an entry depends on
    neither the other trees nor ``block``.
    """
    slots = np.asarray(order, dtype=np.intp)
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
        _add_group(out, np.array([slot for slot, _, _ in parts]), z, w, bounds, block)
    rank, tile = np.argsort(slots), max(1, math.isqrt(block))
    for r, c in itertools.product(range(0, len(out), tile), repeat=2):
        rows, cols = slice(r, r + tile), slice(c, c + tile)
        np.copyto(out[rows, cols], out[cols, rows].T, where=rank[rows, None] > rank[cols])
    return out


def check_cohort(trees: Sequence[GeometricTree]) -> None:
    """The cohort rule: at least one tree, all with the first tree's (n, d)."""
    if not trees:
        raise ValueError("no trees given")
    first = trees[0]
    odd = next((t for t in trees if (t.n, t.d) != (first.n, first.d)), None)
    if odd is not None:
        dims = f"tree '{odd.id}' has (n, d) = ({odd.n}, {odd.d}), tree '{first.id}' ({first.n}, {first.d})"
        raise ValueError(f"incompatible tree dimensions in dataset: {dims}")


@dataclass(frozen=True)
class _Route:
    """``build(tree)`` gives a tree's input, or refuses a tree that its
    kernel cannot take."""

    build: Callable[[GeometricTree], object]

    def inputs(self, trees: Sequence[GeometricTree]) -> list:
        check_cohort(trees)
        return [self.build(tree) for tree in trees]

    def entry(self, trees: Sequence[GeometricTree], inputs: Sequence) -> float:
        """The kernel between ``trees[0]`` and ``trees[-1]``, from their inputs."""
        return float(self.gram(trees, inputs)[0, -1])

    def value(self, t1: GeometricTree, t2: GeometricTree) -> float:
        """The kernel on one pair; a tree paired with itself builds one input."""
        trees = [t1] if t1 is t2 else [t1, t2]
        return self.entry(trees, self.inputs(trees))


@dataclass(frozen=True)
class FeatureMap(_Route):
    """A linear kernel given by a 1-D feature row per tree: K = ΦΦᵀ.
    ``width`` is the row length when the parameters fix it, None when it
    varies with the trees."""

    width: int | None = None

    def gram(self, trees: Sequence[GeometricTree], inputs: Sequence[np.ndarray]) -> np.ndarray:
        return feature_gram(inputs)


@dataclass(frozen=True)
class NodeSet(_Route):
    """A gaussian kernel given by each tree's (z, g, w) for
    :func:`nodeset_gram`, the trees in :func:`~treekern.trees.canonical_order`."""

    def gram(self, trees: Sequence[GeometricTree], inputs: Sequence[tuple]) -> np.ndarray:
        return nodeset_gram(inputs, _NODE_BLOCK_FLOATS, canonical_order(trees))


@dataclass(frozen=True)
class PairLoop(_Route):
    """A kernel evaluated one tree pair at a time: ``pair(x1, x2)`` on the two
    trees' inputs in :func:`~treekern.trees.canonical_order`, so
    K(T1, T2) == K(T2, T1). ``gram`` walks the pairs of that order once, each
    tree paired with itself and every later tree."""

    pair: Callable[[object, object], float]

    def entry(self, trees: Sequence[GeometricTree], inputs: Sequence) -> float:
        ends = (inputs[0], inputs[-1])
        return float(self.pair(*(ends[k] for k in canonical_order((trees[0], trees[-1])))))

    def gram(self, trees: Sequence[GeometricTree], inputs: Sequence) -> np.ndarray:
        out = np.empty((len(trees), len(trees)))
        for i, j in itertools.combinations_with_replacement(canonical_order(trees), 2):
            out[i, j] = out[j, i] = self.pair(inputs[i], inputs[j])
        return out
