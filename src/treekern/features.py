"""Explicit feature maps: kernels that are an inner product, or a gaussian,
of one finite vector per tree.

A feature kernel is an extractor ``features(trees) -> Phi`` (one row per
tree) plus a form, so a Gram matrix is one feature matrix and one
:func:`feature_gram`, and a single pair is the same on two rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .trees import GeometricTree

__all__ = ["FORMS", "FeatureMap", "feature_gram", "tree_rows"]

FORMS = ("linear", "gaussian")

# Floats in one block of gaussian row differences (8 MB).
_BLOCK_FLOATS = 1 << 20


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
