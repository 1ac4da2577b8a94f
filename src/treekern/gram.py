"""Gram matrix assembly, normalization, PSD checking, and CSV round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .registry import PairwiseKernel
from .trees import GeometricTree

__all__ = [
    "GramMatrix",
    "PsdReport",
    "assemble",
    "normalize",
    "psd_check",
    "combine",
    "save_gram",
    "load_gram",
    "sidecar_path",
]

_SYMMETRY_TOL = 1e-12


@dataclass
class GramMatrix:
    """Square kernel matrix with the tree ids it was assembled over."""

    ids: list[str]
    values: np.ndarray
    kernel_spec: dict = field(default_factory=dict)
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("Gram matrix must be square")
        if len(self.ids) != self.values.shape[0]:
            raise ValueError("id count does not match matrix size")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate tree ids in Gram matrix")
        bad = np.argwhere(~np.isfinite(self.values))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"Gram matrix has a non-finite entry {self.values[i, j]} at "
                f"({self.ids[i]}, {self.ids[j]})"
            )
        if self.values.size and float(np.abs(self.values - self.values.T).max()) > _SYMMETRY_TOL:
            raise ValueError("Gram matrix is not symmetric")

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PsdReport:
    min_eig: float
    max_eig: float
    is_psd: bool


def assemble(
    trees: Sequence[GeometricTree],
    kernel: PairwiseKernel,
    threads: int | None = None,
) -> GramMatrix:
    """Evaluate a kernel over every tree pair.

    A kernel with a feature map is one ``feature_gram`` of its feature
    matrix. Any other is evaluated over the upper triangle, serially in row
    order, and mirrored. ``kernel.prepare`` runs once before either.
    ``threads`` is accepted for compatibility and validated (it must be at
    least 1) but has no effect: per-pair work holds the interpreter lock, so
    a thread pool never paid for itself.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    if not trees:
        raise ValueError("no trees given")
    ids = [t.id for t in trees]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate tree ids in dataset")
    dims = {(t.n, t.d) for t in trees}
    if len(dims) > 1:
        raise ValueError(f"incompatible tree dimensions in dataset: {sorted(dims)}")
    kernel.prepare(trees)
    if kernel.feature_map is not None:
        values = kernel.feature_map.gram(trees)
    else:
        size = len(trees)
        values = np.zeros((size, size))
        for i in range(size):
            for j in range(i, size):
                values[i, j] = kernel.value(trees[i], trees[j])
        values = np.triu(values) + np.triu(values, 1).T
    return GramMatrix(ids=list(ids), values=values, kernel_spec=kernel.spec)


def normalize(gram: GramMatrix) -> GramMatrix:
    """Cosine-normalize so the diagonal becomes 1: K'_ij = K_ij / sqrt(K_ii K_jj).

    Refuses kernels flagged scalar-linear, where every normalized entry
    degenerates to a constant (for positive scalars, exactly 1) and the
    matrix loses all information. Already-normalized matrices pass through
    unchanged, making the operation idempotent.
    """
    if gram.normalized:
        return gram
    if gram.kernel_spec.get("scalar_linear"):
        name = gram.kernel_spec.get("name", "kernel")
        raise ValueError(
            f"normalization is degenerate for the scalar linear kernel '{name}': "
            "every entry becomes sign(K_ii K_jj); refusing"
        )
    diag = np.diag(gram.values).copy()
    bad = np.flatnonzero(diag <= 0)
    if len(bad):
        raise ValueError(
            f"non-positive diagonal entry for tree id '{gram.ids[bad[0]]}'; cannot normalize"
        )
    scale = np.sqrt(diag)
    values = gram.values / np.outer(scale, scale)
    return GramMatrix(
        ids=list(gram.ids),
        values=values,
        kernel_spec=dict(gram.kernel_spec),
        normalized=True,
    )


def psd_check(gram: GramMatrix, tol: float = 1e-8) -> PsdReport:
    """Eigenvalue test for positive semidefiniteness.

    is_psd holds iff min_eig >= -tol * max(|max_eig|, 1). Raises if the
    matrix is asymmetric beyond 1e-9 (the construction contract).
    """
    values = gram.values
    if values.size and float(np.abs(values - values.T).max()) > 1e-9:
        raise ValueError("matrix asymmetry exceeds 1e-9")
    eigs = np.linalg.eigvalsh(values)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    return PsdReport(min_eig, max_eig, bool(min_eig >= -tol * max(abs(max_eig), 1.0)))


def combine(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    """Entrywise sum of two Gram matrices over the same trees in the same
    order (a sum of PSD kernels is again a PSD kernel)."""
    if g1.ids != g2.ids:
        raise ValueError("cannot combine Gram matrices over different tree id orders")
    return GramMatrix(
        ids=list(g1.ids),
        values=g1.values + g2.values,
        kernel_spec={
            "name": "combine",
            "params": {"parts": [g1.kernel_spec, g2.kernel_spec]},
            "scalar_linear": False,
        },
        normalized=False,
    )


# -- CSV round-trip --------------------------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    return Path(f"{path}.meta.json")


def save_gram(gram: GramMatrix, path: str | Path, version: str | None = None) -> None:
    """Write the matrix as CSV (17 significant digits, row/column ids) plus a
    sidecar JSON recording the kernel spec, normalization flag, and version."""
    from . import __version__

    path = Path(path)
    for tree_id in gram.ids:
        if any(ch in tree_id for ch in ',"\r\n'):
            raise ValueError(f"tree id {tree_id!r} cannot be written to CSV")
    lines = ["id," + ",".join(gram.ids)]
    for i, tree_id in enumerate(gram.ids):
        lines.append(tree_id + "," + ",".join(f"{v:.17g}" for v in gram.values[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {
        "kernel_spec": gram.kernel_spec,
        "normalized": gram.normalized,
        "version": version if version is not None else __version__,
    }
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_gram(path: str | Path) -> GramMatrix:
    """Read a Gram CSV (and its sidecar, when present) back exactly."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("id,"):
        raise ValueError(f"{path}: not a Gram CSV (missing 'id,' header)")
    ids = lines[0].split(",")[1:]
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(ids) + 1:
            raise ValueError(f"{path}: row '{cells[0]}' has {len(cells) - 1} values, expected {len(ids)}")
        rows.append((cells[0], [float(c) for c in cells[1:]]))
    if [r[0] for r in rows] != ids:
        raise ValueError(f"{path}: row ids do not match column ids")
    kernel_spec: dict = {}
    normalized = False
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        kernel_spec = meta.get("kernel_spec", {})
        normalized = bool(meta.get("normalized", False))
    return GramMatrix(
        ids=ids,
        values=np.array([r[1] for r in rows]),
        kernel_spec=kernel_spec,
        normalized=normalized,
    )
