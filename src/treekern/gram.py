"""Gram matrix assembly, normalization and PSD checking, and the Gram and
labels CSV files, whose tree ids obey two rules: :func:`check_writable_ids`
and :func:`check_distinct_ids`."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # annotations only: test and classify read Grams without the kernels
    from .registry import PairwiseKernel
    from .trees import GeometricTree

__all__ = [
    "GramMatrix",
    "PsdReport",
    "assemble",
    "normalize",
    "psd_check",
    "save_gram",
    "load_gram",
    "sidecar_path",
    "save_labels",
    "load_labels",
]

_SYMMETRY_TOL = 1e-12
# Past this share of distinct values in a strip of Gram cells, formatting or
# parsing every cell costs less than a table of the distinct ones.
_DISTINCT_SHARE = 0.75


def _row_strips(size: int) -> list[slice]:
    """Slices of consecutive rows of a square matrix, about 2^16 floats each."""
    step = max(1, (1 << 16) // max(size, 1))
    return [slice(i, i + step) for i in range(0, size, step)]


def _strip_asymmetry(values: np.ndarray, rows: slice) -> float:
    diff = values[rows] - values[:, rows].T
    return float(np.abs(diff, out=diff).max())


def _max_asymmetry(values: np.ndarray) -> float:
    """max |v_ij - v_ji|, comparing row strips with column strips instead of
    the whole matrix with its transpose. Each strip's difference is its one
    temporary, freed when its helper call returns, before the next is built."""
    return max((_strip_asymmetry(values, rows) for rows in _row_strips(len(values))), default=0.0)


@dataclass
class GramMatrix:
    """Square, finite, symmetric kernel matrix with the distinct tree ids it
    was assembled over."""

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
        check_distinct_ids(self.ids)
        # min and max propagate NaN and carry +-inf, so no N x N mask is built unless one is there
        if self.values.size and not (-np.inf < self.values.min() and self.values.max() < np.inf):
            i, j = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                f"Gram matrix has a non-finite entry {self.values[i, j]} at "
                f"({self.ids[i]}, {self.ids[j]})"
            )
        if _max_asymmetry(self.values) > _SYMMETRY_TOL:
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
    """Evaluate a kernel over every tree pair of trees with distinct ids
    (:func:`check_distinct_ids`).

    The kernel's cohort route (a feature map, a node set, a pair loop or
    label refinement's own) checks the cohort rule and builds one input per
    tree, then the whole matrix from those inputs; ``kernel.prepare`` runs
    once before. ``threads`` is accepted for compatibility and validated (it
    must be at least 1) but has no effect: per-pair work holds the
    interpreter lock, so a thread pool never paid for itself.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    ids = [t.id for t in trees]
    check_distinct_ids(ids)
    kernel.prepare(trees)
    route = kernel.cohort
    values = route.gram(trees, route.inputs(trees))
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
    values = np.empty_like(gram.values)
    for i, row in enumerate(gram.values):
        np.divide(row, scale[i] * scale, out=values[i])
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
    if _max_asymmetry(gram.values) > 1e-9:
        raise ValueError("matrix asymmetry exceeds 1e-9")
    eigs = np.linalg.eigvalsh(gram.values)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    return PsdReport(min_eig, max_eig, bool(min_eig >= -tol * max(abs(max_eig), 1.0)))


# -- CSV files ---------------------------------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    return Path(f"{path}.meta.json")


def check_writable_ids(ids: Sequence[str]) -> None:
    """Refuse a tree id that a Gram or labels CSV cannot hold: one with a
    comma, a quote or a line break (any that ``str.splitlines`` splits at)."""
    for tree_id in ids:
        if "," in tree_id or '"' in tree_id or len(f"{tree_id}.".splitlines()) > 1:
            raise ValueError(f"tree id {tree_id!r} cannot be written to CSV")


def check_distinct_ids(ids: Sequence[str], source: object = None) -> None:
    """Refuse a repeated tree id, naming the first one seen twice, and the
    ``source`` of the ids when one is given."""
    seen: set[str] = set()
    for tree_id in ids:
        if tree_id in seen:
            where = f"{source}: " if source else ""
            raise ValueError(f"{where}duplicate tree id '{tree_id}'")
        seen.add(tree_id)


def save_gram(gram: GramMatrix, path: str | Path) -> None:
    """Write the matrix as CSV plus a sidecar JSON recording the kernel spec,
    normalization flag, and version.

    The CSV has an ``id,<ids>`` header and one ``<id>,<cells>`` line per row;
    each cell is ``%.17g``, which reads back exactly. Rows go out in the
    strips of :func:`_row_strips`, and each distinct value of a strip, told
    apart by its bits so that -0.0 and 0.0 stay apart, is formatted once;
    a strip of more than ``_DISTINCT_SHARE`` distinct values, row by row.
    """
    from . import __version__

    path = Path(path)
    check_writable_ids(gram.ids)
    with path.open("w", encoding="utf-8") as out:
        out.write("id," + ",".join(gram.ids) + "\n")
        for rows in _row_strips(gram.size):
            strip = gram.values[rows]
            bits, inverse = np.unique(strip.view(np.int64).ravel(), return_inverse=True)
            if len(bits) > _DISTINCT_SHARE * strip.size:
                lines = [",%.17g" * gram.size % tuple(row) for row in strip.tolist()]
            else:
                formatted = "%.17g," * len(bits) % tuple(bits.view(float).tolist())
                cells = np.array(formatted.split(",")[:-1], dtype=object)[inverse].reshape(strip.shape)
                lines = ["," + ",".join(row) for row in cells.tolist()]
            for tree_id, line in zip(gram.ids[rows], lines):
                out.write(tree_id + line + "\n")
    meta = {
        "kernel_spec": gram.kernel_spec,
        "normalized": gram.normalized,
        "version": __version__,
    }
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Parsed(dict):
    """Cell text -> ``float(text)``, converting each text once, on its first lookup."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def load_gram(path: str | Path) -> GramMatrix:
    """Read a Gram CSV (and its sidecar, when present) back exactly.

    The file is read one line at a time into a preallocated (n, n) array,
    in the strips of :func:`_row_strips` that :func:`save_gram` writes. A
    cell is whatever Python's ``float()`` accepts; non-finite values are
    then rejected with the rest of the :class:`GramMatrix` checks. When at
    most ``_DISTINCT_SHARE`` of the cells of a strip's first row are
    distinct texts, the strip's rows go through one text -> float table, so
    each distinct text is converted once per strip; otherwise, and after a
    row of more than that share of new texts, each row's cells are parsed
    in one numpy conversion.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as src:
        header = src.readline().rstrip("\n")
        if not header.startswith("id,"):
            raise ValueError(f"{path}: not a Gram CSV (missing 'id,' header)")
        ids = header.split(",")[1:]
        check_distinct_ids(ids, path)
        values = np.empty((len(ids), len(ids)))
        strip_starts = {rows.start for rows in _row_strips(len(ids))}
        table = None
        row = 0
        for line in src:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(ids) + 1:
                raise ValueError(f"{path}: row '{cells[0]}' has {len(cells) - 1} values, expected {len(ids)}")
            if row == len(ids) or cells[0] != ids[row]:
                raise ValueError(f"{path}: row ids do not match column ids")
            texts = cells[1:]
            if row in strip_starts:
                table = _Parsed() if len(set(texts)) <= _DISTINCT_SHARE * len(texts) else None
            try:
                if table is None:
                    values[row] = texts
                else:
                    known = len(table)
                    values[row] = np.fromiter(map(table.__getitem__, texts), float, len(texts))
                    if len(table) - known > _DISTINCT_SHARE * len(texts):  # mostly new texts: stop the table
                        table = None
            except ValueError as err:
                raise ValueError(f"{path}: row '{cells[0]}': {err}") from err
            row += 1
    if row != len(ids):
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
        values=values,
        kernel_spec=kernel_spec,
        normalized=normalized,
    )


def save_labels(ids: list[str], labels, path: str | Path) -> None:
    """Write a ``tree_id,label`` CSV that :func:`load_labels` reads back.
    Ids and labels it could not read back are refused before anything is
    written: an empty list, an id :func:`check_writable_ids` refuses, a
    repeated id, or a label other than 0 or 1."""
    labels = list(labels)
    if len(ids) != len(labels):
        raise ValueError("ids and labels differ in length")
    if not ids:
        raise ValueError("no labels")
    check_writable_ids(ids)
    check_distinct_ids(ids)
    for tree_id, label in zip(ids, labels):
        if label not in (0, 1):
            raise ValueError(f"label for '{tree_id}' must be 0 or 1, got {label!r}")
    lines = ["tree_id,label"] + [f"{i},{int(l)}" for i, l in zip(ids, labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path: str | Path) -> dict[str, int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "tree_id,label":
        raise ValueError(f"{path}: expected header 'tree_id,label'")
    rows = [line.partition(",") for line in lines[1:] if line]
    for tree_id, _, label in rows:
        if label not in ("0", "1"):
            raise ValueError(f"{path}: label for '{tree_id}' must be 0 or 1, got {label!r}")
    check_distinct_ids([tree_id for tree_id, _, _ in rows], path)
    if not rows:
        raise ValueError(f"{path}: no labels")
    return {tree_id: int(label) for tree_id, _, label in rows}
