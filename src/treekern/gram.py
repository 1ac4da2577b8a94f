"""Gram matrix assembly, normalization and PSD checking, the Gram and labels
CSV files, whose tree ids obey two rules: :func:`check_writable_ids` and
:func:`check_distinct_ids`, :class:`errors_from`, which names the file of an
input error, :func:`usable_cpus`, which sizes the pools of ``gen`` and
``test``, and the one-thread BLAS scope of the scorer and the feature maps:
every command that reads a file, starts a pool or runs a product loads it."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import threading
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
# Past this share of distinct values in a strip of Gram cells, the writer
# formats every cell instead of each distinct value once.
_DISTINCT_SHARE = 0.75


class _Named(ValueError):
    """An input error that already names its source."""


@dataclass
class errors_from(contextlib.AbstractContextManager):
    """A scope that prefixes ``<source>: `` to a ValueError raised inside, a
    decoding error too, and ``invalid JSON: `` to a JSON syntax error's
    message; an error an inner scope has named passes as it is."""

    source: object

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError) and not isinstance(exc, _Named):
            syntax = "invalid JSON: " if isinstance(exc, json.JSONDecodeError) else ""
            raise _Named(f"{self.source}: {syntax}{exc}") from exc


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU count
    where the platform has no affinity masks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy (``numpy.libs/libscipy_openblas*.so``, as numpy's Linux wheels ship
    it), or None where no such library is found."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):  # the 64-bit-integer build's symbols, then the 32-bit one's
            get, put = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get and put:
                get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """The BLAS thread count that pinned products (the permutation scorer's
    and the feature maps') run at: 1 where numpy's bundled OpenBLAS is found
    and pinned, None where they run unpinned."""
    return None if _openblas_threads() is None else 1


# The thread count is process-wide: pinned callers in two threads take turns,
# so neither restores a count under the other's products. Scopes do not nest.
_PIN = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the products inside on one OpenBLAS thread, then restore the
    count. How a product splits over threads changes its rounding, so
    pinned products give the same bits on any host; without the library
    they run unpinned."""
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    get, put = controls
    with _PIN:
        previous = get()
        put(1)
        try:
            yield
        finally:
            put(previous)


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


def check_finite(values: np.ndarray, ids: Sequence[str] | None = None) -> None:
    """Refuse a square matrix with a NaN or infinite entry, naming its first
    one by the row and column ``ids``, or by index when none are given."""
    # min and max propagate NaN and carry +-inf, so no N x N mask is built unless one is there
    if values.size and not (-np.inf < values.min() and values.max() < np.inf):
        i, j = np.argwhere(~np.isfinite(values))[0]
        at = ", ".join(map(str, (i, j) if ids is None else (ids[i], ids[j])))
        raise ValueError(f"Gram matrix has a non-finite entry {values[i, j]} at ({at})")


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
        check_finite(self.values, self.ids)
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

    Refuses kernels flagged scalar-linear (:func:`check_normalizable`),
    where every normalized entry degenerates to a constant (for positive
    scalars, exactly 1) and the matrix loses all information. Already-normalized matrices pass through
    unchanged, making the operation idempotent.
    """
    if gram.normalized:
        return gram
    check_normalizable(gram.kernel_spec)
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


def check_normalizable(kernel_spec: dict) -> None:
    """Refuse to normalize a kernel its ``kernel_spec`` flags scalar-linear."""
    if kernel_spec.get("scalar_linear"):
        raise ValueError(
            f"normalization is degenerate for the scalar linear kernel '{kernel_spec.get('name', 'kernel')}': "
            "every entry becomes sign(K_ii K_jj); refusing"
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


def check_distinct_ids(ids: Sequence[str]) -> None:
    """Refuse a repeated tree id, naming the first one seen twice; a reader
    names the file the ids came from with :func:`errors_from`."""
    seen: set[str] = set()
    for tree_id in ids:
        if tree_id in seen:
            raise ValueError(f"duplicate tree id '{tree_id}'")
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


def load_gram(path: str | Path) -> GramMatrix:
    """Read a Gram CSV (and its sidecar, when present) back exactly.

    The file is read one line at a time into a preallocated (n, n) array.
    A row's text, the cells after its id, is known by its SHA-256 digest:
    the first row with a given text is parsed in one numpy conversion, and
    a later row with the same text copies that row's values. A cell is
    whatever Python's ``float()`` accepts; the matrix is then held to the
    :class:`GramMatrix` checks. The sidecar is a JSON object whose
    ``kernel_spec``, when present, is an object and whose ``normalized`` is
    a boolean. An error names the file it is in, the CSV or the sidecar.
    """
    path = Path(path)
    with errors_from(path), path.open(encoding="utf-8") as src:
        header = src.readline().rstrip("\n")
        if not header.startswith("id,"):
            raise ValueError("not a Gram CSV (missing 'id,' header)")
        ids = header.split(",")[1:]
        check_distinct_ids(ids)
        values = np.empty((len(ids), len(ids)))
        # digest of a row text -> the first row with it: 32 bytes kept per distinct row, not its text
        first_with: dict[bytes, int] = {}
        row = 0
        for line in src:
            line = line.rstrip("\n")
            if not line:
                continue
            tree_id, _, text = line.partition(",")
            first = first_with.setdefault(hashlib.sha256(text.encode()).digest(), row)
            if first == row:  # a new text: its cells are counted and parsed
                cells = line.split(",")
                if len(cells) != len(ids) + 1:
                    raise ValueError(f"row '{tree_id}' has {len(cells) - 1} values, expected {len(ids)}")
            if row == len(ids) or tree_id != ids[row]:
                raise ValueError("row ids do not match column ids")
            try:
                values[row] = cells[1:] if first == row else values[first]
            except ValueError as err:
                raise ValueError(f"row '{tree_id}': {err}") from err
            row += 1
        if row != len(ids):
            raise ValueError("row ids do not match column ids")
    meta: dict = {}
    meta_file = sidecar_path(path)
    if meta_file.exists():
        with errors_from(meta_file):
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("expected a JSON object")
            if not isinstance(meta.get("kernel_spec", {}), dict):
                raise ValueError(f"'kernel_spec' must be a JSON object, got {meta['kernel_spec']!r}")
            if type(meta.get("normalized", False)) is not bool:
                raise ValueError(f"'normalized' must be a boolean, got {meta['normalized']!r}")
    with errors_from(path):
        return GramMatrix(ids, values, meta.get("kernel_spec", {}), meta.get("normalized", False))


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
    with errors_from(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "tree_id,label":
            raise ValueError("expected header 'tree_id,label'")
        rows = [line.partition(",") for line in lines[1:] if line]
        for tree_id, _, label in rows:
            if label not in ("0", "1"):
                raise ValueError(f"label for '{tree_id}' must be 0 or 1, got {label!r}")
        check_distinct_ids([tree_id for tree_id, _, _ in rows])
        if not rows:
            raise ValueError("no labels")
    return {tree_id: int(label) for tree_id, _, label in rows}
