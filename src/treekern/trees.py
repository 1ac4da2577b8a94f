"""Geometric tree data model, structural queries, and the tree JSON format.

A geometric tree is a rooted tree whose nodes carry a position in R^n and,
optionally, a measurement vector in R^d. A tree is built from a parent
array with one position row (and one attribute row) per node and is held
as read-only arrays in a canonical breadth-first order, so the same tree
always serializes to the same bytes whatever order its nodes came in.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NodePath",
    "GeometricTree",
    "canonical_order",
    "parse_tree",
    "serialize_tree",
    "load_dataset",
    "dataset_files",
    "save_dataset",
    "save_serialized",
]


@dataclass(frozen=True, eq=False)
class NodePath:
    """The unique simple path between two nodes, as a node index sequence.

    The sequence ascends from the first endpoint to the common ancestor and
    then descends to the second endpoint. Paths are produced by
    :meth:`GeometricTree.node_path` and are not re-validated here.
    """

    tree: "GeometricTree"
    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def reverse(self) -> "NodePath":
        return NodePath(self.tree, self.nodes[::-1])

    def positions(self) -> np.ndarray:
        """Positions along the path, shape (len, n)."""
        return self.tree.positions[list(self.nodes)]

    def attributes(self) -> np.ndarray:
        """Attributes along the path, shape (len, d); the tree must have d > 0."""
        return self.tree.attribute_rows("reading a node path's attributes")[list(self.nodes)]


class _NodeError(ValueError):
    """A construction error about the node at input position ``pos``, told
    by ``say(name)`` with the node's name; the constructor names it by
    ``pos``, the JSON reader by its JSON id."""

    def __init__(self, tree_id: str, pos: int, say: Callable[[object], str]):
        super().__init__(f"tree '{tree_id}': {say(pos)}")
        self.pos, self.say = pos, say


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class GeometricTree:
    """Rooted tree embedded in R^n with optional per-node measurements in R^d.

    Built from input-order ``parents`` (-1 marks the root), ``positions``
    (|V|, n) and ``attributes`` (|V|, d), or None when d = 0, as arrays or
    lists of rows; ``n`` and ``d`` default to the width of the first row.
    The representation is four read-only arrays in a canonical
    breadth-first order (level, then parent index, then input order):
    ``parents`` (-1 at the root), ``node_levels``, ``positions`` and
    ``attributes``. The order makes serialization deterministic and keeps
    each level a contiguous index range. Each structural table (children,
    degrees, levels, descendant and sphere tables) is computed when read, as
    a fresh read-only array, and only the fingerprint is kept, so read a
    table once and pass it; paths and kernel inputs are not kept either.
    Positions and attributes must be finite.

    Levels are 1-based: the root is the only node at level 1.
    """

    def __init__(self, tree_id: str, parents, positions, attributes=None, n: int | None = None, d: int | None = None):
        """Validate input-order arrays and store them in canonical order.

        A breadth-first pass from the root over children listed in input
        order visits the nodes in canonical order, one level at a time, so
        it yields the level bounds too. Nodes it misses sit on or below a cycle.
        """
        self.id = str(tree_id)
        raw = np.asarray(parents, dtype=np.intp)
        raw_list = raw.tolist()
        size = len(raw_list)
        if not size:
            raise ValueError(f"tree '{self.id}': has no nodes")
        if raw_list.count(-1) != 1:
            roots = [i for i, p in enumerate(raw_list) if p == -1]
            if not roots:
                raise ValueError(f"tree '{self.id}': no root node (every node has a parent)")
            raise ValueError(f"tree '{self.id}': multiple roots at positions {roots}")
        if min(raw_list) < -1 or max(raw_list) >= size:
            i = next(i for i, p in enumerate(raw_list) if not -1 <= p < size)
            raise _NodeError(self.id, i, lambda node: f"node {node} has invalid parent index {raw_list[i]}")

        kids: list[list[int]] = [[] for _ in range(size + 1)]
        for i, p in enumerate(raw_list):
            kids[p].append(i)  # the root's parent, -1, picks the spare last list
        order = kids.pop()
        bounds = [0, 1]  # level l spans order[bounds[l - 1] : bounds[l]]; the last one is empty
        while bounds[-2] < bounds[-1]:
            for v in order[bounds[-2] : bounds[-1]]:
                order.extend(kids[v])
            bounds.append(len(order))
        if len(order) < size:
            v = min(set(range(size)).difference(order))
            for _ in range(size):  # |V| steps up from any node end on its cycle
                v = raw_list[v]
            raise _NodeError(self.id, v, lambda node: f"cycle detected involving node {node}")

        for what, rows in (("position", positions), ("attribute", attributes)):
            if rows is not None and len(rows) != size:
                raise ValueError(f"tree '{self.id}': {len(rows)} {what} rows for {size} nodes")
        self.n = int(n) if n is not None else int(np.asarray(positions[0]).size)
        if self.n < 1:
            raise ValueError(f"tree '{self.id}': geometric dimension must be positive")
        if d is None:
            d = 0 if attributes is None else int(np.asarray(attributes[0]).size)
        self.d = int(d)
        if self.d < 0:
            raise ValueError(f"tree '{self.id}': attribute dimension must be >= 0")
        if (attributes is not None) != (self.d > 0):
            raise ValueError(f"tree '{self.id}': attributes must be given exactly when d > 0 (d = {self.d})")
        xs = self._stack_rows(positions, self.n, "position has")
        attrs = self._stack_rows(attributes, self.d, "attributes have") if self.d > 0 else None
        for name, values in (("position", xs), ("attribute vector", attrs)):
            if values is not None and not np.isfinite(values).all():
                raw_node = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
                raise _NodeError(self.id, raw_node, lambda node: f"node {node} has a non-finite {name}")

        order_arr = np.array(order, dtype=np.intp)
        canon_of_raw = np.empty(size, dtype=np.intp)
        canon_of_raw[order_arr] = np.arange(size)
        self.parents = _read_only(np.concatenate(([-1], canon_of_raw[raw[order_arr[1:]]])))
        self.positions = _read_only(xs[order_arr])
        self.attributes = None if attrs is None else _read_only(attrs[order_arr])
        self.node_levels = _read_only(np.searchsorted(bounds[1:-1], np.arange(size), side="right") + 1)

    def _stack_rows(self, rows, width: int, what: str) -> np.ndarray:
        """Rows of numbers as one (|V|, width) float array; the first row of
        another size, or holding anything but numbers, raises, naming its
        input position."""
        with contextlib.suppress(ValueError):  # ragged rows
            stacked = np.array(rows)
            if stacked.shape == (len(rows), width) and stacked.dtype.kind in "iuf":
                return stacked.astype(float, copy=False)
        flat = []
        for i, row in enumerate(rows):
            try:
                flat.append(np.array(row).ravel())
            except ValueError:  # a ragged row
                flat.append(np.array([row], dtype=object))
            if flat[-1].dtype.kind not in "iuf":
                raise _NodeError(self.id, i, lambda node: f"node {node} {what} an entry that is not a number: {row!r}")
            got = flat[-1].size
            if got != width:
                raise _NodeError(self.id, i, lambda node: f"node {node} {what} dimension {got}, expected {width}")
        return np.array(flat, dtype=float)

    # -- basic structure -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.parents)

    @property
    def height(self) -> int:
        """Number of levels (a single-node tree has height 1)."""
        return int(self.node_levels[-1])

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        # in canonical order the children of a node are one index range
        bounds = np.searchsorted(self.parents, np.arange(self.size + 1)).tolist()
        return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))

    @property
    def degrees(self) -> np.ndarray:
        """Undirected node degrees (children count plus one if not the root)."""
        deg = np.bincount(self.parents[1:], minlength=self.size)
        deg[1:] += 1
        return _read_only(deg)

    def nodes_at_level(self, level: int) -> np.ndarray:
        """Node indices at a 1-based level; empty beyond the height."""
        if level < 1:
            raise ValueError("levels are 1-based")
        lo = int(np.searchsorted(self.node_levels, level, side="left"))
        hi = int(np.searchsorted(self.node_levels, level, side="right"))
        return np.arange(lo, hi, dtype=np.intp)

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Index arrays per level; levels[l - 1] holds the nodes at level l."""
        return tuple(_read_only(self.nodes_at_level(l)) for l in range(1, self.height + 1))

    def attribute_rows(self, reader: str) -> np.ndarray:
        """The attribute rows, shape (|V|, d), for ``reader``, which needs
        d > 0: a tree with d = 0 is refused, naming the tree and ``reader``."""
        if self.attributes is None:
            raise ValueError(f"{reader} needs d > 0, but tree '{self.id}' has d = 0")
        return self.attributes

    # -- paths -----------------------------------------------------------------

    def node_path(self, vi: int, vj: int) -> NodePath:
        """Unique simple path from ``vi`` to ``vj`` through their lowest
        common ancestor. ``node_path(v, v)`` is the single-node path."""
        for v in (vi, vj):
            if not (0 <= v < self.size):
                raise ValueError(f"tree '{self.id}': node index {v} out of range")
        up_i: list[int] = []
        up_j: list[int] = []
        a, b = vi, vj
        while self.node_levels[a] > self.node_levels[b]:
            up_i.append(a)
            a = int(self.parents[a])
        while self.node_levels[b] > self.node_levels[a]:
            up_j.append(b)
            b = int(self.parents[b])
        while a != b:
            up_i.append(a)
            up_j.append(b)
            a = int(self.parents[a])
            b = int(self.parents[b])
        return NodePath(self, tuple(up_i) + (a,) + tuple(reversed(up_j)))

    def rootpath(self, v: int) -> NodePath:
        """Path from ``v`` up to the root (node-to-root orientation)."""
        return self.node_path(v, 0)  # node 0 is the root

    # -- descendant vectors ------------------------------------------------------

    @property
    def descendant_table(self) -> np.ndarray:
        """Descendant vectors of all nodes as float rows, zero-padded to the
        height; shape (size, height). Entry [v, k] counts the descendants of
        v (v included) that sit k levels below v, so entry [v, 0] is 1.

        In canonical order the parent array does not decrease, so the
        descendants of v k levels down are one index range [lo, hi): the
        children of a range are the nodes whose parent lies in it, found by
        two binary searches, one level at a time for all nodes at once.
        """
        table = np.zeros((self.size, self.height))
        lo = np.arange(self.size)
        hi = lo + 1
        for k in range(self.height):
            table[:, k] = hi - lo
            lo, hi = np.searchsorted(self.parents, lo), np.searchsorted(self.parents, hi)
        return _read_only(table)

    @property
    def sphere_table(self) -> np.ndarray:
        """Sphere sizes of all nodes as float rows: entry [v, k] counts the
        nodes at tree distance k (in edges) from v, v itself at k = 0.
        Shape (size, 2 * height), wide enough for the longest path.

        Built top-down over levels. The nodes k edges from v are its
        descendants k levels down plus those reached through its parent:
        the parent's sphere of radius k - 1, less the ones back through v,
        so S[v, k] = D[v, k] + S[parent, k - 1] - D[v, k - 2] for k >= 1,
        with D the descendant table and D[v, -1] = 0.
        """
        width = 2 * self.height
        # shifted[:, k + 1] = D[:, k], so column 0 reads D[:, -1] = 0.
        shifted = np.zeros((self.size, width + 1))
        shifted[:, 1 : self.height + 1] = self.descendant_table
        table = shifted[:, 1:].copy()
        for idx in self.levels[1:]:
            table[idx, 1:] += table[self.parents[idx], :-1] - shifted[idx, : width - 1]
        return _read_only(table)

    # -- identity ----------------------------------------------------------------

    @functools.cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialization."""
        return hashlib.sha256(serialize_tree(self)).hexdigest()

    def __repr__(self) -> str:
        return f"GeometricTree(id={self.id!r}, size={self.size}, n={self.n}, d={self.d})"


def canonical_order(trees: Sequence[GeometricTree]) -> list[int]:
    """Indices of ``trees`` by id, then by fingerprint among distinct trees
    that share an id (no other tree computes one). Every route sums a pair
    with its earlier tree as the rows, so swapping two trees cannot change
    the evaluation order and K(T1, T2) == K(T2, T1) holds exactly."""
    shared = Counter(tree.id for tree in {id(tree): tree for tree in trees}.values())
    keys = [(tree.id, tree.fingerprint if shared[tree.id] > 1 else "") for tree in trees]
    return sorted(range(len(trees)), key=keys.__getitem__)


# -- JSON format ------------------------------------------------------------------


def _tree_to_obj(tree: GeometricTree) -> dict:
    parents = [None if p < 0 else p for p in tree.parents.tolist()]
    nodes = [{"id": i, "parent": p, "x": x} for i, (p, x) in enumerate(zip(parents, tree.positions.tolist()))]
    if tree.d > 0:
        for node, a in zip(nodes, tree.attributes.tolist()):
            node["a"] = a
    return {"id": tree.id, "n": tree.n, "d": tree.d, "nodes": nodes}


def serialize_tree(tree: GeometricTree) -> bytes:
    """Canonical JSON bytes for one tree (newline-terminated).

    Nodes appear in canonical order and are renumbered 0..|V|-1, so
    serialize(parse(f)) == f for files already in canonical form.
    """
    text = json.dumps(_tree_to_obj(tree), separators=(",", ":"), ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _tree_from_obj(obj: dict, source: str | None = None) -> GeometricTree:
    """Build a tree from a decoded JSON object; every error names ``source``
    (or "tree" until the id is known), then the tree id and the node, by its
    JSON id, once they are known."""
    if not isinstance(obj, dict):
        raise ValueError(f"{source or 'tree'}: expected a JSON object")
    for key in ("id", "n", "d", "nodes"):
        if key not in obj:
            raise ValueError(f"{source or 'tree'}: missing field '{key}'")
    where = f"tree '{obj['id']}'" if source is None else f"{source}: tree '{obj['id']}'"
    for key in ("n", "d"):
        if type(obj[key]) is not int:  # exact type: a JSON boolean is no integer
            raise ValueError(f"{where}: '{key}' must be an integer, got {obj[key]!r}")
    raw_nodes, d = obj["nodes"], obj["d"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValueError(f"{where}: 'nodes' must be a non-empty array")
    try:
        ids = [entry["id"] for entry in raw_nodes]
        parent_ids = [entry["parent"] for entry in raw_nodes]
        xs = [entry["x"] for entry in raw_nodes]
    except (KeyError, TypeError):
        for pos, entry in enumerate(raw_nodes):
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: node at position {pos} is not an object") from None
            for key in ("id", "parent", "x"):
                if key not in entry:
                    raise ValueError(f"{where}: node at position {pos} missing field '{key}'") from None
        raise
    for key, values, kinds in (("id", ids, (int,)), ("parent", parent_ids, (int, type(None)))):
        bad = next((pos for pos, value in enumerate(values) if type(value) not in kinds), None)
        if bad is not None:
            raise ValueError(f"{where}: node at position {bad} has '{key}' {values[bad]!r}, not an integer")
    pos_of_id = {node_id: pos for pos, node_id in enumerate(ids)}
    if len(pos_of_id) < len(ids):
        duplicate = next(node_id for node_id, count in Counter(ids).items() if count > 1)
        raise ValueError(f"{where}: duplicate node id {duplicate}")
    roots = [node_id for node_id, p in zip(ids, parent_ids) if p is None]
    if len(roots) > 1:
        raise ValueError(f"{where}: multiple roots: nodes {roots}")
    parents = [-1 if p is None else pos_of_id.get(p, -2) for p in parent_ids]  # -2: no such node
    if -2 in parents:
        pos = parents.index(-2)
        raise ValueError(f"{where}: node {ids[pos]} references unknown parent {parent_ids[pos]}")
    has_a = ["a" in entry for entry in raw_nodes]
    if d > 0 and not all(has_a):
        raise ValueError(f"{where}: node {ids[has_a.index(False)]} missing field 'a' (d = {d})")
    if d == 0 and any(has_a):
        raise ValueError(f"{where}: node {ids[has_a.index(True)]} carries 'a' but d = 0")
    attrs = [entry["a"] for entry in raw_nodes] if d > 0 else None
    try:
        return GeometricTree(str(obj["id"]), parents, xs, attrs, n=obj["n"], d=d)
    except _NodeError as exc:
        raise ValueError(f"{where}: {exc.say(ids[exc.pos])}") from None
    except ValueError as exc:  # already names the tree
        if source is None:
            raise
        raise ValueError(f"{source}: {exc}") from None


def parse_tree(data: bytes | str | dict) -> GeometricTree:
    """Parse one tree from JSON bytes/text or an already-decoded object."""
    if isinstance(data, (bytes, str)):
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid tree JSON: {exc}") from exc
    else:
        obj = data
    return _tree_from_obj(obj)


def dataset_files(path: str | Path) -> list[Path]:
    """The files :func:`load_dataset` reads for ``path``: the path itself,
    or for a directory its ``trees.json`` when present (the layout
    ``treekern gen`` writes), else every ``.json`` file in it."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    if (path / "trees.json").is_file():
        return [path / "trees.json"]
    files = sorted(p for p in path.iterdir() if p.suffix == ".json")
    if not files:
        raise ValueError(f"{path}: directory contains no .json files")
    return files


_DECODER = json.JSONDecoder()
_SKIP = json.decoder.WHITESPACE.match


def _load_file(p: Path) -> list[GeometricTree]:
    # Decode as json.loads(bytes) does, then walk a top-level array one
    # element at a time: each dict becomes a tree as soon as it is decoded,
    # so besides the text only the newest element's objects are live.
    # Every syntax error is json.loads's, at its position in the whole file.
    raw = p.read_bytes()
    text = raw.decode(json.detect_encoding(raw), "surrogatepass")
    del raw
    trees: list[GeometricTree] = []
    try:
        idx = _SKIP(text).end()
        if not text.startswith("[", idx):
            obj = _DECODER.decode(text)
            if isinstance(obj, dict):
                return [_tree_from_obj(obj, source=str(p))]
        else:
            idx = _SKIP(text, idx + 1).end()
            if not text.startswith("]", idx):
                while True:  # a trailing comma ends in raw_decode's "Expecting value" at the "]"
                    obj, idx = _DECODER.raw_decode(text, idx)
                    trees.append(_tree_from_obj(obj, source=f"{p}[{len(trees)}]"))
                    idx = _SKIP(text, idx).end()
                    if text.startswith("]", idx):
                        break
                    if not text.startswith(",", idx):
                        raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
                    idx = _SKIP(text, idx + 1).end()
            end = _SKIP(text, idx + 1).end()
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: invalid JSON: {exc}") from exc
    if not trees:
        raise ValueError(f"{p}: expected a non-empty JSON array of trees")
    return trees


def load_dataset(path: str | Path) -> list[GeometricTree]:
    """Load trees from the files :func:`dataset_files` names for ``path``;
    each holds one tree object or a non-empty JSON array of them.

    A file is read in the encodings ``json.loads`` accepts for bytes (UTF-8,
    with or without a BOM, UTF-16 and UTF-32) and an array is decoded one
    tree at a time, so the peak is about twice the file plus one tree's
    objects. Errors are those of ``json.loads``, but a tree error early in a
    file is reported before a syntax error later in it.
    """
    from .gram import check_distinct_ids  # here: the tree model alone loads no Gram code

    trees = [tree for p in dataset_files(path) for tree in _load_file(p)]
    check_distinct_ids([tree.id for tree in trees], Path(path))
    return trees


def save_dataset(trees: Iterable[GeometricTree], path: str | Path) -> None:
    """Write trees as a JSON array, one canonical tree per line, each tree
    written as it is serialized."""
    save_serialized(map(serialize_tree, trees), path)


def save_serialized(blobs: Iterable[bytes], path: str | Path) -> None:
    """Write trees already serialized by :func:`serialize_tree` as the JSON
    array :func:`save_dataset` writes, each as the iterable yields it."""
    blobs = iter(blobs)
    first = next(blobs, None)
    if first is None:
        raise ValueError("refusing to write an empty dataset")
    with Path(path).open("wb") as out:
        out.write(b"[\n" + first[:-1])
        for blob in blobs:
            out.write(b",\n" + blob[:-1])
        out.write(b"\n]\n")
