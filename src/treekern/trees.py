"""Geometric tree data model, structural queries, and the tree JSON format.

A geometric tree is a rooted tree whose nodes carry a position in R^n and,
optionally, a measurement vector in R^d. A tree is built from a parent
array with one position row (and one attribute row) per node and is held
as read-only arrays in a canonical breadth-first order, so the same tree
always serializes to the same bytes whatever order its nodes came in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "NodePath",
    "GeometricTree",
    "canonical_pair",
    "parse_tree",
    "serialize_tree",
    "load_dataset",
    "dataset_files",
    "save_dataset",
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
        if self.tree.attributes is None:
            raise ValueError("tree has no attributes (d = 0)")
        return self.tree.attributes[list(self.nodes)]


class _NodeError(ValueError):
    """A construction error about the node at input position ``pos``, told
    by ``say(name)`` with the node's name; the constructor names it by
    ``pos``, the JSON reader by its JSON id."""

    def __init__(self, tree_id: str, pos: int, say: Callable[[object], str]):
        super().__init__(f"tree '{tree_id}': {say(pos)}")
        self.pos, self.say = pos, say


class GeometricTree:
    """Rooted tree embedded in R^n with optional per-node measurements in R^d.

    Built from input-order ``parents`` (-1 marks the root), ``positions``
    (|V|, n) and ``attributes`` (|V|, d), or None when d = 0, as arrays or
    lists of rows; ``n`` and ``d`` default to the width of the first row.
    The representation is four read-only arrays in a canonical
    breadth-first order (level, then parent index, then input order):
    ``parents`` (-1 at the root), ``node_levels``, ``positions`` and
    ``attributes``. The order makes serialization deterministic and keeps
    each level a contiguous index range. Every structural query is pure and
    cached on first use. Positions and attributes must be finite.

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
        self.parents = np.concatenate(([-1], canon_of_raw[raw[order_arr[1:]]]))
        self.positions = xs[order_arr]
        self.attributes = None if attrs is None else attrs[order_arr]
        self.node_levels = np.searchsorted(bounds[1:-1], np.arange(size), side="right") + 1
        for array in (self.parents, self.positions, self.attributes, self.node_levels):
            if array is not None:
                array.setflags(write=False)
        self._cache: dict = {}

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

    def _memo(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        def build():  # in canonical order the children of a node are one index range
            bounds = np.searchsorted(self.parents, np.arange(self.size + 1)).tolist()
            return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))

        return self._memo("children", build)

    @property
    def degrees(self) -> np.ndarray:
        """Undirected node degrees (children count plus one if not the root)."""

        def build():
            deg = np.bincount(self.parents[1:], minlength=self.size)
            deg[1:] += 1
            deg.setflags(write=False)
            return deg

        return self._memo("degrees", build)

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

        def build():
            return tuple(self.nodes_at_level(l) for l in range(1, self.height + 1))

        return self._memo("levels", build)

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

        def build():
            paths = []
            for i in range(self.size):
                seq = [i]
                while self.parents[seq[-1]] >= 0:
                    seq.append(int(self.parents[seq[-1]]))
                paths.append(NodePath(self, tuple(seq)))
            return tuple(paths)

        if not (0 <= v < self.size):
            raise ValueError(f"tree '{self.id}': node index {v} out of range")
        return self._memo("rootpaths", build)[v]

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

        def build():
            table = np.zeros((self.size, self.height))
            lo = np.arange(self.size)
            hi = lo + 1
            for k in range(self.height):
                table[:, k] = hi - lo
                lo, hi = np.searchsorted(self.parents, lo), np.searchsorted(self.parents, hi)
            table.setflags(write=False)
            return table

        return self._memo("descendant_table", build)

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

        def build():
            width = 2 * self.height
            # shifted[:, k + 1] = D[:, k], so column 0 reads D[:, -1] = 0.
            shifted = np.zeros((self.size, width + 1))
            shifted[:, 1 : self.height + 1] = self.descendant_table
            table = shifted[:, 1:].copy()
            for idx in self.levels[1:]:
                table[idx, 1:] += table[self.parents[idx], :-1] - shifted[idx, : width - 1]
            table.setflags(write=False)
            return table

        return self._memo("sphere_table", build)

    # -- identity ----------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialization."""

        def build():
            return hashlib.sha256(serialize_tree(self)).hexdigest()

        return self._memo("fingerprint", build)

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.id, self.fingerprint)

    def __repr__(self) -> str:
        return f"GeometricTree(id={self.id!r}, size={self.size}, n={self.n}, d={self.d})"


def canonical_pair(t1: GeometricTree, t2: GeometricTree) -> tuple[GeometricTree, GeometricTree]:
    """Order a tree pair deterministically by id, then (for equal ids only)
    by content fingerprint. Every pairwise kernel routes its operands through
    this, so swapping the arguments cannot change the floating-point
    evaluation order and K(T1, T2) == K(T2, T1) holds exactly.
    """
    if t1.id != t2.id:
        return (t2, t1) if t2.id < t1.id else (t1, t2)
    if t2 is not t1 and t2.fingerprint < t1.fingerprint:
        return t2, t1
    return t1, t2


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


def load_dataset(path: str | Path) -> list[GeometricTree]:
    """Load trees from the files :func:`dataset_files` names for ``path``;
    each holds one tree object or a non-empty JSON array of them."""
    path = Path(path)
    trees: list[GeometricTree] = []
    for p in dataset_files(path):
        try:
            data = json.loads(p.read_bytes())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p}: invalid JSON: {exc}") from exc
        if isinstance(data, dict):
            trees.append(_tree_from_obj(data, source=str(p)))
            continue
        if not isinstance(data, list) or not data:
            raise ValueError(f"{p}: expected a non-empty JSON array of trees")
        trees.extend(_tree_from_obj(obj, source=f"{p}[{k}]") for k, obj in enumerate(data))
    seen: set[str] = set()
    for tree in trees:
        if tree.id in seen:
            raise ValueError(f"{path}: duplicate tree id '{tree.id}'")
        seen.add(tree.id)
    return trees


def save_dataset(trees: Iterable[GeometricTree], path: str | Path) -> None:
    """Write trees as a JSON array, one canonical tree per line."""
    path = Path(path)
    lines = [serialize_tree(t).decode("utf-8").rstrip("\n") for t in trees]
    if not lines:
        raise ValueError("refusing to write an empty dataset")
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
