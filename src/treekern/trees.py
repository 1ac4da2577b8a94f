"""Geometric tree data model, structural queries, and the tree JSON format.

A geometric tree is a rooted tree whose nodes carry a position in R^n and,
optionally, a measurement vector in R^d. Trees are immutable after
construction and keep their nodes in a canonical breadth-first order, so the
same tree always serializes to the same bytes no matter how it was built.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Node",
    "NodePath",
    "GeometricTree",
    "left_aligned_add",
    "canonical_pair",
    "parse_tree",
    "serialize_tree",
    "load_dataset",
    "save_dataset",
]


@dataclass(eq=False)
class Node:
    """One tree node: parent index (None for the root), position ``x`` in
    R^n and optional measurement vector ``a`` in R^d."""

    parent: int | None
    x: np.ndarray
    a: np.ndarray | None = None


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


def left_aligned_add(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add two integer count vectors aligned at index 0.

    The shorter vector is treated as zero-extended, so the result has the
    length of the longer input: [1,2,3] + [4,5] -> [5,7,3].
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if len(u) < len(v):
        u, v = v, u
    out = u.copy()
    out[: len(v)] += v
    return out


class GeometricTree:
    """Rooted tree embedded in R^n with optional per-node measurements in R^d.

    Nodes are renumbered into a canonical breadth-first order (level, then
    parent index, then input order) at construction time, which makes
    serialization deterministic and keeps each level a contiguous index
    range. Instances are immutable; every structural query is pure and
    cached on first use. Positions and attributes must be finite.

    Levels are 1-based: the root is the only node at level 1.
    """

    def __init__(
        self,
        tree_id: str,
        nodes: Sequence[Node],
        n: int | None = None,
        d: int | None = None,
    ):
        if not nodes:
            raise ValueError(f"tree '{tree_id}': has no nodes")
        self.id = str(tree_id)

        raw_parents = [node.parent for node in nodes]
        roots = [i for i, p in enumerate(raw_parents) if p is None]
        if len(roots) == 0:
            raise ValueError(f"tree '{self.id}': no root node (every node has a parent)")
        if len(roots) > 1:
            raise ValueError(f"tree '{self.id}': multiple roots at positions {roots}")
        for i, p in enumerate(raw_parents):
            if p is not None and not (0 <= p < len(nodes)):
                raise ValueError(f"tree '{self.id}': node {i} has invalid parent index {p}")

        raw_levels = self._compute_levels(raw_parents)

        # Geometric and attribute dimensions.
        first_x = np.asarray(nodes[0].x, dtype=float)
        self.n = int(n) if n is not None else int(first_x.size)
        if self.n < 1:
            raise ValueError(f"tree '{self.id}': geometric dimension must be positive")
        if d is None:
            with_a = [node.a is not None for node in nodes]
            if any(with_a) and not all(with_a):
                raise ValueError(f"tree '{self.id}': attributes present on some nodes only")
            self.d = int(np.asarray(nodes[0].a).size) if with_a[0] else 0
        else:
            self.d = int(d)
        if self.d < 0:
            raise ValueError(f"tree '{self.id}': attribute dimension must be >= 0")

        order = self._canonical_order(raw_parents, raw_levels)
        canon_of_raw = {raw: canon for canon, raw in enumerate(order)}

        xs = np.empty((len(nodes), self.n), dtype=float)
        attrs = np.empty((len(nodes), self.d), dtype=float) if self.d > 0 else None
        parents = np.full(len(nodes), -1, dtype=np.intp)
        canon_nodes: list[Node] = []
        for canon, raw in enumerate(order):
            node = nodes[raw]
            x = np.asarray(node.x, dtype=float).ravel()
            if x.size != self.n:
                raise ValueError(
                    f"tree '{self.id}': node {raw} position has dimension {x.size}, expected {self.n}"
                )
            xs[canon] = x
            if self.d > 0:
                if node.a is None:
                    raise ValueError(f"tree '{self.id}': node {raw} is missing its attribute vector")
                a = np.asarray(node.a, dtype=float).ravel()
                if a.size != self.d:
                    raise ValueError(
                        f"tree '{self.id}': node {raw} attributes have dimension {a.size}, expected {self.d}"
                    )
                attrs[canon] = a
            elif node.a is not None:
                raise ValueError(f"tree '{self.id}': node {raw} carries attributes but d = 0")
            parent = node.parent
            parents[canon] = -1 if parent is None else canon_of_raw[parent]
            canon_nodes.append(
                Node(
                    parent=None if parent is None else canon_of_raw[parent],
                    x=xs[canon],
                    a=None if attrs is None else attrs[canon],
                )
            )

        for name, values in (("position", xs), ("attribute vector", attrs)):
            if values is not None and not np.isfinite(values).all():
                raw = order[int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])]
                raise ValueError(f"tree '{self.id}': node {raw} has a non-finite {name}")

        self.nodes: tuple[Node, ...] = tuple(canon_nodes)
        self.positions = xs
        self.positions.setflags(write=False)
        self.attributes = attrs
        if attrs is not None:
            self.attributes.setflags(write=False)
        self.parents = parents
        self.parents.setflags(write=False)
        self.node_levels = np.array([raw_levels[raw] for raw in order], dtype=np.intp)
        self.node_levels.setflags(write=False)
        self._cache: dict = {}

    # -- construction helpers -------------------------------------------------

    def _compute_levels(self, parents: list[int | None]) -> list[int]:
        """Level of each node (root = 1), with cycle detection.

        Each walk climbs from a node until it meets the root or a node whose
        level is known, marking the nodes it passes; meeting a marked node
        again closes a cycle. Every node is walked over once, so the cost is
        linear in the node count.
        """
        on_walk = -1
        levels = [0] * len(parents)  # 0 = unknown
        for start in range(len(parents)):
            walk = []
            i = start
            while i is not None and levels[i] == 0:
                levels[i] = on_walk
                walk.append(i)
                i = parents[i]
            if i is not None and levels[i] == on_walk:
                raise ValueError(f"tree '{self.id}': cycle detected involving node {i}")
            base = 0 if i is None else levels[i]
            for off, j in enumerate(reversed(walk)):
                levels[j] = base + off + 1
        return levels

    def _canonical_order(self, parents: list[int | None], levels: list[int]) -> list[int]:
        by_level: dict[int, list[int]] = defaultdict(list)
        for i, level in enumerate(levels):
            by_level[level].append(i)
        order: list[int] = list(by_level[1])
        canon_of_raw = {order[0]: 0}
        for level in range(2, max(levels) + 1):
            members = sorted(by_level[level], key=lambda r: (canon_of_raw[parents[r]], r))
            for raw in members:
                canon_of_raw[raw] = len(order)
                order.append(raw)
        return order

    # -- basic structure -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def root_index(self) -> int:
        return 0

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
        def build():
            kids: list[list[int]] = [[] for _ in range(self.size)]
            for i, p in enumerate(self.parents):
                if p >= 0:
                    kids[p].append(i)
            return tuple(tuple(k) for k in kids)

        return self._memo("children", build)

    @property
    def degrees(self) -> np.ndarray:
        """Undirected node degrees (children count plus one if not the root)."""

        def build():
            deg = np.array([len(k) for k in self.children], dtype=np.intp)
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
    def descendant_vectors(self) -> tuple[np.ndarray, ...]:
        """Per-node descendant count vectors.

        Entry k of the vector for node v counts the descendants of v (v
        included) that sit k levels below v, so entry 0 is always 1 and the
        vector's length is the height of the subtree rooted at v. Vectors are
        built bottom-up by left-aligned addition of the children's vectors.
        """

        def build():
            out: list[np.ndarray | None] = [None] * self.size
            for i in range(self.size - 1, -1, -1):
                kids = self.children[i]
                if not kids:
                    vec = np.ones(1, dtype=np.int64)
                else:
                    acc = np.zeros(1 + max(len(out[k]) for k in kids), dtype=np.int64)
                    acc[0] = 1
                    for k in kids:
                        acc[1 : 1 + len(out[k])] += out[k]
                    vec = acc
                vec.setflags(write=False)
                out[i] = vec
            return tuple(out)

        return self._memo("descendant_vectors", build)

    @property
    def descendant_table(self) -> np.ndarray:
        """Descendant vectors of all nodes as float rows, zero-padded to the
        height; shape (size, height)."""

        def build():
            table = np.zeros((self.size, self.height))
            for v, vec in enumerate(self.descendant_vectors):
                table[v, : len(vec)] = vec
            table.setflags(write=False)
            return table

        return self._memo("descendant_table", build)

    def descendant_matrix(self, level: int) -> np.ndarray:
        """Descendant vectors of the nodes at a level, stacked as float rows
        and zero-padded to the longest vector on that level."""

        def build():
            vectors = self.descendant_vectors
            return tuple(
                self.descendant_table[idx[0] : idx[-1] + 1, : max(len(vectors[i]) for i in idx)]
                for idx in self.levels
            )

        if not (1 <= level <= self.height):
            raise ValueError(f"tree '{self.id}': no level {level}")
        return self._memo("descendant_matrices", build)[level - 1]

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
    """Order a tree pair deterministically by (id, content fingerprint).

    Every pairwise kernel routes its operands through this, so swapping the
    arguments cannot change the floating-point evaluation order and
    K(T1, T2) == K(T2, T1) holds exactly.
    """
    if t2 is t1:
        return t1, t2
    if t2.sort_key < t1.sort_key:
        return t2, t1
    return t1, t2


# -- JSON format ------------------------------------------------------------------


def _tree_to_obj(tree: GeometricTree) -> dict:
    nodes = []
    for i, node in enumerate(tree.nodes):
        entry: dict = {
            "id": i,
            "parent": node.parent,
            "x": [float(v) for v in node.x],
        }
        if tree.d > 0:
            entry["a"] = [float(v) for v in node.a]
        nodes.append(entry)
    return {"id": tree.id, "n": tree.n, "d": tree.d, "nodes": nodes}


def serialize_tree(tree: GeometricTree) -> bytes:
    """Canonical JSON bytes for one tree (newline-terminated).

    Nodes appear in canonical order and are renumbered 0..|V|-1, so
    serialize(parse(f)) == f for files already in canonical form.
    """
    text = json.dumps(_tree_to_obj(tree), separators=(",", ":"), ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _tree_from_obj(obj: dict, source: str = "tree") -> GeometricTree:
    if not isinstance(obj, dict):
        raise ValueError(f"{source}: expected a JSON object")
    for key in ("id", "n", "d", "nodes"):
        if key not in obj:
            raise ValueError(f"{source}: missing field '{key}'")
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValueError(f"{source}: 'nodes' must be a non-empty array")
    d = int(obj["d"])
    pos_of_id: dict[int, int] = {}
    for pos, entry in enumerate(raw_nodes):
        for key in ("id", "parent", "x"):
            if key not in entry:
                raise ValueError(f"{source}: node at position {pos} missing field '{key}'")
        node_id = int(entry["id"])
        if node_id in pos_of_id:
            raise ValueError(f"{source}: duplicate node id {node_id}")
        pos_of_id[node_id] = pos
    nodes = []
    for pos, entry in enumerate(raw_nodes):
        parent_id = entry["parent"]
        if parent_id is None:
            parent = None
        else:
            if int(parent_id) not in pos_of_id:
                raise ValueError(f"{source}: node {entry['id']} references unknown parent {parent_id}")
            parent = pos_of_id[int(parent_id)]
        if d > 0 and "a" not in entry:
            raise ValueError(f"{source}: node {entry['id']} missing field 'a' (d = {d})")
        if d == 0 and "a" in entry:
            raise ValueError(f"{source}: node {entry['id']} carries 'a' but d = 0")
        nodes.append(
            Node(
                parent=parent,
                x=np.asarray(entry["x"], dtype=float),
                a=np.asarray(entry["a"], dtype=float) if d > 0 else None,
            )
        )
    return GeometricTree(str(obj["id"]), nodes, n=int(obj["n"]), d=d)


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


def load_dataset(path: str | Path) -> list[GeometricTree]:
    """Load trees from a JSON array file or a directory of one-tree files."""
    path = Path(path)
    trees: list[GeometricTree] = []
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
        if not files:
            raise ValueError(f"{path}: directory contains no .json files")
        for p in files:
            trees.append(parse_tree(p.read_bytes()))
    else:
        try:
            data = json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list) or not data:
            raise ValueError(f"{path}: expected a non-empty JSON array of trees")
        for k, obj in enumerate(data):
            trees.append(_tree_from_obj(obj, source=f"{path}[{k}]"))
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
