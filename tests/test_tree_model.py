"""Tree construction, canonical ordering, paths, descendant vectors, and the
JSON round trip."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekern import (
    GeometricTree,
    generate,
    canonical_order,
    load_dataset,
    parse_tree,
    save_dataset,
    serialize_tree,
)

from treekern.trees import _tree_from_obj, dataset_files

from conftest import chain_tree, distance_histogram, random_tree, shaped_trees, star_tree


def two_level_tree():
    # root with two children; the first child has one child of its own
    return GeometricTree("demo", [-1, 0, 0, 1], [[0.0], [1.0], [2.0], [3.0]], n=1, d=0)


def test_basic_structure():
    t = two_level_tree()
    assert t.size == 4
    assert t.height == 3
    assert t.node_levels.tolist() == [1, 2, 2, 3]
    assert t.parents.tolist() == [-1, 0, 0, 1]
    assert t.children == ((1, 2), (3,), (), ())
    assert t.degrees.tolist() == [2, 2, 1, 1]
    assert t.nodes_at_level(2).tolist() == [1, 2]
    assert t.nodes_at_level(9).tolist() == []
    assert [idx.tolist() for idx in t.levels] == [[0], [1, 2], [3]]


def test_canonical_order_preserves_sibling_order():
    # node numbering may be scrambled freely; as long as siblings keep their
    # relative input order, the canonical serialization is identical
    def build(order):
        entries = {
            "root": (None, 0.0),
            "c1": ("root", 1.0),
            "c2": ("root", 2.0),
            "g": ("c1", 3.0),
        }
        names = list(order)
        pos = {name: k for k, name in enumerate(names)}
        parents = [-1 if entries[name][0] is None else pos[entries[name][0]] for name in names]
        return GeometricTree("demo", parents, [[entries[name][1]] for name in names], n=1, d=0)

    trees = [
        build(["root", "c1", "c2", "g"]),
        build(["c1", "c2", "g", "root"]),
        build(["g", "c1", "root", "c2"]),
    ]
    blobs = {serialize_tree(t) for t in trees}
    assert len(blobs) == 1
    assert len({t.fingerprint for t in trees}) == 1

    # a sibling swap is a different serialization but the same structure,
    # so structure-only kernel inputs are unaffected
    swapped = build(["root", "c2", "c1", "g"])
    assert serialize_tree(swapped) != serialize_tree(trees[0])
    assert swapped.node_levels.tolist() == trees[0].node_levels.tolist()
    assert sorted(map(len, swapped.children)) == sorted(map(len, trees[0].children))


def test_construction_errors():
    x = np.array([0.0])
    with pytest.raises(ValueError, match="no nodes"):
        GeometricTree("t", [], [])
    with pytest.raises(ValueError, match="no root"):
        GeometricTree("t", [0], [x])
    with pytest.raises(ValueError, match="multiple roots"):
        GeometricTree("t", [-1, -1], [x, x])
    with pytest.raises(ValueError, match="invalid parent"):
        GeometricTree("t", [-1, 5], [x, x])
    with pytest.raises(ValueError, match="cycle"):
        GeometricTree("t", [-1, 2, 1], [x, x, x])
    # the error names a node on the cycle (2 or 3), not node 1 hanging off it
    with pytest.raises(ValueError, match=r"cycle detected involving node [23]$"):
        GeometricTree("t", [-1, 2, 3, 2], [x, x, x, x])
    with pytest.raises(ValueError, match="node 1 position has dimension 2, expected 1"):
        GeometricTree("t", [-1, 0], [x, np.zeros(2)], n=1)
    with pytest.raises(ValueError, match="node 1 attributes have an entry that is not a number: None"):
        GeometricTree("t", [-1, 0], [x, x], [np.array([1.0]), None])
    with pytest.raises(ValueError, match=r"attributes must be given exactly when d > 0 \(d = 0\)"):
        GeometricTree("t", [-1], [x], [[1.0]], d=0)
    with pytest.raises(ValueError, match=r"attributes must be given exactly when d > 0 \(d = 2\)"):
        GeometricTree("t", [-1], [x], d=2)
    with pytest.raises(ValueError, match="1 position rows for 2 nodes"):
        GeometricTree("t", [-1, 0], [x])
    with pytest.raises(ValueError, match="3 attribute rows for 2 nodes"):
        GeometricTree("t", [-1, 0], [x, x], [x, x, x])


def test_construction_rejects_non_finite_values():
    ok = np.array([0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"tree 'lungs': node 2 has a non-finite position"):
            GeometricTree("lungs", [-1, 0, 0], [ok, ok, np.array([1.0, bad])])
        with pytest.raises(ValueError, match=r"tree 'lungs': node 1 has a non-finite attribute"):
            GeometricTree("lungs", [-1, 0], [ok, ok], [np.ones(1), np.array([bad])])
    # the JSON reader admits NaN and Infinity literals; the tree rejects them
    text = '{"id": "j", "n": 1, "d": 1, "nodes": [{"id": 0, "parent": null, "x": [0.0], "a": [NaN]}]}'
    with pytest.raises(ValueError, match=r"tree 'j': node 0 has a non-finite attribute"):
        parse_tree(text)


def test_json_errors_name_nodes_by_their_json_ids():
    def parse(nodes, d=0):
        return parse_tree({"id": "t", "n": 1, "d": d, "nodes": nodes})

    root = {"id": 10, "parent": None, "x": [0.0]}
    with pytest.raises(ValueError, match=r"^tree 't': cycle detected involving node 1[12]$"):
        parse([root, {"id": 11, "parent": 12, "x": [1.0]}, {"id": 12, "parent": 11, "x": [2.0]}])
    with pytest.raises(ValueError, match=r"^tree 't': node 11 has a non-finite position$"):
        parse([root, {"id": 11, "parent": 10, "x": [math.nan]}, {"id": 12, "parent": 11, "x": [2.0]}])
    with pytest.raises(ValueError, match=r"^tree 't': node 12 has a non-finite attribute vector$"):
        parse([{**root, "a": [0.0]}, {"id": 12, "parent": 10, "x": [1.0], "a": [math.inf]}], d=1)
    with pytest.raises(ValueError, match=r"^tree 't': node 12 position has dimension 2, expected 1$"):
        parse([root, {"id": 12, "parent": 10, "x": [1.0, 2.0]}, {"id": 11, "parent": 10, "x": [1.0]}])
    with pytest.raises(ValueError, match=r"^tree 't': multiple roots: nodes \[10, 12\]$"):
        parse([root, {"id": 11, "parent": 10, "x": [1.0]}, {"id": 12, "parent": None, "x": [2.0]}])
    # the constructor itself names nodes by input position
    with pytest.raises(ValueError, match=r"^tree 't': cycle detected involving node [12]$"):
        GeometricTree("t", [-1, 2, 1], [[0.0], [1.0], [2.0]])


def test_levels_of_long_reversed_chain():
    # input order lists the leaf first and the root last, so every level
    # walk starts at the deep end of the chain
    size = 50_000
    parents = np.append(np.arange(1, size), -1)
    t = GeometricTree("deep", parents, np.arange(size, dtype=float)[:, None], n=1, d=0)
    assert t.height == size
    assert np.array_equal(t.node_levels, np.arange(1, size + 1))
    assert np.array_equal(t.parents[1:], np.arange(size - 1))
    assert t.positions[0, 0] == size - 1 and t.positions[-1, 0] == 0.0


def canonical_oracle(parents, xs, attrs):
    """Canonical arrays by brute force: each node's level from a walk to the
    root, then the nodes of each level sorted by (canonical parent, input
    position)."""
    size = len(parents)
    levels = []
    for i in range(size):
        level, v = 1, i
        while parents[v] >= 0:
            level, v = level + 1, parents[v]
        levels.append(level)
    order, canon = [], {}
    for level in range(1, max(levels) + 1):
        members = [i for i in range(size) if levels[i] == level]
        for i in sorted(members, key=lambda i: (-1 if parents[i] < 0 else canon[parents[i]], i)):
            canon[i] = len(order)
            order.append(i)
    canon_parents = [-1 if parents[i] < 0 else canon[parents[i]] for i in order]
    return canon_parents, [levels[i] for i in order], xs[order], None if attrs is None else attrs[order]


def shuffled_input(tree, perm):
    """The tree's parents, positions and attributes listed in the input order
    ``perm`` (input position k holds canonical node perm[k]), with parents
    renumbered to match."""
    position = {canon: k for k, canon in enumerate(perm)}
    parents = [-1 if tree.parents[c] < 0 else position[int(tree.parents[c])] for c in perm]
    return parents, tree.positions[perm], None if tree.attributes is None else tree.attributes[perm]


def assert_same_arrays(t1, t2):
    for name in ("parents", "node_levels", "positions", "attributes"):
        a, b = getattr(t1, name), getattr(t2, name)
        assert (a is None and b is None) or (np.array_equal(a, b) and a.dtype == b.dtype), name


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 2]).flatmap(lambda d: shaped_trees("t", d)), st.randoms(use_true_random=False))
def test_construction_matches_brute_force_canonical_order(tree, random):
    perm = list(range(tree.size))
    random.shuffle(perm)
    parents, xs, attrs = shuffled_input(tree, perm)
    built = GeometricTree("s", parents, xs, attrs, n=tree.n, d=tree.d)
    canon_parents, levels, canon_xs, canon_attrs = canonical_oracle(parents, xs, attrs)
    assert built.parents.tolist() == canon_parents
    assert built.node_levels.tolist() == levels
    assert np.array_equal(built.positions, canon_xs)
    assert (built.attributes is None and canon_attrs is None) or np.array_equal(built.attributes, canon_attrs)
    assert_same_arrays(parse_tree(serialize_tree(built)), built)
    # the JSON object of the same input, with node ids that are not positions
    obj = {
        "id": "s",
        "n": tree.n,
        "d": tree.d,
        "nodes": [
            {"id": 7 * k + 3, "parent": None if p < 0 else 7 * p + 3, "x": xs[k].tolist()}
            | ({"a": attrs[k].tolist()} if tree.d else {})
            for k, p in enumerate(parents)
        ],
    }
    assert_same_arrays(parse_tree(obj), built)
    # the stored arrays are read-only, so no caller can break the canonical order
    assert not any(array.flags.writeable for array in (built.parents, built.positions, built.node_levels))


def test_node_path_through_common_ancestor():
    t = two_level_tree()
    # leaf 3 sits under child 1; leaf 2 is the other child of the root
    p = t.node_path(3, 2)
    assert p.nodes == (3, 1, 0, 2)
    assert t.node_path(2, 3).nodes == (2, 0, 1, 3)
    assert t.node_path(1, 1).nodes == (1,)
    assert p.reverse().nodes == (2, 0, 1, 3)
    assert p.positions().shape == (4, 1)
    with pytest.raises(ValueError, match="out of range"):
        t.node_path(0, 99)
    with pytest.raises(ValueError, match="reading a node path's attributes needs d > 0, but tree 'demo' has d = 0"):
        p.attributes()


def test_rootpath():
    t = two_level_tree()
    assert t.rootpath(3).nodes == (3, 1, 0)
    assert t.rootpath(0).nodes == (0,)
    with pytest.raises(ValueError, match="out of range"):
        t.rootpath(-1)


def test_rootpath_is_the_node_path_to_the_root(rng):
    trees = [chain_tree(1), chain_tree(7), star_tree(5)] + [random_tree(rng, 30) for _ in range(20)]
    for t in trees:
        for v in range(t.size):
            assert t.rootpath(v).nodes == t.node_path(v, 0).nodes


def test_structure_is_computed_once_and_read_only(rng):
    t = random_tree(rng, 30)
    # only the fingerprint is kept; each table is computed afresh when read
    assert t.fingerprint is t.fingerprint
    for array in (t.degrees, t.descendant_table, t.sphere_table, *t.levels):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        t.rootpath(0).nodes = ()


def test_node_path_matches_bfs_distance(rng):
    # path length agrees with an independent breadth-first search on the
    # undirected graph, for random trees
    for _ in range(25):
        t = random_tree(rng, 30)
        adj = [list(k) for k in t.children]
        for i, p in enumerate(t.parents):
            if p >= 0:
                adj[i].append(int(p))
        src = int(rng.integers(0, t.size))
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for v in range(t.size):
            assert len(t.node_path(src, v)) == dist[v] + 1


def test_descendant_vectors():
    t = two_level_tree()
    # row v counts v's descendants by depth below v, zero-padded to the height
    assert t.descendant_table.tolist() == [[1, 2, 1], [1, 1, 0], [1, 0, 0], [1, 0, 0]]


def test_descendant_vectors_sum_to_subtree_sizes(rng):
    for _ in range(20):
        t = random_tree(rng, 40)
        table = t.descendant_table
        sizes = np.zeros(t.size, dtype=int)
        for i in range(t.size - 1, -1, -1):
            sizes[i] = 1 + sum(sizes[k] for k in t.children[i])
        assert np.array_equal(table.sum(axis=1), sizes)
        assert (table[:, 0] == 1).all()
        assert np.array_equal(table, np.round(table))


@settings(max_examples=100, deadline=None)
@given(shaped_trees("t", 0))
def test_descendant_table_counts_descendants_by_depth(tree):
    expected = np.zeros((tree.size, tree.height))
    for u in range(tree.size):
        v = u
        while v >= 0:  # u and each of its ancestors
            expected[v, tree.node_levels[u] - tree.node_levels[v]] += 1
            v = tree.parents[v]
    assert np.array_equal(tree.descendant_table, expected)


def test_sphere_table_matches_networkx_distances(rng):
    trees = [random_tree(rng, 30, tree_id=f"sph{k}") for k in range(10)]
    trees += [chain_tree(1), chain_tree(12), star_tree(6)]
    for tree in trees:
        table = tree.sphere_table
        assert table.shape == (tree.size, 2 * tree.height)
        assert (table.sum(axis=1) == tree.size).all()
        expected = np.zeros(2 * tree.height)
        for dist, count in distance_histogram(tree).items():
            expected[dist] = count
        assert np.array_equal(table.sum(axis=0), expected)


def test_canonical_pair_is_order_free(monkeypatch):
    t1 = chain_tree(3, tree_id="a")
    t2 = chain_tree(4, tree_id="b")
    assert canonical_order((t1, t2)) == [0, 1]
    assert canonical_order((t2, t1)) == [1, 0]
    same = chain_tree(3, tree_id="a")
    # identical ids fall back to the content fingerprint; identical content
    # keeps the given order
    assert canonical_order((t1, same)) == canonical_order((same, t1)) == [0, 1]
    # a cohort: only distinct trees that share an id read their fingerprints,
    # and a tree given twice keeps its given order
    read = []
    fingerprint = GeometricTree.fingerprint.func
    monkeypatch.setattr(GeometricTree, "fingerprint", property(lambda t: read.append(t) or fingerprint(t)))
    other = chain_tree(5, tree_id="a")
    trees = [t2, other, t2, t1]
    low, high = sorted((1, 3), key=lambda k: fingerprint(trees[k]))
    assert canonical_order(trees) == [low, high, 0, 2]
    assert sorted(map(id, read)) == sorted(map(id, (t1, other)))


def test_serialize_parse_round_trip(rng):
    for k in range(10):
        t = random_tree(rng, 25, n=2, d=2, tree_id=f"rt{k}")
        back = parse_tree(serialize_tree(t))
        assert back.fingerprint == t.fingerprint
        assert back.id == t.id
        assert np.array_equal(back.positions, t.positions)
        assert np.array_equal(back.attributes, t.attributes)
        # canonical form is a fixed point
        assert serialize_tree(back) == serialize_tree(t)


def test_parse_errors():
    good = {
        "id": "t",
        "n": 1,
        "d": 0,
        "nodes": [{"id": 0, "parent": None, "x": [0.0]}],
    }
    parse_tree(good)
    with pytest.raises(ValueError, match="missing field 'n'"):
        parse_tree({k: v for k, v in good.items() if k != "n"})
    with pytest.raises(ValueError, match="duplicate node id"):
        parse_tree(
            {
                **good,
                "nodes": [
                    {"id": 0, "parent": None, "x": [0.0]},
                    {"id": 0, "parent": 0, "x": [1.0]},
                ],
            }
        )
    with pytest.raises(ValueError, match="unknown parent"):
        parse_tree(
            {
                **good,
                "nodes": [
                    {"id": 0, "parent": None, "x": [0.0]},
                    {"id": 1, "parent": 7, "x": [1.0]},
                ],
            }
        )
    with pytest.raises(ValueError, match="missing field 'a'"):
        parse_tree({**good, "d": 1})
    with pytest.raises(ValueError, match="invalid tree JSON"):
        parse_tree(b"{nope")
    # every malformed field names the tree and the node, with no type coercion
    root = {"id": 0, "parent": None, "x": [0.0]}
    for changes, match in [
        ({"nodes": [root, 7]}, r"tree 't': node at position 1 is not an object"),
        ({"nodes": [root, {"id": 1, "parent": [0], "x": [1.0]}]}, r"node at position 1 has 'parent' \[0\], not an integer"),
        ({"nodes": [root, {"id": 1, "parent": True, "x": [1.0]}]}, r"node at position 1 has 'parent' True"),
        ({"nodes": [{**root, "id": 0.5}]}, r"tree 't': node at position 0 has 'id' 0.5, not an integer"),
        ({"nodes": [{**root, "id": "0"}]}, r"node at position 0 has 'id' '0'"),
        ({"nodes": [{**root, "x": ["a"]}]}, r"tree 't': node 0 position has an entry that is not a number: \['a'\]"),
        ({"nodes": [{**root, "x": [None]}]}, r"node 0 position has an entry that is not a number"),
        ({"nodes": [{**root, "x": [[0.0], [1.0, 2.0]]}]}, r"node 0 position has an entry that is not a number"),
        ({"d": 1, "nodes": [{**root, "a": ["1.5"]}]}, r"node 0 attributes have an entry that is not a number"),
        ({"n": "two"}, r"tree 't': 'n' must be an integer, got 'two'"),
        ({"d": False}, r"tree 't': 'd' must be an integer, got False"),
        ({"nodes": [{"id": 0, "parent": None}]}, r"tree 't': node at position 0 missing field 'x'"),
        ({"nodes": [{**root, "a": [1.0]}]}, r"tree 't': node 0 carries 'a' but d = 0"),
        ({"nodes": []}, r"tree 't': 'nodes' must be a non-empty array"),
    ]:
        with pytest.raises(ValueError, match=match):
            parse_tree({**good, **changes})


def test_dataset_round_trip(tmp_path, rng):
    trees = [random_tree(rng, 20, d=1, tree_id=f"d{k}") for k in range(5)]
    path = tmp_path / "trees.json"
    save_dataset(trees, path)
    back = load_dataset(path)
    assert [t.fingerprint for t in back] == [t.fingerprint for t in trees]
    # a second save of the loaded set is byte-identical
    again = tmp_path / "again.json"
    save_dataset(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_dataset_directory_and_duplicates(tmp_path, rng):
    t1 = random_tree(rng, 10, tree_id="x1")
    t2 = random_tree(rng, 10, tree_id="x2")
    (tmp_path / "a.json").write_bytes(serialize_tree(t1))
    (tmp_path / "b.json").write_bytes(serialize_tree(t2))
    assert [t.id for t in load_dataset(tmp_path)] == ["x1", "x2"]

    dup = tmp_path / "dup.json"
    save_dataset([t1, random_tree(rng, 10, tree_id="x1")], dup)
    with pytest.raises(ValueError, match=r"dup\.json: duplicate tree id 'x1'$"):
        load_dataset(dup)

    broken = tmp_path / "parts"
    broken.mkdir()
    (broken / "a.json").write_bytes(serialize_tree(t1))
    (broken / "b.json").write_text('{"id": "x3", "n": 1, "d": 0}')
    with pytest.raises(ValueError, match=r"b\.json: missing field 'nodes'"):
        load_dataset(broken)
    # a directory holding trees.json (as `treekern gen` writes it) is read
    # from that file alone, whatever other .json files sit next to it
    save_dataset([t1, t2], broken / "trees.json")
    assert [t.id for t in load_dataset(broken)] == ["x1", "x2"]

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ValueError, match="non-empty"):
        load_dataset(empty)
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "trees.txt").write_bytes(serialize_tree(t1))
    with pytest.raises(ValueError, match=r"bare: directory contains no \.json files"):
        load_dataset(bare)
    with pytest.raises(ValueError, match="refusing to write an empty dataset"):
        save_dataset([], tmp_path / "none.json")
    assert not (tmp_path / "none.json").exists()


def reference_load(path):
    """The whole-file reader the streaming one replaces: one json.loads per
    file, then one tree per element."""
    trees = []
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
    return trees


def test_streamed_reader_accepts_what_json_loads_accepts(tmp_path, rng):
    trees = [random_tree(rng, 12, n=2, d=1, tree_id=f"s{k}") for k in range(4)]
    lines = [serialize_tree(t).decode("utf-8").strip() for t in trees]
    objs = [json.loads(line) for line in lines]
    texts = {
        "compact": "[" + ",".join(lines) + "]",
        "pretty": json.dumps(objs, indent=2),
        "odd_whitespace": " \r\n\t[\n" + " ,\t\r\n ".join(lines) + "\t\n]\r\n \n",
        "one_element": f"[ {lines[0]} ]",
        "single_object": lines[1],
        "single_object_pretty": "\n" + json.dumps(objs[2], indent=4) + "\n",
    }
    files = {name: text.encode("utf-8") for name, text in texts.items()}
    files["utf8_bom"] = b"\xef\xbb\xbf" + texts["pretty"].encode("utf-8")
    files["utf16"] = texts["odd_whitespace"].encode("utf-16")
    files["utf16_be"] = texts["compact"].encode("utf-16-be")
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        expected = reference_load(path)
        assert [t.fingerprint for t in load_dataset(path)] == [t.fingerprint for t in expected], name
    # a directory: every .json file in name order, each one tree or an array
    parts = tmp_path / "parts"
    parts.mkdir()
    (parts / "a.json").write_text(texts["pretty"].replace('"s', '"a'), encoding="utf-8")
    (parts / "b.json").write_bytes(texts["single_object"].replace('"s', '"b').encode("utf-16"))
    loaded = load_dataset(parts)
    assert [t.id for t in loaded] == ["a0", "a1", "a2", "a3", "b1"]
    assert [t.fingerprint for t in loaded] == [t.fingerprint for t in reference_load(parts)]


def test_streamed_reader_rejects_what_json_loads_rejects(tmp_path, rng):
    a, b = (serialize_tree(random_tree(rng, 8, tree_id=i)).decode("utf-8").strip() for i in "ab")
    cases = {
        # (text, message after the path): syntax errors carry json.loads's
        # message and position in the whole file
        "empty_array": ("[ \n ]", "expected a non-empty JSON array of trees"),
        "number": ("3", "expected a non-empty JSON array of trees"),
        "string": ('"trees"', "expected a non-empty JSON array of trees"),
        "null": ("null", "expected a non-empty JSON array of trees"),
        "empty_file": ("", None),
        "trailing_comma": (f"[{a},\n{b},\n]", None),
        "missing_comma": (f"[{a}\n{b}]", None),
        "data_after": (f"[{a},{b}]\n[]", None),
        "object_after_object": (f"{a} {b}", None),
        "truncated_last": (f"[{a},\n{b[:-7]}", None),
        "unclosed": (f"[{a},{b}", None),
        # a constructor refusal gains the file it came from
        "zero_n": ('{"id": "z", "n": 0, "d": 0, "nodes": [{"id": 0, "parent": null, "x": []}]}',
                   "tree 'z': geometric dimension must be positive"),
        "negative_d": ('{"id": "m", "n": 1, "d": -1, "nodes": [{"id": 0, "parent": null, "x": [0.0]}]}',
                       "tree 'm': attribute dimension must be >= 0"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as expected:
            reference_load(path)
        with pytest.raises(ValueError) as got:
            load_dataset(path)
        assert str(got.value) == str(expected.value), name
        if message is None:
            assert str(got.value).startswith(f"{path}: invalid JSON: "), name
            assert isinstance(got.value.__cause__, json.JSONDecodeError)
        else:
            assert str(got.value) == f"{path}: {message}"
    # an element that is no tree object is named by its index
    path = tmp_path / "non_object.json"
    path.write_text(f"[{a},\n[1, 2],\n{b}]", encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        reference_load(path)
    with pytest.raises(ValueError) as got:
        load_dataset(path)
    assert str(got.value) == str(expected.value) == f"{path}[1]: expected a JSON object"
    # a tree error is reported before a syntax error later in the same file
    path = tmp_path / "tree_then_syntax.json"
    path.write_text(f'[{a}, {{"id": "c"}}, {b},]', encoding="utf-8")
    with pytest.raises(ValueError, match=r"tree_then_syntax\.json\[1\]: missing field 'n'"):
        load_dataset(path)
    with pytest.raises(ValueError, match="invalid JSON"):
        reference_load(path)


def test_load_dataset_peak_memory_stays_near_the_file_size(tmp_path):
    cfg_a, cfg_b = generate.preset_configs("attr-shift", 5)
    trees, _ = generate.generate_two_class_population(cfg_a, cfg_b, 150, 150)
    path = tmp_path / "trees.json"
    save_dataset(trees, path)
    del trees
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 300
    # the text and the bytes it was decoded from, plus one tree's objects;
    # decoding the whole array at once peaked above 5x
    assert peak < 3 * path.stat().st_size


def test_star_and_chain_shapes():
    star = star_tree(3)
    assert star.degrees.tolist() == [3, 1, 1, 1]
    assert star.height == 2
    chain = chain_tree(4)
    assert chain.degrees.tolist() == [1, 2, 2, 1]
    assert chain.height == 4
