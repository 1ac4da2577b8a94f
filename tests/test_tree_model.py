"""Tree construction, canonical ordering, paths, descendant vectors, and the
JSON round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekern import (
    GeometricTree,
    canonical_pair,
    load_dataset,
    parse_tree,
    save_dataset,
    serialize_tree,
)

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
    with pytest.raises(ValueError, match="no attributes"):
        p.attributes()


def test_rootpath():
    t = two_level_tree()
    assert t.rootpath(3).nodes == (3, 1, 0)
    assert t.rootpath(0).nodes == (0,)
    with pytest.raises(ValueError, match="out of range"):
        t.rootpath(-1)


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


def test_canonical_pair_is_order_free():
    t1 = chain_tree(3, tree_id="a")
    t2 = chain_tree(4, tree_id="b")
    assert canonical_pair(t1, t2) == (t1, t2)
    assert canonical_pair(t2, t1) == (t1, t2)
    same = chain_tree(3, tree_id="a")
    # identical ids fall back to the content fingerprint; identical content
    # keeps the given instances
    first, second = canonical_pair(t1, same)
    assert {first, second} == {t1, same}


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
    with pytest.raises(ValueError, match="duplicate tree id"):
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


def test_star_and_chain_shapes():
    star = star_tree(3)
    assert star.degrees.tolist() == [3, 1, 1, 1]
    assert star.height == 2
    chain = chain_tree(4)
    assert chain.degrees.tolist() == [1, 2, 2, 1]
    assert chain.height == 4
