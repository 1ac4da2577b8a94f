"""Tree construction, canonical ordering, paths, descendant vectors, and the
JSON round trip."""

import numpy as np
import pytest

from treekern import (
    GeometricTree,
    Node,
    canonical_pair,
    left_aligned_add,
    load_dataset,
    parse_tree,
    save_dataset,
    serialize_tree,
)

from conftest import chain_tree, random_tree, star_tree


def two_level_tree():
    # root with two children; the first child has one child of its own
    nodes = [
        Node(parent=None, x=np.array([0.0])),
        Node(parent=0, x=np.array([1.0])),
        Node(parent=0, x=np.array([2.0])),
        Node(parent=1, x=np.array([3.0])),
    ]
    return GeometricTree("demo", nodes, n=1, d=0)


def test_left_aligned_add():
    out = left_aligned_add(np.array([1, 2, 3]), np.array([4, 5]))
    assert out.tolist() == [5, 7, 3]
    out = left_aligned_add(np.array([4, 5]), np.array([1, 2, 3]))
    assert out.tolist() == [5, 7, 3]
    out = left_aligned_add(np.array([], dtype=int), np.array([7]))
    assert out.tolist() == [7]


def test_basic_structure():
    t = two_level_tree()
    assert t.size == 4
    assert t.height == 3
    assert t.root_index == 0
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
        nodes = [
            Node(
                parent=None if entries[name][0] is None else pos[entries[name][0]],
                x=np.array([entries[name][1]]),
            )
            for name in names
        ]
        return GeometricTree("demo", nodes, n=1, d=0)

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
        GeometricTree("t", [])
    with pytest.raises(ValueError, match="no root"):
        GeometricTree("t", [Node(parent=0, x=x)])
    with pytest.raises(ValueError, match="multiple roots"):
        GeometricTree("t", [Node(parent=None, x=x), Node(parent=None, x=x)])
    with pytest.raises(ValueError, match="invalid parent"):
        GeometricTree("t", [Node(parent=None, x=x), Node(parent=5, x=x)])
    with pytest.raises(ValueError, match="cycle"):
        GeometricTree(
            "t",
            [Node(parent=None, x=x), Node(parent=2, x=x), Node(parent=1, x=x)],
        )
    with pytest.raises(ValueError, match="dimension"):
        GeometricTree("t", [Node(parent=None, x=x), Node(parent=0, x=np.zeros(2))], n=1)
    with pytest.raises(ValueError, match="attributes"):
        GeometricTree("t", [Node(parent=None, x=x, a=np.array([1.0])), Node(parent=0, x=x)])
    with pytest.raises(ValueError, match="d = 0"):
        GeometricTree("t", [Node(parent=None, x=x, a=np.array([1.0]))], d=0)


def test_construction_rejects_non_finite_values():
    ok = np.array([0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"tree 'lungs': node 2 has a non-finite position"):
            GeometricTree(
                "lungs",
                [Node(parent=None, x=ok), Node(parent=0, x=ok), Node(parent=0, x=np.array([1.0, bad]))],
            )
        with pytest.raises(ValueError, match=r"tree 'lungs': node 1 has a non-finite attribute"):
            GeometricTree(
                "lungs",
                [Node(parent=None, x=ok, a=np.ones(1)), Node(parent=0, x=ok, a=np.array([bad]))],
            )
    # the JSON reader admits NaN and Infinity literals; the tree rejects them
    text = '{"id": "j", "n": 1, "d": 1, "nodes": [{"id": 0, "parent": null, "x": [0.0], "a": [NaN]}]}'
    with pytest.raises(ValueError, match=r"tree 'j': node 0 has a non-finite attribute"):
        parse_tree(text)


def test_levels_of_long_reversed_chain():
    # input order lists the leaf first and the root last, so every level
    # walk starts at the deep end of the chain
    size = 50_000
    nodes = [Node(parent=k + 1, x=np.array([float(k)])) for k in range(size - 1)]
    nodes.append(Node(parent=None, x=np.array([float(size - 1)])))
    t = GeometricTree("deep", nodes, n=1, d=0)
    assert t.height == size
    assert np.array_equal(t.node_levels, np.arange(1, size + 1))
    assert np.array_equal(t.parents[1:], np.arange(size - 1))
    assert t.positions[0, 0] == size - 1 and t.positions[-1, 0] == 0.0


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
    vecs = t.descendant_vectors
    assert vecs[0].tolist() == [1, 2, 1]
    assert vecs[1].tolist() == [1, 1]
    assert vecs[2].tolist() == [1]
    assert vecs[3].tolist() == [1]
    # level 2 matrix zero-pads the childless node
    mat = t.descendant_matrix(2)
    assert mat.tolist() == [[1.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match="no level"):
        t.descendant_matrix(4)


def test_descendant_vectors_sum_to_subtree_sizes(rng):
    for _ in range(20):
        t = random_tree(rng, 40)
        vecs = t.descendant_vectors
        sizes = np.zeros(t.size, dtype=int)
        for i in range(t.size - 1, -1, -1):
            sizes[i] = 1 + sum(sizes[k] for k in t.children[i])
        for i in range(t.size):
            assert vecs[i].sum() == sizes[i]
            assert vecs[i][0] == 1


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
