"""Baseline kernels: point clouds, attribute means, branch counts, shortest
paths, and iterative label refinement."""

import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from treekern import GeometricTree, assemble, build_kernel, generate_two_class_population, preset_configs

from conftest import chain_tree, distance_histogram, random_tree, star_tree


def attributed(tree_id, rows):
    """rows: list of (parent, x, a) with scalars for 1-dimensional x and a;
    parent -1 marks the root."""
    parents, xs, attrs = zip(*rows)
    return GeometricTree(tree_id, parents, np.array(xs, float)[:, None], np.array(attrs, float)[:, None])


# -- pointcloud ---------------------------------------------------------------------


def test_pointcloud_hand_value():
    t1 = attributed("p1", [(-1, 0, 0), (0, 1, 3)])
    t2 = attributed("p2", [(-1, 0, 0), (0, 2, 3)])
    # one edge each; child positions differ by 1, attributes agree
    got = build_kernel("pointcloud", lambda1=1.0, lambda2=1.0).value(t1, t2)
    assert got == pytest.approx(math.exp(-1.0))
    # default scales are 1/n = 1 and 1/d = 1 here
    assert build_kernel("pointcloud").value(t1, t2) == pytest.approx(math.exp(-1.0))


def test_pointcloud_requirements():
    t1 = attributed("q1", [(-1, 0, 0), (0, 1, 1)])
    single = attributed("q2", [(-1, 0, 0)])
    pointcloud = build_kernel("pointcloud").value
    with pytest.raises(ValueError, match="d > 0, but tree 'bare' has d = 0"):
        pointcloud(chain_tree(2, tree_id="bare"), chain_tree(2, tree_id="bare2"))
    with pytest.raises(ValueError, match="incompatible tree dimensions in dataset: tree 'bare'"):
        pointcloud(t1, chain_tree(2, tree_id="bare"))
    with pytest.warns(UserWarning, match="no edges"):
        assert pointcloud(t1, single) == 0.0
    with pytest.raises(ValueError, match="positive"):
        build_kernel("pointcloud", lambda1=-1.0).value(t1, t1)


def test_pointcloud_matches_edge_pair_loop(rng):
    for trial in range(10):
        t1 = random_tree(rng, 12, n=2, d=2, tree_id=f"pc{trial}a")
        t2 = random_tree(rng, 12, n=2, d=2, tree_id=f"pc{trial}b")
        if t1.size == 1 or t2.size == 1:
            continue
        expected = 0.0
        for i in range(1, t1.size):
            for j in range(1, t2.size):
                dx = t1.positions[i] - t2.positions[j]
                da = t1.attributes[i] - t2.attributes[j]
                expected += math.exp(-(dx @ dx) / 2.0) * math.exp(-(da @ da) / 2.0)
        assert build_kernel("pointcloud").value(t1, t2) == pytest.approx(expected, rel=1e-12)


# -- attribute means ----------------------------------------------------------------


def test_average_attribute_kernel():
    t1 = attributed("a1", [(-1, 0, 1), (0, 1, 3)])  # mean 2
    t2 = attributed("a2", [(-1, 0, 4)])  # mean 4
    aaw = build_kernel("aaw").value
    assert aaw(t1, t2) == pytest.approx(math.exp(-4.0))
    assert build_kernel("aaw", form="linear").value(t1, t2) == pytest.approx(8.0)
    assert aaw(t1, t1) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="component"):
        build_kernel("aaw", component=5).value(t1, t2)
    with pytest.raises(ValueError, match="form"):
        build_kernel("aaw", form="cubic").value(t1, t2)
    with pytest.raises(ValueError, match="d = 0"):
        aaw(chain_tree(2), chain_tree(2, tree_id="c2"))


def test_generation_average_kernel():
    # depth 0 holds the root, depth 1 its children
    t1 = attributed("g1", [(-1, 0, 2), (0, 1, 4), (0, 2, 6)])  # gen means 2, 5
    t2 = attributed("g2", [(-1, 0, 1), (0, 1, 3)])  # gen means 1, 3
    got = build_kernel("agaw", gen_lo=0, gen_hi=1).value(t1, t2)
    assert got == pytest.approx(math.exp(-(1.0 + 4.0)))
    lin = build_kernel("agaw", gen_lo=0, gen_hi=1, form="linear").value(t1, t2)
    assert lin == pytest.approx(2.0 * 1.0 + 5.0 * 3.0)


def test_generation_average_warns_on_missing_generations():
    t1 = attributed("w1", [(-1, 0, 2), (0, 1, 4)])
    t2 = attributed("w2", [(-1, 0, 2), (0, 1, 4)])
    # the default window is generations 3..6, all beyond these trees
    with pytest.warns(UserWarning, match="generation"):
        got = build_kernel("agaw").value(t1, t2)
    assert got == pytest.approx(1.0)  # both vectors are zero
    with pytest.raises(ValueError, match="gen_lo"):
        build_kernel("agaw", gen_lo=2, gen_hi=1).value(t1, t2)


def test_generation_average_work_and_warnings_stop_at_the_tree_height():
    # about 0.1 s; one pass and one warning per generation of the window took over 2 s
    trees = [chain_tree(height, d=1, tree_id=f"h{height}") for height in (1, 3, 5, 7)]
    wide = build_kernel("agaw", gen_lo=0, gen_hi=100_000, form="linear")
    tic = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gram = assemble(trees, wide)
    assert time.perf_counter() - tic < 2.0
    assert [str(w.message) for w in caught] == [
        f"tree 'h{height}' has no nodes in generations {height} to 100000; means set to 0" for height in (1, 3, 5, 7)
    ]
    with pytest.warns(UserWarning, match="^tree 'h1' has no nodes in generation 6; mean set to 0$"):
        build_kernel("agaw", gen_lo=6, gen_hi=6).value(trees[0], trees[0])
    # the generations the trees have give the same Gram as a window that stops at the tallest
    with pytest.warns(UserWarning):
        narrow = assemble(trees, build_kernel("agaw", gen_lo=0, gen_hi=6, form="linear"))
    assert np.allclose(gram.values, narrow.values, rtol=1e-15, atol=0)


# -- branch counts ------------------------------------------------------------------


def test_branchcount_kernels():
    t1 = chain_tree(2, tree_id="b1")
    t2 = chain_tree(3, tree_id="b2")
    lbc, gbc = build_kernel("lbc").value, build_kernel("gbc").value
    assert lbc(t1, t2) == pytest.approx(6.0)
    assert gbc(t1, t2) == pytest.approx(math.exp(-1.0))
    assert lbc(t2, t2) == pytest.approx(9.0)
    assert gbc(t2, t2) == pytest.approx(1.0)


# -- shortest paths -----------------------------------------------------------------


def test_shortest_path_hand_values():
    sp = build_kernel("sp").value
    c3 = chain_tree(3, tree_id="c3")
    # ordered pairs of a 3-chain by distance: 3 at 0, 4 at 1, 2 at 2
    assert sp(c3, c3) == pytest.approx(29.0)
    c2 = chain_tree(2, tree_id="c2")
    # c2 counts: 2 at 0, 2 at 1
    assert sp(c2, c3) == pytest.approx(2 * 3 + 2 * 4)
    # linear length kernel factorizes into weighted count sums: 2 * 8
    assert build_kernel("sp", length_kernel="linear").value(c2, c3) == pytest.approx(16.0)
    with pytest.raises(ValueError, match="length kernel"):
        build_kernel("sp", length_kernel="step").value(c2, c3)


def test_shortest_path_matches_networkx(rng):
    for trial in range(10):
        t1 = random_tree(rng, 20, tree_id=f"nx{trial}a")
        t2 = random_tree(rng, 20, tree_id=f"nx{trial}b")
        c1 = distance_histogram(t1)
        c2 = distance_histogram(t2)
        expected = float(sum(v * c2.get(k, 0) for k, v in c1.items()))
        assert build_kernel("sp").value(t1, t2) == pytest.approx(expected)


# -- label refinement ---------------------------------------------------------------


def wl(t1, t2, iterations=10):
    return build_kernel("wl", iterations=iterations).value(t1, t2)


def test_wl_hand_values():
    star = star_tree(3, tree_id="star3")
    chain = chain_tree(4, tree_id="chain4")
    # round 0 compares degree counts: {3: 1, 1: 3} vs {1: 2, 2: 2} -> 6;
    # after one refinement no label is shared
    assert wl(star, chain, 0) == pytest.approx(6.0)
    assert wl(star, chain, 1) == pytest.approx(6.0)
    # chain with itself, round 0: degree counts {1: 2, 2: 2} -> 8
    assert wl(chain, chain, 0) == pytest.approx(8.0)
    # refinement of a chain keeps 4 matching nodes per round
    assert wl(chain, chain, 2) == pytest.approx(8 + 2 * (2 * 2 + 2 * 2))


def test_wl_default_rounds(rng):
    t1 = random_tree(rng, 15, tree_id="wl1")
    t2 = random_tree(rng, 15, tree_id="wl2")
    assert build_kernel("wl").value(t1, t2) == wl(t1, t2, 10)
    with pytest.raises(ValueError, match="iterations"):
        build_kernel("wl", iterations=-1)


def test_wl_rounds_after_the_classes_settle_add_one_dot_product_each(rng):
    # the joint label classes of two trees split at most |V1| + |V2| - 1 times
    pairs = [(chain_tree(9, tree_id="c9"), star_tree(4, tree_id="s4"))]
    pairs += [(random_tree(rng, 15, tree_id=f"w{k}a"), random_tree(rng, 15, tree_id=f"w{k}b")) for k in range(4)]
    for t1, t2 in pairs:
        settled = t1.size + t2.size
        start, next_ = (wl(t1, t2, settled + k) for k in (0, 1))
        for k in (2, 7, 1000, 10**9):
            assert wl(t1, t2, settled + k) == start + k * (next_ - start)


def test_wl_value_independent_of_evaluation_history(rng):
    # each evaluation refines through dictionaries of its own, so earlier
    # evaluations cannot shift later values
    t1 = random_tree(rng, 15, tree_id="h1")
    t2 = random_tree(rng, 15, tree_id="h2")
    t3 = random_tree(rng, 15, tree_id="h3")
    fresh = wl(t1, t2)
    wl(t1, t3)
    wl(t3, t2)
    assert wl(t1, t2) == fresh


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_wl_matches_networkx_subtree_hashes():
    # from networkx 3.5 an unlabelled graph's first hashes are of the node
    # degrees, so its hashes r hold wl's round r labels; about 0.3 s
    nx = pytest.importorskip("networkx", minversion="3.5")
    trees, _ = generate_two_class_population(*preset_configs("attr-shift", seed=1), 5, 5)
    for k in (0, 1, 3, 10):
        counts = []
        for tree in trees:
            graph = nx.Graph((v, p) for v, p in enumerate(tree.parents.tolist()) if p >= 0)
            graph.add_nodes_from(range(tree.size))
            hashes = nx.weisfeiler_lehman_subgraph_hashes(graph, iterations=k + 1).values()
            counts.append([Counter(labels[r] for labels in hashes) for r in range(k + 1)])
        for t1, rounds1 in zip(trees, counts):
            for t2, rounds2 in zip(trees, counts):
                expected = sum(c * r2[label] for r1, r2 in zip(rounds1, rounds2) for label, c in r1.items())
                assert wl(t1, t2, k) == expected, (t1.id, t2.id, k)


def test_wl_assembles_a_cohort_in_one_pass():
    # about 0.1 s; refining both trees of every pair took 5.8 s
    trees, _ = generate_two_class_population(*preset_configs("attr-shift", seed=3), 100, 100)
    tic = time.perf_counter()
    assemble(trees, build_kernel("wl"))
    assert time.perf_counter() - tic < 1.0


def test_baseline_symmetry_is_exact(rng):
    pointcloud, sp, aaw = (build_kernel(name).value for name in ("pointcloud", "sp", "aaw"))
    for trial in range(8):
        t1 = random_tree(rng, 20, n=2, d=1, tree_id=f"y{trial}a")
        t2 = random_tree(rng, 20, n=2, d=1, tree_id=f"y{trial}b")
        if t1.size > 1 and t2.size > 1:
            assert pointcloud(t1, t2) == pointcloud(t2, t1)
        assert sp(t1, t2) == sp(t2, t1)
        assert wl(t1, t2) == wl(t2, t1)
        assert aaw(t1, t2) == aaw(t2, t1)
