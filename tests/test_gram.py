"""Gram matrix assembly, normalization, PSD checks, kernel registry, and the
CSV round trip."""

import json
import warnings

import numpy as np
import pytest

from treekern import (
    GramMatrix,
    KERNEL_NAMES,
    assemble,
    build_kernel,
    combine,
    load_gram,
    normalize,
    psd_check,
    save_gram,
    sidecar_path,
)

from conftest import chain_tree, random_tree


def make_trees(rng, count=8, max_nodes=15, d=1):
    return [random_tree(rng, max_nodes, n=3, d=d, tree_id=f"t{k:03d}") for k in range(count)]


def plain_gram(values, scalar_linear=False, normalized=False):
    values = np.asarray(values, dtype=float)
    ids = [f"g{k}" for k in range(values.shape[0])]
    spec = {"name": "stub", "params": {}, "scalar_linear": scalar_linear}
    return GramMatrix(ids=ids, values=values, kernel_spec=spec, normalized=normalized)


def test_gram_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        GramMatrix(ids=["a"], values=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="id count"):
        GramMatrix(ids=["a"], values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        GramMatrix(ids=["a", "a"], values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(ids=["a", "b"], values=np.array([[1.0, 2.0], [3.0, 1.0]]))
    # NaN compares false against the symmetry tolerance, so it needs its own check
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"non-finite entry .* at \(b, a\)"):
            GramMatrix(ids=["a", "b"], values=np.array([[1.0, 0.0], [bad, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            GramMatrix(ids=["a", "b"], values=np.full((2, 2), bad))


def test_assemble_basic(rng):
    trees = make_trees(rng)
    gram = assemble(trees, build_kernel("gbc"))
    assert gram.ids == [t.id for t in trees]
    assert gram.size == len(trees)
    assert np.array_equal(gram.values, gram.values.T)
    assert np.all(np.diag(gram.values) == 1.0)  # gbc of a tree with itself
    assert gram.kernel_spec["name"] == "gbc"


def test_assemble_thread_count_invariance(rng):
    trees = make_trees(rng, count=10)
    for name, params in [
        ("rootpath-node", {"form": "gaussian", "use_attributes": True}),
        ("all-pairs-embedded", {"landmarks": 4}),
        ("wl", {}),
    ]:
        serial = assemble(trees, build_kernel(name, **params), threads=1)
        threaded = assemble(trees, build_kernel(name, **params), threads=7)
        assert np.array_equal(serial.values, threaded.values), name


def test_assemble_errors(rng):
    trees = make_trees(rng, count=3)
    kernel = build_kernel("gbc")
    with pytest.raises(ValueError, match="no trees"):
        assemble([], kernel)
    with pytest.raises(ValueError, match="duplicate"):
        assemble([trees[0], trees[0]], kernel)
    mixed = trees + [random_tree(rng, 5, n=2, d=1, tree_id="odd")]
    with pytest.raises(ValueError, match="dimensions"):
        assemble(mixed, kernel)
    with pytest.raises(ValueError, match="threads"):
        assemble(trees, kernel, threads=0)


def test_normalize_hand_value():
    gram = plain_gram([[4.0, 2.0], [2.0, 9.0]])
    out = normalize(gram)
    assert np.allclose(np.diag(out.values), 1.0, atol=1e-15)
    assert out.values[0, 1] == pytest.approx(2.0 / 6.0)
    assert out.normalized
    # idempotent: a normalized matrix passes through unchanged
    assert normalize(out) is out
    # the input object is untouched
    assert gram.values[0, 0] == 4.0 and not gram.normalized


def test_normalize_refusals():
    with pytest.raises(ValueError, match="degenerate"):
        normalize(plain_gram([[4.0, 2.0], [2.0, 9.0]], scalar_linear=True))
    with pytest.raises(ValueError, match="'g1'"):
        normalize(plain_gram([[1.0, 0.0], [0.0, 0.0]]))


def test_normalized_diagonal_for_real_kernels(rng):
    trees = make_trees(rng, count=6)
    for name in ("rootpath-node", "sp", "wl", "pointcloud"):
        if name == "pointcloud" and any(t.size == 1 for t in trees):
            continue
        gram = normalize(assemble(trees, build_kernel(name)))
        assert np.max(np.abs(np.diag(gram.values) - 1.0)) <= 1e-12, name


def test_psd_check():
    good = psd_check(plain_gram(np.eye(3)))
    assert good.is_psd and good.min_eig == pytest.approx(1.0)
    # eigenvalues 3 and -1
    bad = psd_check(plain_gram([[1.0, 2.0], [2.0, 1.0]]))
    assert not bad.is_psd
    assert bad.min_eig == pytest.approx(-1.0)
    assert bad.max_eig == pytest.approx(3.0)

    lopsided = plain_gram(np.eye(2))
    lopsided.values = lopsided.values.copy()
    lopsided.values[0, 1] = 1e-6
    with pytest.raises(ValueError, match="asymmetry"):
        psd_check(lopsided)


def test_combine():
    g1 = plain_gram([[1.0, 0.5], [0.5, 1.0]])
    g2 = plain_gram([[2.0, 0.0], [0.0, 2.0]])
    out = combine(g1, g2)
    assert np.array_equal(out.values, g1.values + g2.values)
    assert out.kernel_spec["name"] == "combine"
    g3 = GramMatrix(ids=["z", "w"], values=np.eye(2))
    with pytest.raises(ValueError, match="id order"):
        combine(g1, g3)


def test_save_load_round_trip(tmp_path, rng):
    trees = make_trees(rng, count=5)
    gram = assemble(trees, build_kernel("rootpath-node"))
    path = tmp_path / "gram.csv"
    save_gram(gram, path)

    text = path.read_text()
    header = text.splitlines()[0]
    assert header == "id," + ",".join(gram.ids)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["kernel_spec"] == gram.kernel_spec
    assert meta["normalized"] is False
    assert "version" in meta

    back = load_gram(path)
    assert back.ids == gram.ids
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.values, gram.values)
    assert back.kernel_spec == gram.kernel_spec


def test_save_load_without_sidecar(tmp_path):
    gram = plain_gram([[1.0, 1 / 3], [1 / 3, 2.0]])
    path = tmp_path / "g.csv"
    save_gram(gram, path)
    sidecar_path(path).unlink()
    back = load_gram(path)
    assert np.array_equal(back.values, gram.values)
    assert back.kernel_spec == {}
    assert back.normalized is False


def test_load_gram_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        load_gram(bad)
    bad.write_text("id,a,b\na,1.0\nb,0.0,1.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_gram(bad)
    bad.write_text("id,a,b\nb,1.0,0.0\na,0.0,1.0\n")
    with pytest.raises(ValueError, match="row ids"):
        load_gram(bad)
    bad.write_text("id,a,b\na,1.0,nan\nb,nan,1.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_gram(bad)


def test_save_gram_rejects_unwritable_ids(tmp_path):
    gram = GramMatrix(ids=["a,b"], values=np.ones((1, 1)))
    with pytest.raises(ValueError, match="cannot be written"):
        save_gram(gram, tmp_path / "g.csv")


def test_registry_names_and_errors(rng):
    assert len(KERNEL_NAMES) == 13
    for name in KERNEL_NAMES:
        kernel = build_kernel(name)
        assert kernel.spec["name"] == name
        assert isinstance(kernel.spec["params"], dict)
    with pytest.raises(ValueError, match="unknown kernel"):
        build_kernel("mystery")
    with pytest.raises(ValueError, match="does not accept"):
        build_kernel("gbc", form="linear")
    with pytest.raises(ValueError, match="does not accept"):
        build_kernel("sp", landmarks=5)
    with pytest.raises(ValueError, match="linear"):
        build_kernel("rootpath-node-linear-fast", form="gaussian")


def test_scalar_linear_flags():
    assert build_kernel("lbc").scalar_linear
    assert build_kernel("aaw", form="linear").scalar_linear
    assert build_kernel("sp", length_kernel="linear").scalar_linear
    assert build_kernel("agaw", form="linear", gen_lo=4, gen_hi=4).scalar_linear
    assert not build_kernel("aaw").scalar_linear
    assert not build_kernel("gbc").scalar_linear
    assert not build_kernel("sp").scalar_linear
    assert not build_kernel("agaw", form="linear").scalar_linear
    assert not build_kernel("rootpath-node-linear-fast").scalar_linear
    assert build_kernel("sp", length_kernel="linear").spec["scalar_linear"]


FEATURE_KERNELS = [
    ("lbc", {}),
    ("gbc", {}),
    ("aaw", {}),
    ("aaw", {"form": "linear"}),
    ("agaw", {"gen_lo": 0, "gen_hi": 4}),
    ("agaw", {"gen_lo": 0, "gen_hi": 4, "form": "linear"}),
    ("agaw", {"gen_lo": 2, "gen_hi": 2, "form": "linear"}),
    ("sp", {}),
    ("sp", {"length_kernel": "linear"}),
    ("rootpath-node-linear-fast", {}),
    ("rootpath-node-linear-fast", {"use_attributes": True}),
]


@pytest.mark.parametrize("name,params", FEATURE_KERNELS)
def test_feature_route_matches_pairwise_route(rng, name, params):
    # mixed heights, a chain, and a single-node tree
    trees = make_trees(rng, count=7, max_nodes=25) + [
        chain_tree(9, n=3, d=1, tree_id="chain"),
        chain_tree(1, n=3, d=1, tree_id="single"),
    ]
    kernel = build_kernel(name, **params)
    assert kernel.feature_map is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agaw: generations missing from small trees
        gram = assemble(trees, kernel).values
        pairwise = np.array([[kernel.value(a, b) for b in trees] for a in trees])
    assert np.array_equal(gram, gram.T)
    scale = np.maximum(1.0, np.maximum(np.abs(gram), np.abs(pairwise)))
    assert (np.abs(gram - pairwise) <= 1e-12 * scale).all()
    if name == "rootpath-node-linear-fast":
        naive = assemble(trees, build_kernel("rootpath-node-naive", **kernel.params)).values
        scale = np.maximum(1.0, np.maximum(np.abs(gram), np.abs(naive)))
        assert (np.abs(gram - naive) <= 1e-9 * scale).all()
