"""Gram matrix assembly, normalization, PSD checks, kernel registry, and the
CSV round trip."""

import json
import math
import re
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treekern import (
    GeometricTree,
    GramMatrix,
    KERNEL_NAMES,
    NodeKernelSpec,
    PathKernelSpec,
    assemble,
    build_kernel,
    load_gram,
    node_path_kernel,
    normalize,
    landmark_path_kernel,
    psd_check,
    rootpath_kernel_naive,
    sample_embedded_path,
    save_gram,
    sidecar_path,
)
from treekern import gram as gram_module, twosample
from treekern.baselines import _Refinement
from treekern.features import FeatureMap, NodeSet, PairLoop, nodeset_gram

from conftest import chain_tree, kernel_cases, random_tree, recursive_tree, rel_close, shaped_trees, star_tree


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
    with pytest.raises(ValueError, match="^duplicate tree id 'a'$"):
        GramMatrix(ids=["b", "a", "a"], values=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(ids=["a", "b"], values=np.array([[1.0, 2.0], [3.0, 1.0]]))
    # NaN compares false against the symmetry tolerance, so it needs its own check
    for bad in (np.nan, np.inf, -np.inf):
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
    with pytest.raises(ValueError, match="^duplicate tree id 't000'$"):
        assemble([trees[0], trees[0]], kernel)
    mixed = trees + [random_tree(rng, 5, n=2, d=1, tree_id="odd")]
    with pytest.raises(ValueError, match=r"dimensions.*tree 'odd' has \(n, d\) = \(2, 1\), tree 't000' \(3, 1\)"):
        assemble(mixed, kernel)
    with pytest.raises(ValueError, match="threads"):
        assemble(trees, kernel, threads=0)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_route_refuses_the_same_cohorts_with_the_same_message(name):
    # under 0.1 s for all kernels together: every refusal comes before any input is built
    kernel = build_kernel(name)
    one, two = (chain_tree(3, n=2, d=d, tree_id=f"d{d}") for d in (1, 2))
    calls = [lambda: kernel.value(one, two), lambda: assemble([one, two], kernel),
             lambda: kernel.cohort.inputs([one, two])]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == "incompatible tree dimensions in dataset: tree 'd2' has (n, d) = (2, 2), tree 'd1' (2, 1)"
    with pytest.raises(ValueError, match="^no trees given$"):
        assemble([], kernel)


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


def test_checks_and_normalize_make_no_gram_sized_temporaries():
    size = 1500
    half = np.random.default_rng(9).random((size, size))
    values = half + half.T  # exactly symmetric, positive diagonal
    ids = [f"t{k}" for k in range(size)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram = GramMatrix(ids=ids, values=values)
        built = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        normalize(gram)
        normalized = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert built <= 0.25 * values.nbytes, built / values.nbytes
    assert normalized <= 1.25 * values.nbytes, normalized / values.nbytes


def test_finiteness_checks_build_no_gram_sized_mask():
    size = 1500
    half = np.random.default_rng(9).random((size, size))
    values = half + half.T
    ids = [f"t{k}" for k in range(size)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram = GramMatrix(ids=ids, values=values)
        built = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        twosample._values(gram)
        checked = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # an np.isfinite mask alone is 2.25 MB; the symmetry check's one row strip is about 0.5 MB
    assert built < 0.75e6, built
    assert checked < 0.1e6, checked


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
    # the cell format is %.17g, pinned here so it cannot drift unnoticed
    assert path.read_text() == "id,g0,g1\ng0,1,0.33333333333333331\ng1,0.33333333333333331,2\n"
    sidecar_path(path).unlink()
    back = load_gram(path)
    assert np.array_equal(back.values, gram.values)
    assert back.kernel_spec == {}
    assert back.normalized is False


def test_save_load_is_exact_at_the_edges_of_float64(tmp_path):
    edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1 + 0.2, 1 / 3]
    values = np.ones((4, 4))
    upper = np.triu_indices(4, 1)
    values[upper] = edges
    values.T[upper] = edges
    path = tmp_path / "g.csv"
    save_gram(plain_gram(values), path)
    back = load_gram(path).values
    assert np.array_equal(back, values)
    assert np.array_equal(np.signbit(back), np.signbit(values))


def oracle_csv(ids, values) -> str:
    """The Gram CSV as a plain row formatter writes it: every cell formatted
    with %.17g on its own, one row at a time."""
    row_format = "%s" + ",%.17g" * len(ids) + "\n"
    rows = "".join(row_format % (tree_id, *row) for tree_id, row in zip(ids, values.tolist()))
    return "id," + ",".join(ids) + "\n" + rows


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1.0, -2.5]


def strip_grams(test):
    """Run ``test`` on symmetric Grams of a few values (cached by writer and
    reader alike) or of distinct ones (formatted and parsed row by row)."""
    test = given(
        # 256 rows fill one strip of 2^16 cells exactly; 257 need a second strip
        size=st.sampled_from([1, 2, 5, 64, 256, 257]),
        palette=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(-1e6, 1e6), min_size=1, max_size=8),
        distinct=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )(test)
    # six strips of 109 rows, each over 75% distinct values: formatted row by row
    return settings(max_examples=40, deadline=None)(example(size=600, palette=[1.0], distinct=True, seed=7)(test))


def symmetric(values: np.ndarray) -> np.ndarray:
    lower = np.tril_indices(len(values), -1)
    values[lower] = values.T[lower]  # assignment keeps -0.0, unlike adding
    return values


def strip_values(size, palette, distinct, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if distinct:
        return symmetric(rng.standard_normal((size, size)) * 10.0 ** rng.integers(-300, 300, (size, size)))
    palette = palette + [0.0, -0.0]  # equal as floats, different cells
    return symmetric(np.asarray(palette)[rng.integers(0, len(palette), (size, size))])


@strip_grams
def test_save_gram_matches_the_plain_row_formatter(tmp_path_factory, size, palette, distinct, seed):
    values = strip_values(size, palette, distinct, seed)
    gram = plain_gram(values)
    path = tmp_path_factory.mktemp("csv") / "g.csv"
    save_gram(gram, path)
    text, expected = path.read_text(), oracle_csv(gram.ids, values)
    # report the first differing offset instead of diffing two long strings
    same = text == expected
    assert same, next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b), len(expected))


@strip_grams
def test_load_gram_reads_back_the_bits_save_gram_wrote(tmp_path_factory, size, palette, distinct, seed):
    values = strip_values(size, palette, distinct, seed)
    path = tmp_path_factory.mktemp("csv") / "g.csv"
    save_gram(plain_gram(values), path)
    back = load_gram(path).values
    assert np.array_equal(back.view(np.int64), values.view(np.int64))  # -0.0 and 0.0 told apart


def test_load_gram_reads_distinct_rows_after_a_repetitive_strip_start(tmp_path):
    # row a has 3 distinct texts among 4 cells, so the strip goes through the text table;
    # the rows after it share almost no text, and 1, 1.0 and 1e0 are one value;
    # the blank lines between the rows are skipped
    rows = {
        "a": ["1", "1.0", "1e0", "1"],
        "b": ["1e0", "0.5", "-0", " 2.5"],
        "c": ["1.0", "-0", "0.25", "1_0"],
        "d": ["1", "2.5", "10", "4"],
    }
    path = tmp_path / "g.csv"
    path.write_text("id,a,b,c,d\n" + "\n".join(f"{k},{','.join(v)}\n" for k, v in rows.items()))
    back = load_gram(path).values
    expected = np.array([[float(text) for text in row] for row in rows.values()])
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))
    assert back[0].tolist() == [1.0] * 4 and np.signbit(back[1, 2]) and back[2, 3] == 10.0


def read_counting_table_conversions(path, monkeypatch) -> tuple[np.ndarray, list[str]]:
    """The values ``load_gram`` reads from ``path``, and each text it converted through a strip's table."""
    texts = []
    missing = gram_module._Parsed.__missing__

    def counted(table, text):
        texts.append(text)
        return missing(table, text)

    monkeypatch.setattr(gram_module._Parsed, "__missing__", counted)
    return load_gram(path).values, texts


def test_load_gram_converts_each_distinct_text_once_per_strip(tmp_path, monkeypatch):
    size, palette = 700, np.arange(19) / 7.0
    values = symmetric(palette[np.random.default_rng(3).integers(0, len(palette), (size, size))])
    path = tmp_path / "g.csv"
    save_gram(plain_gram(values), path)
    back, texts = read_counting_table_conversions(path, monkeypatch)
    assert np.array_equal(back, values)
    assert 0 < len(texts) <= len(gram_module._row_strips(size)) * len(palette), len(texts)


def test_load_gram_drops_a_strip_table_after_a_row_of_new_texts(tmp_path, monkeypatch):
    # each strip opens with a row of ones and goes on with distinct values
    size = 700
    values = symmetric(np.random.default_rng(4).standard_normal((size, size)))
    strips = gram_module._row_strips(size)
    for rows in strips:
        values[rows.start, :] = values[:, rows.start] = 1.0
    path = tmp_path / "g.csv"
    save_gram(plain_gram(values), path)
    back, texts = read_counting_table_conversions(path, monkeypatch)
    assert np.array_equal(back, values)
    # the opening row and the next one go through the table; the rest of the strip is parsed by row
    assert 0 < len(texts) <= len(strips) * (1 + size), len(texts)


def test_load_gram_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        load_gram(bad)
    bad.write_text("id,a,b\na,1.0\nb,0.0,1.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_gram(bad)
    bad.write_text("id,a,a\na,1.0,0.0\na,0.0,1.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: duplicate tree id 'a'$"):
        load_gram(bad)
    for text in (
        "id,a,b\nb,1.0,0.0\na,0.0,1.0\n",
        "id,a,b\na,1.0,0.0\n",
        "id,a\na,1.0\na,1.0\n",
    ):
        bad.write_text(text)
        with pytest.raises(ValueError, match="row ids"):
            load_gram(bad)
    bad.write_text("id,a,b\na,1.0,nan\nb,nan,1.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_gram(bad)
    for cell in ("abc", ""):
        bad.write_text(f"id,a,b\na,1.0,0.0\nb,{cell},1.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: row 'b': could not convert"):
            load_gram(bad)
        # the same cell in a strip whose first row sends it through the text table
        bad.write_text(f"id,a,b,c,d\na,1,1,1,1\nb,1,1,1,1\nc,{cell},1,1,1\nd,1,1,1,1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: row 'c': could not convert string to float: '{cell}'$"):
            load_gram(bad)
    bad.write_text("id,a,b,c,d\na,1,1,1,1\nb,1,1,1,1\nc,1,1,1,inf\nd,1,1,inf,1\n")
    with pytest.raises(ValueError, match=r"non-finite entry inf at \(c, d\)"):
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
    # counts and switches are never cast from strings, floats or booleans
    for name, params, match in [
        ("rootpath-node", {"use_attributes": "false"}, r"'use_attributes' must be a boolean, got 'false'"),
        ("rootpath-node", {"use_attributes": 1}, r"'use_attributes' must be a boolean, got 1"),
        ("rootpath-embedded", {"landmarks": 2.7}, r"'landmarks' must be an integer, got 2.7"),
        ("wl", {"iterations": "3"}, r"'iterations' must be an integer, got '3'"),
        ("aaw", {"component": True}, r"'component' must be an integer, got True"),
        # gaussian scales must be finite positive reals, never strings or booleans
        ("rootpath-node", {"lambda1": "0.5"}, r"lambda1 must be a finite positive number, got '0.5'"),
        ("rootpath-node", {"lambda1": True}, r"lambda1 must be a finite positive number, got True"),
        ("pointcloud", {"lambda2": math.inf}, r"lambda2 must be a finite positive number, got inf"),
        ("all-pairs-node", {"lambda2": math.nan}, r"lambda2 must be a finite positive number, got nan"),
        ("rootpath-embedded", {"lam": "x"}, r"lam must be a finite positive number, got 'x'"),
        ("rootpath-node", {"lambda2": 10**400}, r"lambda2 must be a finite positive number, got 10{400}$"),
        # counts must fit the signed 64-bit integers numpy indexes with
        ("rootpath-embedded", {"landmarks": 10**400}, r"'landmarks' must fit in a signed 64-bit integer"),
        ("agaw", {"gen_hi": 2**63}, r"kernel 'agaw' parameter 'gen_hi' must fit in a signed 64-bit integer"),
        ("wl", {"iterations": -(2**63) - 1}, r"'iterations' must fit in a signed 64-bit integer, got an integer of 64 bits"),
        ("wl", {"iterations": np.uint64(2**64 - 1)}, r"'iterations' must fit in a signed 64-bit integer"),
    ]:
        with pytest.raises(ValueError, match=match):
            build_kernel(name, **params)
    assert build_kernel("rootpath-embedded", landmarks=np.int64(3)).params["landmarks"] == 3
    assert build_kernel("agaw", gen_hi=2**63 - 1).params["gen_hi"] == 2**63 - 1
    scales = build_kernel("rootpath-node", lambda1=2, lambda2=np.float32(0.5)).params
    assert scales == {**scales, "lambda1": 2.0, "lambda2": 0.5}
    assert type(scales["lambda1"]) is float and type(scales["lambda2"]) is float


def test_numpy_scalar_scale_is_written_to_the_sidecar(tmp_path, rng):
    trees = make_trees(rng, count=5)
    path = tmp_path / "g.csv"
    save_gram(assemble(trees, build_kernel("rootpath-node", lambda1=np.float32(0.5))), path)
    back = load_gram(path)
    assert back.kernel_spec["params"]["lambda1"] == 0.5
    assert np.array_equal(back.values, assemble(trees, build_kernel("rootpath-node", lambda1=0.5)).values)


def test_readme_lists_every_kernel_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Kernel names", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(KERNEL_NAMES)
    assert len(listed) == len(set(listed))
    # the last column names exactly the parameters the kernel accepts
    rows = re.findall(r"^\| `([^`]+)` \|.*\| ([^|]*) \|$", section, flags=re.MULTILINE)
    assert len(rows) == len(listed)
    for name, params in rows:
        assert set(re.findall(r"`([^`]+)`", params)) == set(build_kernel(name).params), name


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


def test_gaussian_summaries_are_one_point_node_sets():
    for name in ("gbc", "aaw", "agaw"):
        assert isinstance(build_kernel(name).cohort, NodeSet)
    for name in ("aaw", "agaw"):
        with pytest.raises(ValueError, match="unknown form 'cubic'"):
            build_kernel(name, form="cubic")
    trees = [chain_tree(3, tree_id="a"), chain_tree(5, tree_id="b")]
    assert assemble(trees, build_kernel("gbc")).values[0, 1] == math.exp(-4.0)


# The linear kernels, whose cohort route is a feature map.
FEATURE_KERNELS = [
    ("lbc", {}),
    ("all-pairs-node", {"form": "linear", "use_attributes": True}),
    ("rootpath-embedded", {"landmarks": 3, "form": "linear"}),
    ("aaw", {"form": "linear"}),
    ("all-pairs-embedded", {"landmarks": 3, "form": "linear"}),
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
    assert isinstance(kernel.cohort, FeatureMap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agaw: generations missing from small trees
        gram = assemble(trees, kernel).values
        pairwise = np.array([[kernel.value(a, b) for b in trees] for a in trees])
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(gram, pairwise)
    if name == "rootpath-node-linear-fast":
        naive = assemble(trees, build_kernel("rootpath-node-naive", **kernel.params)).values
        scale = np.maximum(1.0, np.maximum(np.abs(gram), np.abs(naive)))
        assert (np.abs(gram - naive) <= 1e-9 * scale).all()


# Every catalogued kernel at its defaults, plus the node-path kernels on
# attributes; all of them on trees with one attribute.
ALL_KERNELS = [(name, {}) for name in KERNEL_NAMES] + [
    (name, {"use_attributes": True})
    for name in ("all-pairs-node", "rootpath-node-naive", "rootpath-node")
]


def reorder_input(tree: GeometricTree, order) -> GeometricTree:
    """The same tree built from its nodes in another input order, which
    reorders siblings in the canonical numbering."""
    new_index = {old: new for new, old in enumerate(order)}
    parents = [-1 if tree.parents[old] < 0 else new_index[int(tree.parents[old])] for old in order]
    attrs = None if tree.attributes is None else tree.attributes[order]
    return GeometricTree(tree.id, parents, tree.positions[order], attrs, n=tree.n, d=tree.d)


@st.composite
def reordered_tree_pairs(draw):
    pair = [draw(shaped_trees(tree_id, d=1)) for tree_id in ("a", "b")]
    return pair, [reorder_input(t, draw(st.permutations(range(t.size)))) for t in pair]


@pytest.mark.parametrize("name,params", ALL_KERNELS)
@settings(max_examples=15, deadline=None)
@given(case=reordered_tree_pairs())
def test_kernels_invariant_to_sibling_order(name, params, case):
    (a, b), (a2, b2) = case
    kernel = build_kernel(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agaw: generations missing from small trees
        before, after = kernel.value(a, b), kernel.value(a2, b2)
    assert rel_close(before, after, 1e-12), (before, after)


@st.composite
def shuffled_cohorts(draw):
    trees = [draw(shaped_trees(f"t{k}", d=1)) for k in range(draw(st.integers(2, 5)))]
    return trees, draw(st.permutations(range(len(trees))))


@pytest.mark.parametrize("name,params", ALL_KERNELS)
@settings(max_examples=10, deadline=None)
@given(case=shuffled_cohorts())
def test_gram_permutes_with_dataset_order(name, params, case):
    trees, order = case
    kernel = build_kernel(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gram = assemble(trees, kernel).values
        shuffled = assemble([trees[k] for k in order], kernel).values
    assert np.array_equal(shuffled, gram[np.ix_(order, order)])


# The kernels that left the pair loop or the gaussian feature rows for a
# cohort route (a node set, or for the linear kernels a feature map), at
# small landmark counts, and the gaussian node-path pair loops; the last
# agaw window is wider than 8 generations.
MOVED_KERNELS = [
    ("rootpath-node", {"form": form, "use_attributes": attributes})
    for form in ("linear", "gaussian")
    for attributes in (False, True)
] + [
    ("pointcloud", {}),
    ("rootpath-embedded", {"landmarks": 3}),
    ("rootpath-embedded", {"landmarks": 3, "form": "linear"}),
    ("all-pairs-embedded", {"landmarks": 3}),
    ("all-pairs-embedded", {"landmarks": 3, "form": "linear"}),
    ("rootpath-node-linear-fast", {"form": "linear", "use_attributes": False}),
    ("rootpath-node-linear-fast", {"form": "linear", "use_attributes": True}),
    ("all-pairs-node", {"form": "linear", "use_attributes": False}),
    ("all-pairs-node", {"form": "linear", "use_attributes": True}),
    ("gbc", {}),
    ("aaw", {}),
    ("agaw", {"gen_lo": 0, "gen_hi": 4}),
    ("agaw", {"gen_lo": 0, "gen_hi": 9}),
    ("all-pairs-node", {"use_attributes": True}),
    ("rootpath-node-naive", {"use_attributes": True}),
]


def summary_by_nodes(tree, name, params) -> list[float]:
    """The node count, the attribute mean, or the per-generation attribute
    means (0 for a missing generation), one node at a time."""
    if name == "gbc":
        return [float(tree.size)]
    values = [float(a[params.get("component", 0)]) for a in tree.attributes]
    if name == "aaw":
        return [sum(values) / len(values)]
    depths = []
    for v in range(tree.size):
        depth = 0
        while tree.parents[v] >= 0:
            v, depth = tree.parents[v], depth + 1
        depths.append(depth)
    means = []
    for gen in range(params["gen_lo"], params["gen_hi"] + 1):
        picked = [x for x, depth in zip(values, depths) if depth == gen]
        means.append(sum(picked) / len(picked) if picked else 0.0)
    return means


def gaussian_of_summaries(t1, t2, name, params) -> float:
    m1, m2 = summary_by_nodes(t1, name, params), summary_by_nodes(t2, name, params)
    return math.exp(-sum((a - b) ** 2 for a, b in zip(m1, m2)))


def pointcloud_by_edge_pairs(t1, t2) -> float:
    total = 0.0
    for i in range(1, t1.size):
        for j in range(1, t2.size):
            dx = t1.positions[i] - t2.positions[j]
            da = t1.attributes[i] - t2.attributes[j]
            total += math.exp(-(dx @ dx) / t1.n) * math.exp(-(da @ da) / t1.d)
    return total


def all_pairs_embedded_by_enumeration(t1, t2, spec) -> float:
    def paths(tree):
        return [sample_embedded_path(tree, i, j, spec.landmarks) for i in range(tree.size) for j in range(tree.size)]

    return sum(landmark_path_kernel(p, q, spec, t1.n) for p in paths(t1) for q in paths(t2))


def all_pairs_node_by_enumeration(t1, t2, spec) -> float:
    def paths(tree):
        return [tree.node_path(i, j) for i in range(tree.size) for j in range(tree.size)]

    return sum(node_path_kernel(p, q, spec) for p in paths(t1) for q in paths(t2))


def literal_oracle(name, params):
    """The kernel as a literal sum over path or edge pairs, or a gaussian of
    tree summaries."""
    if name in ("gbc", "aaw", "agaw"):
        return partial(gaussian_of_summaries, name=name, params=params)
    if name.startswith("rootpath-node"):
        return build_kernel("rootpath-node-naive", **params).value
    if name == "all-pairs-node":
        return partial(all_pairs_node_by_enumeration, spec=NodeKernelSpec(**params))
    if name == "pointcloud":
        return pointcloud_by_edge_pairs
    spec = PathKernelSpec(representation="embedded_landmarks", **params)
    if name == "rootpath-embedded":
        return partial(rootpath_kernel_naive, spec=spec)
    return partial(all_pairs_embedded_by_enumeration, spec=spec)


def assert_matches_oracle(name, params, trees, gram, floor=1.0):
    """Every entry within 1e-9 of the oracle, relative to the larger
    magnitude or ``floor``, whichever is larger."""
    oracle = literal_oracle(name, params)
    expected = np.array([[oracle(a, b) for b in trees] for a in trees])
    scale = np.maximum(floor, np.maximum(np.abs(gram), np.abs(expected)))
    assert (np.abs(gram - expected) <= 1e-9 * scale).all(), np.abs(gram - expected).max()


@st.composite
def mixed_cohorts(draw):
    return [draw(shaped_trees(f"t{k}", d=1)) for k in range(draw(st.integers(1, 4)))]


@pytest.mark.parametrize("name,params", MOVED_KERNELS)
@settings(max_examples=10, deadline=None)
@given(trees=mixed_cohorts())
def test_cohort_route_matches_oracle_pairs_and_any_block(name, params, trees):
    kernel = build_kernel(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pointcloud: no edges; agaw: missing generations
        gram = assemble(trees, kernel).values
        pairs = np.array([[kernel.value(a, b) for b in trees] for a in trees])
        if isinstance(kernel.cohort, NodeSet):
            sets = kernel.cohort.inputs(trees)
            order = sorted(range(len(trees)), key=lambda k: (trees[k].id, trees[k].fingerprint))
            for block in (1, 64, 1 << 40):
                assert np.array_equal(nodeset_gram(sets, block, order), gram)
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(gram, pairs)
    assert_matches_oracle(name, params, trees, gram)


@pytest.mark.parametrize("iterations", [0, 1, 10, 2**62])
@settings(max_examples=10, deadline=None)
@given(trees=mixed_cohorts())
def test_wl_gram_equals_its_pair_values(iterations, trees):
    # the matrix stops refining when the whole cohort settles, a single pair
    # when its two trees do; every entry is the same either way
    kernel = build_kernel("wl", iterations=iterations)
    gram = assemble(trees, kernel).values
    assert np.array_equal(gram, [[kernel.value(a, b) for b in trees] for a in trees])


@pytest.mark.parametrize("block", [1, 20, 64])
def test_wl_gram_does_not_depend_on_its_column_blocks(rng, monkeypatch, block):
    # eight trees, so 1, 2 or 8 label columns per block against the default's all in one
    trees = make_trees(rng, count=8, max_nodes=15)
    whole = assemble(trees, build_kernel("wl")).values
    monkeypatch.setattr(_Refinement, "_block", block)
    assert np.array_equal(assemble(trees, build_kernel("wl")).values, whole)


def offset_tree(tree: GeometricTree, offset: float) -> GeometricTree:
    return GeometricTree(tree.id, tree.parents, tree.positions + offset, tree.attributes, n=tree.n, d=tree.d)


@pytest.mark.parametrize(
    "name,params", [(name, params) for name, params in MOVED_KERNELS if params.get("form") != "linear"]
)
def test_gaussian_node_sets_hold_far_from_the_origin(rng, name, params):
    # squared distances through |a|^2 + |b|^2 - 2ab would lose about 1e-8 here
    trees = [offset_tree(random_tree(rng, 6, n=3, d=1, tree_id=f"f{k}"), 1e4) for k in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gram = assemble(trees, build_kernel(name, **params)).values
    assert_matches_oracle(name, params, trees, gram, floor=0.0)


def test_linear_rootpath_kernel_has_one_route(rng):
    # mixed heights: single nodes, chains, a star and random trees
    trees = make_trees(rng, count=6, max_nodes=30) + [
        chain_tree(1, n=3, d=1, tree_id="single"),
        chain_tree(12, n=3, d=1, tree_id="chain"),
        star_tree(7, n=3, d=1, tree_id="star"),
    ]
    for attributes in (False, True):
        named = assemble(trees, build_kernel("rootpath-node", form="linear", use_attributes=attributes))
        fast = assemble(trees, build_kernel("rootpath-node-linear-fast", use_attributes=attributes))
        assert np.array_equal(named.values, fast.values)


def test_linear_rootpath_rows_are_not_padded_to_the_tallest_tree(rng):
    # padding each row to the chain's 200^2 * 3 floats would take 96 MB
    trees = make_trees(rng, count=100, max_nodes=15) + [chain_tree(200, n=3, d=1, tree_id="chain")]
    kernel = build_kernel("rootpath-node-linear-fast")
    tracemalloc.start()
    try:
        assemble(trees, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


def test_assembly_computes_no_fingerprint(rng, monkeypatch):
    def fingerprint(tree):
        raise AssertionError(f"fingerprint of tree '{tree.id}' computed")

    monkeypatch.setattr(GeometricTree, "fingerprint", property(fingerprint))
    trees = make_trees(rng, count=4, max_nodes=8)
    for name, params in ALL_KERNELS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # agaw: generations missing from small trees
            assemble(trees, build_kernel(name, **params))


@pytest.mark.parametrize("name,params", kernel_cases())
def test_trees_that_share_an_id_pair_in_either_order(name, params):
    # two trees of one id are ordered by fingerprint; about 0.25 s for all cases
    a, b = recursive_tree(12, 1, "same"), recursive_tree(12, 2, "same")
    assert a.fingerprint != b.fingerprint
    kernel = build_kernel(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agaw: generations missing from small trees
        assert kernel.value(a, b) == kernel.value(b, a)


# What a tree holds: the constructor's attributes, then its fingerprint; its
# structure tables are computed when read and not kept.
TREE_ATTRIBUTES = {"id", "n", "d", "parents", "positions", "attributes", "node_levels", "fingerprint"}


@pytest.mark.parametrize("name,params", ALL_KERNELS + MOVED_KERNELS + FEATURE_KERNELS)
def test_a_tree_holds_no_kernel_input(rng, name, params):
    trees = make_trees(rng, count=4, max_nodes=8)
    kernel = build_kernel(name, **params)
    assert isinstance(kernel.cohort, (FeatureMap, NodeSet, PairLoop, _Refinement))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pointcloud: no edges; agaw: missing generations
        assemble(trees, kernel)
        kernel.value(trees[0], trees[1])
        kernel.value(trees[2], trees[2])
    for tree in trees:
        assert set(vars(tree)) <= TREE_ATTRIBUTES, sorted(set(vars(tree)) - TREE_ATTRIBUTES)


@pytest.mark.parametrize(
    "name,params,max_nodes",
    [("all-pairs-embedded", {"landmarks": 5, "form": "linear"}, 15), ("all-pairs-node", {"form": "linear"}, 30)],
)
def test_linear_all_pairs_assembly_retains_rows_not_stacks_or_count_tables(rng, name, params, max_nodes):
    # a tree's landmark stack (|V|^2 rows) or path count table is about 10 to
    # 100 times its feature row here; the allowance per tree covers the
    # interpreter's free lists (up to 2000 tuples of a size)
    trees = make_trees(rng, count=100, max_nodes=max_nodes)
    kernel = build_kernel(name, **params)
    assemble(make_trees(rng, count=10, max_nodes=max_nodes), kernel)  # first-call imports stay out
    tracemalloc.start()
    try:
        assemble(trees, kernel)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = sum(row.nbytes for row in kernel.cohort.inputs(trees))
    assert retained <= 2 * rows + 2000 * len(trees), (retained, rows)
