"""Synthetic generator: determinism, shape statistics, presets, and labels."""

import math
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from treekern import (
    GeneratorConfig,
    GeometricTree,
    balanced_binary_tree,
    generate_tree,
    generate_two_class_population,
    load_labels,
    preset_configs,
    save_labels,
    serialize_tree,
)
from treekern import generate
from treekern.generate import PRESET_NAMES, _rng, generate_trees, two_class_plan


def test_generate_tree_is_deterministic():
    cfg = GeneratorConfig(seed=9, n=3, d=1)
    a = generate_tree(cfg, seed_offset=4)
    b = generate_tree(cfg, seed_offset=4)
    assert serialize_tree(a) == serialize_tree(b)
    c = generate_tree(cfg, seed_offset=5)
    assert c.fingerprint != a.fingerprint
    other_seed = generate_tree(GeneratorConfig(seed=10, n=3, d=1), seed_offset=4)
    assert other_seed.fingerprint != a.fingerprint


def test_generate_tree_respects_dimensions():
    cfg = GeneratorConfig(seed=0, n=2, d=3, max_depth=4)
    t = generate_tree(cfg)
    assert t.n == 2 and t.d == 3
    assert t.positions.shape == (t.size, 2)
    assert t.attributes.shape == (t.size, 3)
    assert t.height <= 4
    bare = generate_tree(GeneratorConfig(seed=0, n=2, d=0, max_depth=4))
    assert bare.attributes is None
    assert bare.id == "t00000"


def tilted_reference(rng, direction, max_angle, flat_norm):
    """The generator's tilt step on numpy vectors: g and the angle are drawn
    for every child, and a g whose part orthogonal to ``direction`` has a
    norm of at most ``flat_norm`` keeps ``direction``."""
    n = len(direction)
    if n == 1 or max_angle == 0.0:
        return direction.copy()
    g = rng.standard_normal(n)
    theta = max_angle * rng.random()
    g -= np.dot(g, direction) * direction
    norm = float(np.sqrt((g * g).sum()))
    if norm <= flat_norm:
        return direction.copy()
    return np.cos(theta) * direction + np.sin(theta) * (g / norm)


def generate_tree_reference(cfg, seed_offset, flat_norm=1e-12):
    """One tree grown node by node on numpy vectors, each node's draws
    followed at once by its geometry: the stream ``generate_trees`` keeps."""
    rng = _rng(cfg.seed, seed_offset)
    root_dir = np.zeros(cfg.n)
    root_dir[0] = 1.0
    parents, positions, attrs = [], [], []
    queue = deque([(-1, 1, np.zeros(cfg.n), root_dir)])
    while queue:
        parent, level, pos, direction = queue.popleft()
        if cfg.d > 0:
            noise = rng.normal(0.0, cfg.attr_noise_sd, size=cfg.d) if cfg.attr_noise_sd > 0 else np.zeros(cfg.d)
            attrs.append(cfg.attr_base + cfg.attr_depth_slope * (level - 1) + noise)
        index = len(parents)
        parents.append(parent)
        positions.append(pos)
        if level >= cfg.max_depth or rng.random() < cfg.p_stop:
            continue
        n_children = 2 if rng.random() < cfg.p_branch else 1
        length = cfg.edge_length_decay ** (level - 1)
        for _ in range(n_children):
            child_dir = tilted_reference(rng, direction, cfg.direction_jitter, flat_norm)
            queue.append((index, level + 1, pos + length * child_dir, child_dir))
    return GeometricTree(
        f"t{seed_offset:05d}", parents, positions, attrs if cfg.d > 0 else None, n=cfg.n, d=cfg.d
    )


ORACLE_SHAPES = [
    *(pytest.param(name, seed, {}, id=f"{name}-{seed}") for name in PRESET_NAMES for seed in (0, 1)),
    *(pytest.param("null", 0, {"n": n, "d": d}, id=f"n{n}-d{d}") for n in (1, 2, 8, 9) for d in (0, 2)),
    *(pytest.param("branch-shift", 2, {key: value}, id=f"{key}-{value}")
      for key, value in [("max_depth", 1), ("p_stop", 1.0), ("direction_jitter", 0.0), ("attr_noise_sd", 0.0)]),
]


@pytest.mark.parametrize("preset, seed, overrides", ORACLE_SHAPES)
def test_generate_tree_matches_the_numpy_vector_loop(preset, seed, overrides):
    # numpy sums 8 or more squares pairwise and np.dot runs in BLAS, so
    # n = 8 and 9 catch a sum or a dot product taken in plain Python or as
    # a vectorized product-sum
    configs = [replace(cfg, **overrides) for cfg in preset_configs(preset, seed)]
    steps = [(configs[offset % 2], offset) for offset in range(40)]
    expected = [serialize_tree(generate_tree_reference(cfg, offset)) for cfg, offset in steps]
    assert [serialize_tree(generate_tree(cfg, offset)) for cfg, offset in steps] == expected
    # one chunk of both classes, its levels laid out together
    assert [serialize_tree(tree) for tree in generate_trees(steps)] == expected


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_flat_tilts_keep_the_parent_direction(preset, monkeypatch):
    # at this bound about one 3-D tilt in eight is flat
    configs = preset_configs(preset, 4)
    steps = [(configs[offset % 2], offset) for offset in range(30)]
    unforced = [serialize_tree(tree) for tree in generate_trees(steps)]
    monkeypatch.setattr(generate, "_FLAT_NORM", 0.5)
    expected = [serialize_tree(generate_tree_reference(cfg, offset, flat_norm=0.5)) for cfg, offset in steps]
    grown = [serialize_tree(tree) for tree in generate_trees(steps)]
    assert grown == expected
    assert sum(a != b for a, b in zip(grown, unforced)) > 20


class AxisDraws:
    """A tree's generator whose tilt vectors lie on the root's axis, after
    the same draws as the real one."""

    def __init__(self, rng):
        self.random, self.normal, self.draw = rng.random, rng.normal, rng.standard_normal

    def standard_normal(self, n):
        self.draw(n)
        return np.eye(n)[0]


@pytest.mark.parametrize("flat", ["infinite-bound", "zero-norm"])
def test_when_every_tilt_is_flat_every_node_lies_on_the_root_axis(monkeypatch, flat):
    # each child's draws are still made, so the shapes stay; attr-shift trees
    # never stop before their depth cap. A zero norm divides nothing by zero.
    steps = [(cfg, offset) for offset, cfg in enumerate(preset_configs("attr-shift", 1))]
    unforced = generate_trees(steps)
    if flat == "infinite-bound":
        monkeypatch.setattr(generate, "_FLAT_NORM", math.inf)
    else:
        monkeypatch.setattr(generate, "_rng", lambda seed, offset: AxisDraws(_rng(seed, offset)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grown = generate_trees(steps)
    for tree, straight in zip(unforced, grown):
        assert straight.size > 1
        assert np.array_equal(straight.parents, tree.parents)
        assert not straight.positions[:, 1:].any()
        assert np.all(straight.positions[1:, 0] > 0)


def test_attribute_depth_model():
    # with zero noise, attributes are exactly base + slope * depth
    cfg = GeneratorConfig(
        seed=3, n=2, d=1, attr_base=10.0, attr_depth_slope=2.0, attr_noise_sd=0.0, max_depth=5
    )
    t = generate_tree(cfg)
    depths = t.node_levels - 1
    assert np.allclose(t.attributes[:, 0], 10.0 + 2.0 * depths)


def test_config_validation():
    with pytest.raises(ValueError, match="p_branch"):
        GeneratorConfig(p_branch=1.5)
    with pytest.raises(ValueError, match="max_depth"):
        GeneratorConfig(max_depth=0)
    with pytest.raises(ValueError, match="seed"):
        GeneratorConfig(seed=-1)
    for field, value, message in [("n", 0, "n must be >= 1"), ("d", -1, "d must be >= 0"),
                                  ("edge_length_decay", 0.0, "edge_length_decay must be positive"),
                                  ("direction_jitter", -0.1, "direction_jitter must be >= 0"),
                                  ("attr_noise_sd", -1.0, "attr_noise_sd must be >= 0")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorConfig(**{field: value})
    with pytest.raises(ValueError, match="non-negative"):
        generate_tree(GeneratorConfig(), seed_offset=-1)
    # integer fields take integers and the rest finite numbers, never booleans or strings
    for field, value in [("n", 2.0), ("d", True), ("max_depth", 7.5), ("seed", "1"), ("p_branch", True),
                         ("p_stop", "0.1"), ("attr_base", math.inf), ("direction_jitter", None)]:
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|finite number), got"):
            GeneratorConfig(**{field: value})
    assert GeneratorConfig(n=np.int64(2), p_branch=1, max_depth=7).max_depth == 7


def test_population_layout():
    cfg = GeneratorConfig(seed=1, max_depth=5)
    trees, labels = generate_two_class_population(cfg, cfg, 3, 4)
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert [t.id for t in trees] == [f"t{k:05d}" for k in range(7)]
    assert len({t.fingerprint for t in trees}) == 7  # disjoint offset streams
    other = replace(cfg, p_branch=0.9)
    assert two_class_plan(cfg, other, 2, 1) == [(cfg, 0, 0), (cfg, 1, 0), (other, 2, 1)]
    with pytest.raises(ValueError, match="class sizes"):
        generate_two_class_population(cfg, cfg, 0, 4)
    with pytest.raises(ValueError, match="share n and d"):
        generate_two_class_population(cfg, GeneratorConfig(seed=1, n=2), 2, 2)
    for steps in ([], [(cfg, 0), (replace(cfg, n=2), 1)]):
        with pytest.raises(ValueError, match="^steps must be given, all of one n$"):
            generate_trees(steps)


def test_default_population_size_band():
    # the default config produces working-size trees, not degenerate ones
    cfg = GeneratorConfig(seed=0)
    sizes = [generate_tree(cfg, k).size for k in range(60)]
    assert 30 <= np.mean(sizes) <= 650


def test_balanced_binary_tree():
    t = balanced_binary_tree(7, seed=2)
    assert t.size == 7
    assert t.parents.tolist() == [-1, 0, 0, 1, 1, 2, 2]
    assert t.height == 3
    assert balanced_binary_tree(12).size == 12
    # deterministic geometry
    assert balanced_binary_tree(7, seed=2).fingerprint == t.fingerprint
    with pytest.raises(ValueError, match="n_nodes"):
        balanced_binary_tree(0)


def test_preset_names_and_errors():
    assert PRESET_NAMES == ("null", "branch-shift", "attr-shift")
    for name in PRESET_NAMES:
        cfg_a, cfg_b = preset_configs(name, seed=5)
        assert cfg_a.seed == 5 and cfg_b.seed == 5
        assert (cfg_a.n, cfg_a.d) == (cfg_b.n, cfg_b.d)
    with pytest.raises(ValueError, match="preset"):
        preset_configs("bogus", seed=0)


def test_null_preset_classes_match():
    cfg_a, cfg_b = preset_configs("null", seed=2)
    assert cfg_a == cfg_b


def test_branch_shift_separates_sizes():
    cfg_a, cfg_b = preset_configs("branch-shift", seed=3)
    trees, labels = generate_two_class_population(cfg_a, cfg_b, 30, 30)
    sizes = np.array([t.size for t in trees])
    assert sizes[labels == 0].max() < sizes[labels == 1].min()


def test_attr_shift_matches_means_but_not_depth_profiles():
    cfg_a, cfg_b = preset_configs("attr-shift", seed=11)
    trees, labels = generate_two_class_population(cfg_a, cfg_b, 60, 60)
    all_attrs = {
        lab: np.concatenate([t.attributes[:, 0] for t, l in zip(trees, labels) if l == lab])
        for lab in (0, 1)
    }
    # overall attribute means stay close (the slope shift is compensated) ...
    assert abs(all_attrs[0].mean() - all_attrs[1].mean()) < 0.5
    # ... but root attributes separate clearly
    roots = {
        lab: np.array([t.attributes[0, 0] for t, l in zip(trees, labels) if l == lab])
        for lab in (0, 1)
    }
    assert abs(roots[0].mean() - roots[1].mean()) > 2.0


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    save_labels(["a", "b", "c"], [0, 1, 1], path)
    assert load_labels(path) == {"a": 0, "b": 1, "c": 1}
    with pytest.raises(ValueError, match="length"):
        save_labels(["a"], [0, 1], path)

    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        load_labels(bad)
    bad.write_text("tree_id,label\na,2\n")
    with pytest.raises(ValueError, match="0 or 1"):
        load_labels(bad)
    bad.write_text("tree_id,label\na,0\na,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv: duplicate tree id 'a'$"):
        load_labels(bad)
    bad.write_text("tree_id,label\n\n")
    with pytest.raises(ValueError, match=r"bad\.csv: no labels$"):
        load_labels(bad)
    # blank lines are skipped
    path.write_text("tree_id,label\n\na,1\n\nb,0\n\n")
    assert load_labels(path) == {"a": 1, "b": 0}


@pytest.mark.parametrize(
    "ids,labels,message",
    [
        (["a,b", "c"], [0, 1], r"tree id 'a,b' cannot be written to CSV"),
        (["a", 'b"c'], [0, 1], r"tree id 'b\"c' cannot be written to CSV"),
        (["a\nb"], [0], r"tree id 'a\\nb' cannot be written to CSV"),
        (["a\rb"], [0], r"tree id 'a\\rb' cannot be written to CSV"),
        (["a\x85b"], [0], r"tree id 'a\\x85b' cannot be written to CSV"),
        (["a", "b", "a"], [0, 1, 1], r"duplicate tree id 'a'"),
        (["a", "b"], [0, 2], r"label for 'b' must be 0 or 1, got 2"),
        ([], [], r"no labels"),
    ],
)
def test_save_labels_refuses_what_load_labels_cannot_read_back(tmp_path, ids, labels, message):
    path = tmp_path / "labels.csv"
    with pytest.raises(ValueError, match=message):
        save_labels(ids, labels, path)
    assert not path.exists()


def test_save_labels_round_trips_any_id_it_writes(tmp_path):
    path = tmp_path / "labels.csv"
    ids = ["", " a ", "b;c", "é", "t'0", "x\ty"]
    labels = [1, 0, True, 0, 1, np.int64(0)]
    save_labels(ids, labels, path)
    assert load_labels(path) == {tree_id: int(label) for tree_id, label in zip(ids, labels)}
