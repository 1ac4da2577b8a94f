"""Seeded synthetic tree generator and two-class population presets.

Trees grow as a branching process: each node terminates with probability
``p_stop``, otherwise spawns two children with probability ``p_branch`` and
one child otherwise, up to ``max_depth`` levels. Children extend the parent's
growth direction, tilted by a random angle of at most ``direction_jitter``
radians, with edge lengths shrinking geometrically per level. Attributes
follow a linear-in-depth model with gaussian noise.

All randomness comes from a counter-based generator keyed by
(config seed, tree offset), so datasets are reproducible byte for byte. No
tree's draws depend on another tree's, so trees may be grown in any order,
in any process and in any company: ``treekern gen`` grows chunks of the
steps of :func:`two_class_plan` in forked workers and writes the same bytes
as :func:`generate_two_class_population`. :func:`generate_trees` grows a
list of steps in two passes. Pass 1 makes each tree's draws in stream
order: per node, breadth first, the attribute noise, the stop and branch
draws, then each child's tilt vector and angle draw. Pass 2 computes all
the trees' geometry a level at a time, with the rounding of one tree
grown node by node. A child whose tilt vector's part orthogonal to the
parent direction has a norm of at most ``_FLAT_NORM`` has no plane to tilt
in and keeps its parent's direction; its draws are made all the same, so
pass 1 is each tree's whole stream. The label file that
``treekern gen`` writes beside the trees has its format in
:mod:`treekern.gram`, with the Gram CSV's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .trees import GeometricTree

__all__ = [
    "GeneratorConfig",
    "generate_tree",
    "generate_trees",
    "two_class_plan",
    "generate_two_class_population",
    "balanced_binary_tree",
    "preset_configs",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n: int = 3
    d: int = 1
    p_branch: float = 0.35
    p_stop: float = 0.1
    max_depth: int = 12
    edge_length_decay: float = 0.8
    direction_jitter: float = 0.5
    attr_base: float = 50.0
    attr_depth_slope: float = 0.0
    attr_noise_sd: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # annotations are strings: "int" or "float"
            value, integral = getattr(self, f.name), f.type == "int"
            kind = (int, np.integer) if integral else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not (integral or math.isfinite(value)):
                raise ValueError(f"{f.name} must be {'an integer' if integral else 'a finite number'}, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        for name in ("p_branch", "p_stop"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.edge_length_decay > 0:
            raise ValueError("edge_length_decay must be positive")
        if self.direction_jitter < 0:
            raise ValueError("direction_jitter must be >= 0")
        if self.attr_noise_sd < 0:
            raise ValueError("attr_noise_sd must be >= 0")


def _rng(seed: int, offset: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, offset])))


# The norm of a tilt vector's orthogonal part at or below which the child
# keeps its parent's direction: a gaussian tilt vector lands that close to
# the parent's line with probability below 1e-12 (at n = 2, the worst case).
_FLAT_NORM = 1e-12


def _draw(cfg: GeneratorConfig, offset: int) -> tuple:
    """Pass 1: a tree's breadth-first parents and levels, its noise rows, and
    each child's tilt vector and uniform draw. No geometry, no scalar numpy call."""
    rng = _rng(cfg.seed, offset)
    random, standard_normal, zeros = rng.random, rng.standard_normal, np.zeros(cfg.d)
    n, d, sd, max_depth, p_stop, p_branch = cfg.n, cfg.d, cfg.attr_noise_sd, cfg.max_depth, cfg.p_stop, cfg.p_branch
    tilts = n > 1 and cfg.direction_jitter != 0.0
    parents, levels, noise, gs, us = [-1], [1], [], [], []
    for v, level in enumerate(levels):  # visits the children appended below too
        if d > 0:
            noise.append(rng.normal(0.0, sd, size=d) if sd > 0 else zeros)
        if level >= max_depth or random() < p_stop:
            continue
        for _ in range(2 if random() < p_branch else 1):
            if tilts:
                gs.append(standard_normal(n))
                us.append(random())
            parents.append(v)
            levels.append(level + 1)
    return parents, levels, noise, gs, us


def _place(cfgs: list, drawn: list) -> list:
    """Pass 2: each tree's positions, laid out a level at a time across all
    the trees. ``np.matmul`` of stacked vectors takes each product with
    ``np.dot``'s BLAS routine, and the sums of squares, cosines and sines
    are the scalar calls' ufunc loops, so each tree rounds as when grown
    alone; a flat tilt selects its parent's direction."""
    n = cfgs[0].n
    sizes = [len(parents) for parents, *_ in drawn]
    starts = np.cumsum([0, *sizes])
    tree_of = np.repeat(np.arange(len(drawn)), sizes)
    levels = np.concatenate([lv for _, lv, *_ in drawn])
    parents = np.concatenate([np.add(p, start) for (p, *_), start in zip(drawn, starts)])
    g, angle, tilts = np.zeros((len(levels), n)), np.zeros(len(levels)), np.zeros(len(levels), dtype=bool)
    for (*_, gs, us), start, end in zip(drawn, starts, starts[1:]):
        if gs:  # a tilting tree: every node but the root, in draw order
            g[start + 1 : end], angle[start + 1 : end], tilts[start + 1 : end] = gs, us, True
    angle *= np.array([cfg.direction_jitter for cfg in cfgs], dtype=float)[tree_of]
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(1, levels.max() + 1), side="right")
    positions, directions = np.zeros((2, len(levels), n))
    directions[:, 0] = 1.0
    for level in range(2, len(bounds) + 1):
        kids = order[bounds[level - 2] : bounds[level - 1]]
        bent = kids[tilts[kids]]
        if len(bent):
            d, gb = directions[parents[bent]], g[bent]
            ortho = gb - np.matmul(gb[:, None, :], d[:, :, None])[:, 0] * d
            norm = np.sqrt(np.add.reduce(ortho * ortho, axis=1))
            flat = norm <= _FLAT_NORM
            norm[flat] = 1.0  # a flat row's quotient is not kept: no division by zero
            theta = angle[bent]
            tilted = np.cos(theta)[:, None] * d + np.sin(theta)[:, None] * (ortho / norm[:, None])
            directions[bent] = np.where(flat[:, None], d, tilted)
        length = np.array([cfg.edge_length_decay ** (level - 2) for cfg in cfgs])[tree_of[kids]]
        positions[kids] = positions[parents[kids]] + length[:, None] * directions[kids]
    return np.split(positions, starts[1:-1])


def generate_trees(steps: list) -> list[GeometricTree]:
    """The trees of plan steps (config, seed offset, ...) of one n, each
    named ``t<offset>`` and the same bytes whichever steps it grows with."""
    cfgs = [cfg for cfg, *_ in steps]
    if len({cfg.n for cfg in cfgs}) != 1:
        raise ValueError("steps must be given, all of one n")
    if any(offset < 0 for _, offset, *_ in steps):
        raise ValueError("seed_offset must be non-negative")
    drawn = [_draw(cfg, offset) for cfg, offset, *_ in steps]
    trees = []
    for (cfg, offset, *_), (parents, levels, noise, _, _), xs in zip(steps, drawn, _place(cfgs, drawn)):
        level_values = [cfg.attr_base + cfg.attr_depth_slope * (level - 1) for level in levels]
        attrs = np.array(level_values, dtype=float)[:, None] + noise if cfg.d > 0 else None
        trees.append(GeometricTree(f"t{offset:05d}", parents, xs, attrs, n=cfg.n, d=cfg.d))
    return trees


def generate_tree(cfg: GeneratorConfig, seed_offset: int = 0) -> GeometricTree:
    """Grow one tree, fully determined by (cfg.seed, seed_offset)."""
    return generate_trees([(cfg, seed_offset)])[0]


def two_class_plan(cfg_a: GeneratorConfig, cfg_b: GeneratorConfig, size_a: int, size_b: int) -> list[tuple]:
    """(config, seed offset, label) of each tree of a two-class population,
    in file order: ``size_a`` trees from ``cfg_a`` (label 0), then ``size_b``
    trees from ``cfg_b`` (label 1). Class B trees use seed offsets after
    class A's, so identical configs yield two disjoint samples from one
    distribution (the null fixture)."""
    if size_a < 1 or size_b < 1:
        raise ValueError("both class sizes must be >= 1")
    if (cfg_a.n, cfg_a.d) != (cfg_b.n, cfg_b.d):
        raise ValueError("class configs must share n and d")
    return [(cfg_a, k, 0) for k in range(size_a)] + [(cfg_b, k, 1) for k in range(size_a, size_a + size_b)]


def generate_two_class_population(
    cfg_a: GeneratorConfig, cfg_b: GeneratorConfig, size_a: int, size_b: int
) -> tuple[list[GeometricTree], np.ndarray]:
    """The trees of :func:`two_class_plan` and their labels."""
    plan = two_class_plan(cfg_a, cfg_b, size_a, size_b)
    return generate_trees(plan), np.array([label for *_, label in plan])


def balanced_binary_tree(n_nodes: int, n: int = 3, d: int = 1, seed: int = 0) -> GeometricTree:
    """Complete binary tree with exactly ``n_nodes`` nodes (heap layout) and
    seeded random geometry; used by the scaling benchmark."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = _rng(seed, n_nodes)
    positions = rng.standard_normal((n_nodes, n))
    attrs = rng.standard_normal((n_nodes, d)) if d > 0 else None
    parents = (np.arange(n_nodes) - 1) // 2  # heap layout; the root's is -1
    return GeometricTree(f"balanced{n_nodes:05d}-{seed}", parents, positions, attrs, n=n, d=d)


# -- presets -----------------------------------------------------------------------

PRESET_NAMES = ("null", "branch-shift", "attr-shift")

# Desk-scale base shape shared by the presets: trees of a few dozen nodes.
_BASE = GeneratorConfig(
    n=3,
    d=1,
    p_branch=0.3,
    p_stop=0.1,
    max_depth=8,
    edge_length_decay=0.8,
    direction_jitter=0.5,
    attr_base=50.0,
    attr_depth_slope=0.0,
    attr_noise_sd=1.0,
)

# attr-shift: class B tilts the attribute-versus-depth slope while the base
# level is lowered so the tree-wide attribute mean stays put, leaving only
# depth-localized signal.  Both classes grow every branch to the depth cap
# (p_stop=0) so single-node degenerates cannot occur and the per-tree mean
# depth stays tight around _ATTR_MEAN_DEPTH, which was measured empirically
# on the shared shape (300 trees, 4.104).
_ATTR_SLOPE_SHIFT = 1.0
_ATTR_MEAN_DEPTH = 4.1


def preset_configs(name: str, seed: int) -> tuple[GeneratorConfig, GeneratorConfig]:
    """Configs (class A, class B) for a named two-class preset."""
    if name == "null":
        cfg = replace(_BASE, seed=seed)
        return cfg, cfg
    if name == "branch-shift":
        cfg_a = replace(_BASE, seed=seed, p_branch=0.05, p_stop=0.15, max_depth=6)
        cfg_b = replace(_BASE, seed=seed, p_branch=0.95, p_stop=0.0, max_depth=6)
        return cfg_a, cfg_b
    if name == "attr-shift":
        shape = replace(_BASE, seed=seed, p_branch=0.35, p_stop=0.0, max_depth=7)
        cfg_b = replace(
            shape,
            attr_depth_slope=shape.attr_depth_slope + _ATTR_SLOPE_SHIFT,
            attr_base=shape.attr_base - _ATTR_SLOPE_SHIFT * _ATTR_MEAN_DEPTH,
        )
        return shape, cfg_b
    raise ValueError(f"unknown preset '{name}'")
