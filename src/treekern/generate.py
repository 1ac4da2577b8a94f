"""Seeded synthetic tree generator and two-class population presets.

Trees grow as a branching process: each node terminates with probability
``p_stop``, otherwise spawns two children with probability ``p_branch`` and
one child otherwise, up to ``max_depth`` levels. Children extend the parent's
growth direction, tilted by a random angle of at most ``direction_jitter``
radians, with edge lengths shrinking geometrically per level. Attributes
follow a linear-in-depth model with gaussian noise.

All randomness comes from a counter-based generator keyed by
(config seed, tree offset), so datasets are reproducible byte for byte. No
tree's draws depend on another tree's, so trees may be grown in any order and
in any process: ``treekern gen`` grows chunks of offsets in forked workers and
writes the same bytes as :func:`generate_two_class_population`. The label
file that ``treekern gen`` writes beside the trees has its format in
:mod:`treekern.gram`, with the Gram CSV's.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, fields, replace

import numpy as np

from .trees import GeometricTree

__all__ = [
    "GeneratorConfig",
    "generate_tree",
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


def _tilted(rng: np.random.Generator, direction: tuple, max_angle: float) -> tuple:
    """Unit vector at a random angle up to ``max_angle`` from ``direction``.

    Vectors are tuples of floats. The projection (``np.dot``), the sum of
    squares (numpy's pairwise sum) and the cosine and sine are left to numpy,
    whose rounding plain Python does not reproduce; every other step rounds
    once per entry in either.
    """
    if len(direction) == 1 or max_angle == 0.0:
        return direction
    while True:
        g = rng.standard_normal(len(direction))
        proj = float(np.dot(g, direction))
        g = [x - proj * d for x, d in zip(g.tolist(), direction)]
        norm = math.sqrt(np.add.reduce([x * x for x in g]))
        if norm > 1e-12:
            break
    theta = max_angle * rng.random()
    c, s = float(np.cos(theta)), float(np.sin(theta))
    return tuple(c * d + s * (x / norm) for d, x in zip(direction, g))


def generate_tree(cfg: GeneratorConfig, seed_offset: int = 0, tree_id: str | None = None) -> GeometricTree:
    """Grow one tree, fully determined by (cfg.seed, seed_offset)."""
    if seed_offset < 0:
        raise ValueError("seed_offset must be non-negative")
    rng = _rng(cfg.seed, seed_offset)
    parents: list[int] = []
    positions: list[tuple] = []
    attrs: list[np.ndarray] = []
    queue: deque = deque([(-1, 1, (0.0,) * cfg.n, (1.0,) + (0.0,) * (cfg.n - 1))])
    while queue:
        parent, level, pos, direction = queue.popleft()
        if cfg.d > 0:
            noise = rng.normal(0.0, cfg.attr_noise_sd, size=cfg.d) if cfg.attr_noise_sd > 0 else np.zeros(cfg.d)
            attrs.append(cfg.attr_base + cfg.attr_depth_slope * (level - 1) + noise)
        index = len(parents)
        parents.append(parent)
        positions.append(pos)
        if level >= cfg.max_depth:
            continue
        if rng.random() < cfg.p_stop:
            continue
        n_children = 2 if rng.random() < cfg.p_branch else 1
        length = cfg.edge_length_decay ** (level - 1)
        for _ in range(n_children):
            child_dir = _tilted(rng, direction, cfg.direction_jitter)
            queue.append((index, level + 1, tuple(p + length * c for p, c in zip(pos, child_dir)), child_dir))
    tree_id = tree_id if tree_id is not None else f"t{seed_offset:05d}"
    return GeometricTree(tree_id, parents, positions, attrs if cfg.d > 0 else None, n=cfg.n, d=cfg.d)


def generate_two_class_population(
    cfg_a: GeneratorConfig,
    cfg_b: GeneratorConfig,
    size_a: int,
    size_b: int,
) -> tuple[list[GeometricTree], np.ndarray]:
    """Generate ``size_a`` trees from ``cfg_a`` (label 0) followed by
    ``size_b`` trees from ``cfg_b`` (label 1).

    Class B trees use seed offsets after class A's, so identical configs
    yield two disjoint samples from one distribution (the null fixture).
    """
    if size_a < 1 or size_b < 1:
        raise ValueError("both class sizes must be >= 1")
    if (cfg_a.n, cfg_a.d) != (cfg_b.n, cfg_b.d):
        raise ValueError("class configs must share n and d")
    trees = []
    for offset in range(size_a):
        trees.append(generate_tree(cfg_a, offset))
    for offset in range(size_a, size_a + size_b):
        trees.append(generate_tree(cfg_b, offset))
    labels = np.array([0] * size_a + [1] * size_b, dtype=int)
    return trees, labels


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
