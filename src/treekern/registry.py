"""Catalog of named kernels.

Each entry gives a kernel's parameter defaults and a route built from the
resolved parameters: either a pairwise function of two trees or, for the
vector kernels, a :class:`~treekern.features.FeatureMap`. The
:class:`PairwiseKernel` wrapper carries the resolved parameters (for Gram
sidecars and manifests), the feature map when there is one, and a
``prepare`` hook that assembly calls once over the whole dataset. No
catalogued kernel needs the hook: every per-tree cache is built lazily on
first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from . import baselines, path_kernels
from .baselines import WLConfig
from .features import FeatureMap
from .path_kernels import NodeKernelSpec, PathKernelSpec
from .trees import GeometricTree

__all__ = ["PairwiseKernel", "build_kernel", "KERNEL_NAMES"]


@dataclass(frozen=True)
class PairwiseKernel:
    name: str
    params: dict
    value: Callable[[GeometricTree, GeometricTree], float]
    prepare: Callable[[Sequence[GeometricTree]], None] = field(default=lambda trees: None)
    feature_map: FeatureMap | None = None

    @property
    def scalar_linear(self) -> bool:
        """A linear form over one feature column: K_ij = f_i f_j, so cosine
        normalization would leave only sign(f_i f_j)."""
        fm = self.feature_map
        return fm is not None and fm.form == "linear" and fm.width == 1

    @property
    def spec(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "scalar_linear": self.scalar_linear}


def _node_path(fn, **params):
    return partial(fn, spec=PathKernelSpec(node=NodeKernelSpec(**params)))


def _embedded(fn, **params):
    return partial(fn, spec=PathKernelSpec(representation="embedded_landmarks", **params))


def _linear_fast(**params):
    spec = NodeKernelSpec(**params)
    if spec.form != "linear":
        raise ValueError("rootpath-node-linear-fast requires form=linear")
    return path_kernels.rootpath_linear_map(spec)


_NODE = {"form": "gaussian", "use_attributes": False, "lambda1": None, "lambda2": None}
_EMBEDDED = {"form": "gaussian", "landmarks": 20, "lam": None}

# name -> (parameter defaults, route factory called with the resolved parameters)
_CATALOG: dict[str, tuple[dict, Callable]] = {
    "all-pairs-embedded": (_EMBEDDED, partial(_embedded, path_kernels.all_pairs_kernel)),
    "rootpath-embedded": (_EMBEDDED, partial(_embedded, path_kernels.rootpath_kernel_naive)),
    "all-pairs-node": (_NODE, partial(_node_path, path_kernels.all_pairs_kernel)),
    "rootpath-node-naive": (_NODE, partial(_node_path, path_kernels.rootpath_kernel_naive)),
    "rootpath-node": (
        _NODE,
        lambda **p: partial(path_kernels.rootpath_kernel_decomposed, spec=NodeKernelSpec(**p)),
    ),
    "rootpath-node-linear-fast": ({**_NODE, "form": "linear"}, _linear_fast),
    "pointcloud": (
        {"lambda1": None, "lambda2": None},
        lambda **p: partial(baselines.pointcloud_kernel, **p),
    ),
    "aaw": ({"component": 0, "form": "gaussian"}, baselines.attribute_mean_map),
    "agaw": (
        {"component": 0, "form": "gaussian", "gen_lo": 3, "gen_hi": 6},
        baselines.generation_mean_map,
    ),
    "lbc": ({}, lambda: baselines.node_count_map("linear")),
    "gbc": ({}, lambda: baselines.node_count_map("gaussian")),
    "sp": ({"length_kernel": "delta"}, baselines.shortest_path_map),
    "wl": (
        {"iterations": 10},
        lambda **p: partial(baselines.weisfeiler_lehman_kernel, cfg=WLConfig(**p)),
    ),
}


def _coerce(default, value):
    # Counts and switches arrive from JSON and flags; cast them like their defaults.
    return type(default)(value) if isinstance(default, int) else value


def build_kernel(name: str, **params) -> PairwiseKernel:
    """Build a named kernel; raises ValueError for unknown names, unknown
    parameters, or incompatible parameter combinations."""
    if name not in _CATALOG:
        raise ValueError(f"unknown kernel name '{name}'")
    defaults, make = _CATALOG[name]
    extras = sorted(set(params) - set(defaults))
    if extras:
        raise ValueError(f"kernel '{name}' does not accept parameters: {extras}")
    resolved = {key: _coerce(default, params.get(key, default)) for key, default in defaults.items()}
    route = make(**resolved)
    if isinstance(route, FeatureMap):
        return PairwiseKernel(name, resolved, route.value, feature_map=route)
    return PairwiseKernel(name, resolved, route)


KERNEL_NAMES = tuple(_CATALOG)
