"""Catalog of named kernels: the one place every kernel is reached from.

Each entry gives a kernel's parameter defaults, written here or read from
the class defaults of :class:`~treekern.path_kernels.NodeKernelSpec` and
:class:`~treekern.path_kernels.PathKernelSpec`, and a route of
:mod:`treekern.features` built from the resolved parameters.
``build_kernel(name, **params)`` returns a :class:`PairwiseKernel`: its
``value(t1, t2)`` is the single-pair entry point and :func:`treekern.assemble`
runs its ``cohort`` route over a cohort. It also carries the resolved
parameters (for Gram sidecars and manifests) and a ``prepare`` hook that
assembly calls once over the whole dataset; no catalogued kernel needs it.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import baselines, path_kernels
from .features import FeatureMap, _Route
from .path_kernels import NodeKernelSpec, PathKernelSpec
from .trees import GeometricTree

__all__ = ["PairwiseKernel", "build_kernel", "KERNEL_NAMES"]


@dataclass(frozen=True)
class PairwiseKernel:
    name: str
    params: dict
    value: Callable[[GeometricTree, GeometricTree], float]
    cohort: _Route
    prepare: Callable[[Sequence[GeometricTree]], None] = field(default=lambda trees: None)

    @property
    def scalar_linear(self) -> bool:
        """A feature map of width 1: K_ij = f_i f_j, so cosine normalization
        would leave only sign(f_i f_j)."""
        return isinstance(self.cohort, FeatureMap) and self.cohort.width == 1

    @property
    def spec(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "scalar_linear": self.scalar_linear}


def _embedded(paths, **params):
    spec = PathKernelSpec(representation="embedded_landmarks", **params)
    return path_kernels.landmark_route(spec, paths)


_NODE = asdict(NodeKernelSpec())
_EMBEDDED = {key: getattr(PathKernelSpec, key) for key in ("form", "landmarks", "lam")}
_ATTRIBUTE = {"component": 0, "form": "gaussian"}

# name -> (parameter defaults, route factory called with the resolved parameters)
_CATALOG: dict[str, tuple[dict, Callable]] = {
    "all-pairs-embedded": (_EMBEDDED, partial(_embedded, "all_pairs")),
    "rootpath-embedded": (_EMBEDDED, partial(_embedded, "rootpath")),
    "all-pairs-node": (_NODE, lambda **p: path_kernels.all_pairs_route(NodeKernelSpec(**p))),
    "rootpath-node-naive": (
        _NODE, lambda **p: path_kernels.rootpath_naive_route(PathKernelSpec(node=NodeKernelSpec(**p)))
    ),
    "rootpath-node": (_NODE, lambda **p: path_kernels.rootpath_route(NodeKernelSpec(**p))),
    "rootpath-node-linear-fast": (
        {**_NODE, "form": "linear"},
        lambda **p: path_kernels.rootpath_linear_map(NodeKernelSpec(**p)),
    ),
    "pointcloud": ({key: _NODE[key] for key in ("lambda1", "lambda2")}, baselines.pointcloud_node_set),
    "aaw": (_ATTRIBUTE, baselines.attribute_mean_map),
    "agaw": ({**_ATTRIBUTE, "gen_lo": 3, "gen_hi": 6}, baselines.generation_mean_map),
    "lbc": ({}, lambda: baselines.node_count_map("linear")),
    "gbc": ({}, lambda: baselines.node_count_map("gaussian")),
    "sp": ({"length_kernel": "delta"}, baselines.shortest_path_map),
    "wl": ({"iterations": 10}, baselines.wl_route),
}


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _coerce(name: str, key: str, default, value):
    # Switches must arrive as booleans and counts as integers (not booleans)
    # in the signed 64-bit range that numpy indexes with; a string or float
    # from JSON is rejected, never cast. A scale (default None) given as a
    # real number, numpy scalars included, is kept as a Python float so the
    # Gram sidecar can record it; anything else, an integer past the float
    # range included, is left for the spec to reject.
    if default is None and isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    if not isinstance(default, int):
        return value
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, (int, np.integer)):
        kind = "a boolean" if isinstance(default, bool) else "an integer"
        raise ValueError(f"kernel '{name}' parameter '{key}' must be {kind}, got {value!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:  # its digits can outrun str(), so give its bits
        raise ValueError(
            f"kernel '{name}' parameter '{key}' must fit in a signed 64-bit integer, "
            f"got an integer of {int(value).bit_length()} bits"
        )
    return type(default)(value)


def build_kernel(name: str, /, **params) -> PairwiseKernel:
    """Build a named kernel; raises ValueError for unknown names, unknown
    parameters, or incompatible parameter combinations."""
    if name not in _CATALOG:
        raise ValueError(f"unknown kernel name '{name}'")
    defaults, make = _CATALOG[name]
    extras = sorted(set(params) - set(defaults))
    if extras:
        raise ValueError(f"kernel '{name}' does not accept parameters: {extras}")
    resolved = {key: _coerce(name, key, default, params.get(key, default)) for key, default in defaults.items()}
    route = make(**resolved)
    return PairwiseKernel(name, resolved, route.value, route)


KERNEL_NAMES = tuple(_CATALOG)
