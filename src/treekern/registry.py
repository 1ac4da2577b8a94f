"""Catalog of named pairwise kernels.

Each entry builds a :class:`PairwiseKernel` from JSON-able parameters. The
wrapper carries the resolved parameters (for Gram sidecars and manifests), a
``scalar_linear`` flag marking kernels whose normalization is degenerate, and
a ``prepare`` hook that assembly calls once over the whole dataset. No
catalogued kernel needs the hook: every per-tree cache is built lazily on the
first ``value`` call that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import baselines, path_kernels
from .baselines import WLConfig
from .path_kernels import NodeKernelSpec, PathKernelSpec
from .trees import GeometricTree

__all__ = ["PairwiseKernel", "build_kernel", "KERNEL_NAMES"]


@dataclass(frozen=True)
class PairwiseKernel:
    name: str
    params: dict
    value: Callable[[GeometricTree, GeometricTree], float]
    prepare: Callable[[Sequence[GeometricTree]], None] = field(default=lambda trees: None)
    scalar_linear: bool = False

    @property
    def spec(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "scalar_linear": self.scalar_linear}


def _pop(params: dict, key: str, default):
    return params.pop(key) if key in params else default


def _node_spec(params: dict) -> NodeKernelSpec:
    return NodeKernelSpec(
        form=_pop(params, "form", "gaussian"),
        use_attributes=bool(_pop(params, "use_attributes", False)),
        lambda1=_pop(params, "lambda1", None),
        lambda2=_pop(params, "lambda2", None),
    )


def _embedded_spec(params: dict) -> PathKernelSpec:
    return PathKernelSpec(
        representation="embedded_landmarks",
        form=_pop(params, "form", "gaussian"),
        landmarks=int(_pop(params, "landmarks", 20)),
        lam=_pop(params, "lam", None),
    )


def _node_spec_params(spec: NodeKernelSpec) -> dict:
    return {
        "form": spec.form,
        "use_attributes": spec.use_attributes,
        "lambda1": spec.lambda1,
        "lambda2": spec.lambda2,
    }


def _embedded_params(spec: PathKernelSpec) -> dict:
    return {"form": spec.form, "landmarks": spec.landmarks, "lam": spec.lam}


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"kernel '{name}' does not accept parameters: {sorted(params)}")


def build_kernel(name: str, **params) -> PairwiseKernel:
    """Build a named kernel; raises ValueError for unknown names, unknown
    parameters, or incompatible parameter combinations."""
    params = dict(params)
    if name == "all-pairs-embedded":
        spec = _embedded_spec(params)
        _reject_extras(name, params)
        return PairwiseKernel(
            name,
            _embedded_params(spec),
            lambda a, b: path_kernels.all_pairs_kernel(a, b, spec),
        )
    if name == "rootpath-embedded":
        spec = _embedded_spec(params)
        _reject_extras(name, params)
        return PairwiseKernel(
            name,
            _embedded_params(spec),
            lambda a, b: path_kernels.rootpath_kernel_naive(a, b, spec),
        )
    if name == "all-pairs-node":
        node = _node_spec(params)
        _reject_extras(name, params)
        spec = PathKernelSpec(representation="node_path", node=node)
        return PairwiseKernel(
            name,
            _node_spec_params(node),
            lambda a, b: path_kernels.all_pairs_kernel(a, b, spec),
        )
    if name == "rootpath-node-naive":
        node = _node_spec(params)
        _reject_extras(name, params)
        spec = PathKernelSpec(representation="node_path", node=node)
        return PairwiseKernel(
            name,
            _node_spec_params(node),
            lambda a, b: path_kernels.rootpath_kernel_naive(a, b, spec),
        )
    if name == "rootpath-node":
        node = _node_spec(params)
        _reject_extras(name, params)
        return PairwiseKernel(
            name,
            _node_spec_params(node),
            lambda a, b: path_kernels.rootpath_kernel_decomposed(a, b, node),
        )
    if name == "rootpath-node-linear-fast":
        params.setdefault("form", "linear")
        node = _node_spec(params)
        _reject_extras(name, params)
        if node.form != "linear":
            raise ValueError("rootpath-node-linear-fast requires form=linear")
        return PairwiseKernel(
            name,
            _node_spec_params(node),
            lambda a, b: path_kernels.rootpath_kernel_linear_fast(a, b, node),
        )
    if name == "pointcloud":
        lambda1 = _pop(params, "lambda1", None)
        lambda2 = _pop(params, "lambda2", None)
        _reject_extras(name, params)
        return PairwiseKernel(
            name,
            {"lambda1": lambda1, "lambda2": lambda2},
            lambda a, b: baselines.pointcloud_kernel(a, b, lambda1, lambda2),
        )
    if name == "aaw":
        component = int(_pop(params, "component", 0))
        form = _pop(params, "form", "gaussian")
        _reject_extras(name, params)
        if form not in ("gaussian", "linear"):
            raise ValueError(f"unknown form '{form}'")
        return PairwiseKernel(
            name,
            {"component": component, "form": form},
            lambda a, b: baselines.average_attribute_kernel(a, b, component, form),
            scalar_linear=(form == "linear"),
        )
    if name == "agaw":
        component = int(_pop(params, "component", 0))
        form = _pop(params, "form", "gaussian")
        gen_lo = int(_pop(params, "gen_lo", 3))
        gen_hi = int(_pop(params, "gen_hi", 6))
        _reject_extras(name, params)
        if form not in ("gaussian", "linear"):
            raise ValueError(f"unknown form '{form}'")
        return PairwiseKernel(
            name,
            {"component": component, "form": form, "gen_lo": gen_lo, "gen_hi": gen_hi},
            lambda a, b: baselines.generation_average_kernel(a, b, gen_lo, gen_hi, component, form),
        )
    if name == "lbc":
        _reject_extras(name, params)
        return PairwiseKernel(
            name, {}, lambda a, b: baselines.branchcount_kernels(a, b)[0], scalar_linear=True
        )
    if name == "gbc":
        _reject_extras(name, params)
        return PairwiseKernel(name, {}, lambda a, b: baselines.branchcount_kernels(a, b)[1])
    if name == "sp":
        length_kernel = _pop(params, "length_kernel", "delta")
        _reject_extras(name, params)
        if length_kernel not in ("delta", "linear"):
            raise ValueError(f"unknown length kernel '{length_kernel}'")
        return PairwiseKernel(
            name,
            {"length_kernel": length_kernel},
            lambda a, b: baselines.shortest_path_kernel(a, b, length_kernel),
        )
    if name == "wl":
        cfg = WLConfig(iterations=int(_pop(params, "iterations", 10)))
        _reject_extras(name, params)
        return PairwiseKernel(
            name,
            {"iterations": cfg.iterations},
            lambda a, b: baselines.weisfeiler_lehman_kernel(a, b, cfg),
        )
    raise ValueError(f"unknown kernel name '{name}'")


KERNEL_NAMES = (
    "all-pairs-embedded",
    "rootpath-embedded",
    "all-pairs-node",
    "rootpath-node-naive",
    "rootpath-node",
    "rootpath-node-linear-fast",
    "pointcloud",
    "aaw",
    "agaw",
    "lbc",
    "gbc",
    "sp",
    "wl",
)
