"""Similarity kernels, Gram matrices, and two-sample tests for geometric trees.

Each exported name is imported from its module on first use (PEP 562), so
importing the package, as every command does, loads no module it does not
run.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports here, in the order of __all__
_EXPORTS = {
    "trees": ("GeometricTree", "NodePath", "canonical_order", "canonical_pair", "parse_tree",
              "serialize_tree", "load_dataset", "save_dataset"),
    "path_kernels": ("NodeKernelSpec", "PathKernelSpec", "sample_embedded_path", "landmark_path_kernel",
                     "node_kernel", "node_path_kernel", "all_pairs_kernel", "rootpath_kernel_naive",
                     "rootpath_kernel_decomposed", "rootpath_kernel_linear_fast"),
    "registry": ("PairwiseKernel", "build_kernel", "KERNEL_NAMES"),
    "gram": ("GramMatrix", "PsdReport", "assemble", "normalize", "psd_check", "save_gram", "load_gram",
             "sidecar_path", "save_labels", "load_labels"),
    "twosample": ("TwoSampleResult", "mean_distance_statistic", "permutation_test", "nearest_mean_classify"),
    "generate": ("GeneratorConfig", "generate_tree", "generate_two_class_population", "balanced_binary_tree",
                 "preset_configs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
