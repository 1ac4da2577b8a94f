"""Similarity kernels, Gram matrices, and two-sample tests for geometric trees."""

from .trees import (
    GeometricTree,
    NodePath,
    canonical_pair,
    load_dataset,
    parse_tree,
    save_dataset,
    serialize_tree,
)
from .path_kernels import (
    NodeKernelSpec,
    PathKernelSpec,
    all_pairs_kernel,
    landmark_path_kernel,
    node_kernel,
    node_path_kernel,
    rootpath_kernel_decomposed,
    rootpath_kernel_linear_fast,
    rootpath_kernel_naive,
    sample_embedded_path,
)
from .baselines import WLConfig, weisfeiler_lehman_kernel
from .registry import KERNEL_NAMES, PairwiseKernel, build_kernel
from .gram import (
    GramMatrix,
    PsdReport,
    assemble,
    combine,
    load_gram,
    normalize,
    psd_check,
    save_gram,
    sidecar_path,
)
from .twosample import (
    TwoSampleResult,
    mean_distance_statistic,
    nearest_mean_classify,
    permutation_test,
)
from .generate import (
    GeneratorConfig,
    balanced_binary_tree,
    generate_tree,
    generate_two_class_population,
    load_labels,
    preset_configs,
    save_labels,
)

__version__ = "0.1.0"

__all__ = [
    "GeometricTree",
    "NodePath",
    "canonical_pair",
    "parse_tree",
    "serialize_tree",
    "load_dataset",
    "save_dataset",
    "NodeKernelSpec",
    "PathKernelSpec",
    "sample_embedded_path",
    "landmark_path_kernel",
    "node_kernel",
    "node_path_kernel",
    "all_pairs_kernel",
    "rootpath_kernel_naive",
    "rootpath_kernel_decomposed",
    "rootpath_kernel_linear_fast",
    "WLConfig",
    "weisfeiler_lehman_kernel",
    "PairwiseKernel",
    "build_kernel",
    "KERNEL_NAMES",
    "GramMatrix",
    "PsdReport",
    "assemble",
    "normalize",
    "psd_check",
    "combine",
    "save_gram",
    "load_gram",
    "sidecar_path",
    "TwoSampleResult",
    "mean_distance_statistic",
    "permutation_test",
    "nearest_mean_classify",
    "GeneratorConfig",
    "generate_tree",
    "generate_two_class_population",
    "balanced_binary_tree",
    "preset_configs",
    "save_labels",
    "load_labels",
    "__version__",
]
