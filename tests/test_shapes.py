"""Paper-range tree shapes: two trees of 600 nodes (n = 3, d = 1) of each
shape, a chain, a star and a random recursive tree, through every
catalogued kernel and form, with attributes where the kernel takes them.
Each case's ``value`` must finish within a wall-time bound and a traced
memory bound, both set from measurement."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest

from treekern import build_kernel

from conftest import chain_tree, kernel_cases, recursive_tree, star_tree

SIZE = 600
# rootpath-node-naive compares every pair of root paths, |V|^2 of them, by
# definition; 200 nodes keep its star case to a few seconds.
NAIVE_SIZE = 200


SHAPES = {
    "chain": lambda size: (chain_tree(size, 3, 1, "a"), chain_tree(size, 3, 1, "b", step=0.5)),
    "star": lambda size: (star_tree(size - 1, 3, 1, "a"), star_tree(size - 1, 3, 1, "b")),
    "random": lambda size: (recursive_tree(size, 1, "a"), recursive_tree(size, 2, "b")),
}


# (name, form, shape) -> (seconds, traced MB) where a case needs more than
# DEFAULT_BOUND; each comment gives the measurement on a 2-vCPU host, and
# a time bound is about three times it, for a shared host. Every other case
# took under 0.8 s and traced under 6 MB.
DEFAULT_BOUND = (3.0, 12.0)
BOUNDS = {
    ("rootpath-embedded", "linear", "chain"): (7.0, 12.0),  # 2.3 s
    ("rootpath-embedded", "gaussian", "chain"): (7.0, 12.0),  # 2.1 s
    ("all-pairs-node", "linear", "chain"): (15.0, 65.0),  # 5.0 s, 43 MB
    ("rootpath-node-naive", "linear", "star"): (7.0, 12.0),  # 2.3 s at NAIVE_SIZE
    ("rootpath-node-naive", "gaussian", "star"): (11.0, 12.0),  # 3.6 s at NAIVE_SIZE
    ("rootpath-node", "linear", "chain"): (3.0, 39.0),  # 26 MB
    ("rootpath-node-linear-fast", None, "chain"): (3.0, 39.0),  # 26 MB
    ("sp", None, "chain"): (3.0, 18.0),  # 12 MB
}

EXPECTED_FAILURES = {
    ("all-pairs-node", "gaussian"): "ROADMAP item 16: the pair loop traced 1.69 GB on one pair of 600-node chains",
    ("all-pairs-embedded", "linear"): "ROADMAP item 6: |V|^2 landmark paths per tree run for over 90 s",
}


def shape_cases():
    for name, params in kernel_cases():
        for shape in SHAPES:
            reason = EXPECTED_FAILURES.get((name, params.get("form")))
            marks = [pytest.mark.xfail(run=False, reason=reason)] if reason else []
            yield pytest.param(name, params, shape, marks=marks, id=f"{name}-{params.get('form', '')}-{shape}")


@pytest.mark.parametrize("name,params,shape", shape_cases())
def test_paper_range_shapes_finish_in_bounded_time_and_memory(name, params, shape):
    t1, t2 = SHAPES[shape](NAIVE_SIZE if name == "rootpath-node-naive" else SIZE)
    kernel, form = build_kernel(name, **params), params.get("form")
    if (name, form) == ("all-pairs-embedded", "gaussian"):
        with pytest.raises(ValueError, match=f"tree 'a' has {SIZE} nodes"):
            kernel.value(t1, t2)
        return
    seconds, megabytes = BOUNDS.get((name, form, shape), DEFAULT_BOUND)
    tracemalloc.start()
    try:
        tic = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # agaw: generations missing from a star
            value = kernel.value(t1, t2)
        elapsed = time.perf_counter() - tic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert elapsed <= seconds, elapsed
    assert peak <= megabytes * 1e6, peak
