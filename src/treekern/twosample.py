"""Kernel two-sample testing: mean-embedding distance, permutation p-values,
and a nearest-mean classifier, all driven by a precomputed Gram matrix."""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TwoSampleResult",
    "mean_distance_statistic",
    "permutation_test",
    "nearest_mean_classify",
    "scorer_blas_threads",
]


@dataclass(frozen=True)
class TwoSampleResult:
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    sample_sizes: tuple[int, int]
    permutation_summary: dict

    def to_json(self, kernel_spec_ref: dict | None = None) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
            "sample_sizes": list(self.sample_sizes),
            "kernel_spec_ref": kernel_spec_ref,
            "quantiles": self.permutation_summary,
        }


def _values(gram) -> np.ndarray:
    values = np.asarray(getattr(gram, "values", gram), dtype=float)
    if values.size and not (-np.inf < values.min() and values.max() < np.inf):  # no N x N mask
        raise ValueError("Gram matrix has non-finite entries")
    return values


def _check_groups(size: int, groups: dict[str, np.ndarray]) -> None:
    """Every group is non-empty and in range, repeats no index, and shares
    none with another group."""
    for name, idx in groups.items():
        if len(idx) == 0:
            raise ValueError(f"{name} is empty")
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"{name} has indices out of range")
    # One bincount, not np.intersect1d: its first call costs 30-40 ms of imports.
    counts = np.bincount(np.concatenate(list(groups.values())))
    if counts.max() > 1:
        k = int(np.argmax(counts > 1))
        where = [name for name, idx in groups.items() if k in idx]
        if len(where) == 1:
            raise ValueError(f"{where[0]} repeats index {k}")
        raise ValueError("query points overlap the training samples" if "query" in where else "samples A and B overlap")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy (``numpy.libs/libscipy_openblas*.so``, as numpy's Linux wheels ship
    it), or None where no such library is found."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):  # the 64-bit-integer build's symbols, then the 32-bit one's
            get, put = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get and put:
                return get, put
    return None


def scorer_blas_threads() -> int | None:
    """The BLAS thread count the scorer's products run at: 1 where numpy's
    bundled OpenBLAS is found and pinned, None where it runs unpinned."""
    return None if _openblas_threads() is None else 1


# The thread count is process-wide: scorers in two threads take turns, so
# neither restores a count under the other's product.
_PIN = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count. How a
    product splits over threads changes its rounding, so a pinned scorer
    gives the same bits on any host; without the library it runs unpinned."""
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    get, put = controls
    with _PIN:
        previous = get()
        put(1)
        try:
            yield
        finally:
            put(previous)


class _Scorer:
    """Mean-distance statistics of relabelings of the pool A + B.

    An order ``p`` of the pool puts slots ``p[:a]`` in A and ``p[a:]`` in B,
    so the identity is the observed labeling. Its statistic is sqrt(z K z),
    with K the pool's sub-Gram and z = 1/a on the A slots, -1/b on the B ones.
    """

    def __init__(self, gram, idx_a, idx_b):
        values = _values(gram)
        idx_a = np.asarray(idx_a, dtype=np.intp)
        idx_b = np.asarray(idx_b, dtype=np.intp)
        _check_groups(values.shape[0], {"sample A": idx_a, "sample B": idx_b})
        self.sizes = (len(idx_a), len(idx_b))
        self.weights = np.repeat([1.0 / len(idx_a), -1.0 / len(idx_b)], self.sizes)
        pool = np.concatenate([idx_a, idx_b])
        self.sub = sub = values[np.ix_(pool, pool)]
        # Scale the copy by 2^s, s even, so that no nonzero entry is subnormal
        # (a slow BLAS path) and no partial sum, at most m * max|K|, overflows.
        # Power-of-two scaling commutes exactly with every operation that stays
        # in the normal range, and 2^(-s/2) undoes it after the square root.
        self.shift = (1020 - len(pool).bit_length() - math.frexp(max(sub.max(), -sub.min()))[1]) & ~1
        np.ldexp(sub, self.shift, out=sub)
        # Grown to the largest block scored, then reused by every block.
        self._product = np.empty((0, len(pool)))
        self._index = np.empty((0, len(pool)), dtype=np.int32)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """Statistics of an (r, m) float block of orders. One scatter, through
        an int32 copy of the orders, overwrites the block with the vectors z
        they select, and one product, on one BLAS thread, scores them; a
        single row may take another BLAS path than a block. The copy and
        the product go to buffers kept across calls."""
        rows = len(block)
        if len(self._product) < rows:
            self._product = np.empty(block.shape)
            self._index = np.empty(block.shape, dtype=np.int32)
        product, index = self._product[:rows], self._index[:rows]
        np.copyto(index, block, casting="unsafe")
        np.put_along_axis(block, index, self.weights, axis=1)
        with _one_blas_thread():
            np.matmul(block, self.sub, out=product)
        product *= block
        forms = np.maximum(0.0, product.sum(axis=1))
        return np.ldexp(np.sqrt(forms), -self.shift // 2)


def mean_distance_statistic(gram, idx_a, idx_b) -> float:
    """Distance between the two sample means in the kernel feature space:
    the permutation test's scorer on the identity order, with tiny negative
    values of z K z from floating point clamped to zero. Its bits do not
    depend on the BLAS thread count where :func:`scorer_blas_threads` is 1."""
    score = _Scorer(gram, idx_a, idx_b)
    return float(score(np.arange(len(score.weights), dtype=float)[None])[0])


# Relabelings are drawn and scored in fixed-size row blocks, so the test
# holds one block buffer and its product whatever the permutation count. The
# statistics' bits depend on the product's shape, so this stays fixed.
_STAT_BLOCK = 256


def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """``np.quantile(values, qs)`` with its default linear method, bit for
    bit on finite values with no negative zero (the statistics are square
    roots), without the import of ``numpy.ma`` (about 15 ms) that
    ``np.quantile`` makes through ``np.unique`` on its first call."""
    ordered = np.sort(values)
    virtual = (len(ordered) - 1) * np.asarray(qs, dtype=float)
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    a, b = ordered[below], ordered[np.minimum(below + 1, len(ordered) - 1)]
    # numpy's _lerp: interpolate from the nearer end
    return np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)


def permutation_test(
    gram,
    idx_a,
    idx_b,
    n_permutations: int = 10000,
    seed: int = 0,
    threads: int | None = None,
) -> TwoSampleResult:
    """Permutation p-value for the mean-distance statistic.

    Group-size-preserving relabelings are sampled with replacement from a
    counter-based generator (Philox), so a seed fixes the whole permutation
    sequence across platforms. They are drawn and scored serially, 256 at a
    time in one buffer: one ``Generator.permuted`` call draws the orders of
    as many ``permutation(m)`` calls, and the scorer of
    :func:`mean_distance_statistic` scores them. Row 0 of the first block
    stays the identity, the observed labeling. Memory is the m x m sub-Gram
    plus two 256 x m float blocks and one int32 block, whatever
    ``n_permutations`` is, plus 16 bytes per permutation: the
    ``n_permutations + 1`` statistics and the quantiles' sorted copy. The
    products run on one thread of numpy's bundled OpenBLAS, so the output
    does not depend on the BLAS thread count; where that library is not
    found (:func:`scorer_blas_threads` is None) they run unpinned, at
    whatever count the BLAS picks.
    ``threads`` is accepted for compatibility and validated (it must be at
    least 1) but has no effect.
    The returned p-value is (#{T_i >= T_0} + 1) / (n_permutations + 1);
    with fully separated samples it attains its floor
    1 / (n_permutations + 1).
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    score = _Scorer(gram, idx_a, idx_b)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = len(score.weights)
    total = n_permutations + 1
    # Orders are held as floats: an 8-byte shuffle takes numpy's fast path,
    # and the scorer overwrites them in place with the weights they select.
    block = np.empty((min(_STAT_BLOCK, total), m))
    stats = np.empty(total)
    for start in range(0, total, _STAT_BLOCK):
        rows = block[: min(_STAT_BLOCK, total - start)]
        rows[:] = np.arange(m)
        drawn = rows[1:] if start == 0 else rows
        rng.permuted(drawn, axis=1, out=drawn)
        stats[start : start + len(rows)] = score(rows)
    t0 = float(stats[0])
    perm = stats[1:]
    count = int((perm >= t0).sum())
    p_value = (count + 1) / (n_permutations + 1)
    q = _quantiles(perm, [0.05, 0.25, 0.5, 0.75, 0.95])
    summary = {
        "min": float(perm.min()),
        "max": float(perm.max()),
        "mean": float(perm.mean()),
        "q05": float(q[0]),
        "q25": float(q[1]),
        "q50": float(q[2]),
        "q75": float(q[3]),
        "q95": float(q[4]),
    }
    return TwoSampleResult(
        statistic=t0,
        p_value=float(p_value),
        n_permutations=int(n_permutations),
        seed=int(seed),
        sample_sizes=score.sizes,
        permutation_summary=summary,
    )


def nearest_mean_classify(gram, idx_a, idx_b, idx_query) -> np.ndarray:
    """Label each query point by the nearer class mean in feature space.

    Returns 0 for class A, 1 for class B; exact ties go to A. Queries must
    be disjoint from both training samples, and no group may repeat an index.
    """
    values = _values(gram)
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    idx_query = np.asarray(idx_query, dtype=np.intp)
    _check_groups(values.shape[0], {"sample A": idx_a, "sample B": idx_b, "query": idx_query})
    # k(z, z) is common to both squared distances and cancels in the
    # comparison, so it is omitted.
    mean_a = values[np.ix_(idx_query, idx_a)].mean(axis=1)
    mean_b = values[np.ix_(idx_query, idx_b)].mean(axis=1)
    within_a = values[np.ix_(idx_a, idx_a)].mean()
    within_b = values[np.ix_(idx_b, idx_b)].mean()
    dist_a = -2.0 * mean_a + within_a
    dist_b = -2.0 * mean_b + within_b
    return (dist_b < dist_a).astype(int)
