"""Kernel two-sample testing: mean-embedding distance, permutation p-values,
and a nearest-mean classifier, all driven by a precomputed Gram matrix."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .gram import _one_blas_thread, blas_threads, check_finite, usable_cpus

__all__ = [
    "TwoSampleResult",
    "mean_distance_statistic",
    "permutation_test",
    "nearest_mean_classify",
    "scoring_threads",
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
    check_finite(values, getattr(gram, "ids", None))
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


# Relabelings are drawn and scored in fixed-size row blocks, so the test
# holds one block buffer and its product per scoring thread whatever the
# permutation count. The statistics' bits depend on the product's shape, so
# this stays fixed.
_STAT_BLOCK = 256


def scoring_threads(n_permutations: int, threads: int | None = None) -> int:
    """The threads :func:`permutation_test` scores its blocks on: the CPUs
    this process may run on, capped by ``threads`` when given and by the
    number of blocks, or 1 where the products run unpinned (an unpinned
    BLAS threads each product itself)."""
    if blas_threads() is None:
        return 1
    cpus = usable_cpus()
    return min(cpus, threads or cpus, -(-(n_permutations + 1) // _STAT_BLOCK))


class _Scorer:
    """Mean-distance statistics of relabelings of the pool A + B.

    An order ``p`` of the pool puts slots ``p[:a]`` in A and ``p[a:]`` in B,
    so the identity is the observed labeling. Its statistic is sqrt(z K z),
    with K the pool's sub-Gram and z = 1/a on the A slots, -1/b on the B ones.
    A scorer is read-only once built, so threads share it; each brings its
    own :meth:`buffers`.
    """

    def __init__(self, gram, idx_a, idx_b):
        values = _values(gram)
        idx_a = np.asarray(idx_a, dtype=np.intp)
        idx_b = np.asarray(idx_b, dtype=np.intp)
        _check_groups(values.shape[0], {"sample A": idx_a, "sample B": idx_b})
        self.sizes = a, b = len(idx_a), len(idx_b)
        self.m = a + b
        # A row is filled with the larger class's weight, then the smaller
        # class's slots get theirs: every slot is written once either way.
        if a <= b:
            self.fill, self.spot, self.smaller = -1.0 / b, 1.0 / a, slice(0, a)
        else:
            self.fill, self.spot, self.smaller = 1.0 / a, -1.0 / b, slice(a, self.m)
        pool = np.concatenate([idx_a, idx_b])
        self.sub = sub = values[np.ix_(pool, pool)]
        # Scale the copy by 2^s, s even, so that no nonzero entry is subnormal
        # (a slow BLAS path) and no partial sum, at most m * max|K|, overflows.
        # Power-of-two scaling commutes exactly with every operation that stays
        # in the normal range, and 2^(-s/2) undoes it after the square root.
        self.shift = (1020 - self.m.bit_length() - math.frexp(max(sub.max(), -sub.min()))[1]) & ~1
        np.ldexp(sub, self.shift, out=sub)

    def buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One thread's buffers for blocks of up to ``rows`` orders: the
        (rows, m) block, its product, and an int32 copy of the smaller
        class's columns."""
        return np.empty((rows, self.m)), np.empty((rows, self.m)), np.empty((rows, min(self.sizes)), dtype=np.int32)

    def __call__(self, block: np.ndarray, product: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Statistics of an (r, m) float block of orders, with ``product``
        and ``index`` the first r rows of the buffers. One fill and one
        scatter, through the int32 copy of the smaller class's orders,
        overwrite the block with the vectors z they select, and one product
        scores them; a single row may take another BLAS path than a block.
        The caller pins the BLAS threads."""
        np.copyto(index, block[:, self.smaller], casting="unsafe")
        block.fill(self.fill)
        np.put_along_axis(block, index, self.spot, axis=1)
        np.matmul(block, self.sub, out=product)
        product *= block
        forms = np.maximum(0.0, product.sum(axis=1))
        return np.ldexp(np.sqrt(forms), -self.shift // 2)


def mean_distance_statistic(gram, idx_a, idx_b) -> float:
    """Distance between the two sample means in the kernel feature space:
    the permutation test's scorer on the identity order, with tiny negative
    values of z K z from floating point clamped to zero. Its bits do not
    depend on the BLAS thread count where :func:`blas_threads` is 1."""
    score = _Scorer(gram, idx_a, idx_b)
    block, product, index = score.buffers(1)
    block[0] = np.arange(score.m)
    with _one_blas_thread():
        return float(score(block, product, index)[0])


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
    sequence across platforms. They are drawn and scored 256 at a time: one
    ``Generator.permuted`` call draws the orders of as many
    ``permutation(m)`` calls, and the scorer of
    :func:`mean_distance_statistic` scores them. Row 0 of the first block
    stays the identity, the observed labeling. The blocks are scored on
    :func:`scoring_threads` threads: each thread draws its next block under
    one lock, so the stream is drawn in block order, and scores it outside
    the lock, as the same (rows, m) x (m, m) product on one BLAS thread, so
    each block's statistics have the same bits at any thread count. The
    first error stops the other threads from taking new blocks; every
    thread is joined before the error is raised. Memory is the m x m
    sub-Gram plus, per scoring thread, two 256 x m float blocks and a
    256 x min(a, b) int32 block, whatever ``n_permutations`` is, plus 16
    bytes per permutation: the ``n_permutations + 1`` statistics and the
    quantiles' sorted copy. The products run on one thread of numpy's
    bundled OpenBLAS, so the output does not depend on the BLAS thread
    count; where that library is not found (:func:`blas_threads` is
    None) one thread scores every block and the products run unpinned, at
    whatever count the BLAS picks.
    ``threads``, when given, caps the scoring threads (it must be at least
    1); it does not change the output.
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
    m = score.m
    total = n_permutations + 1
    stats = np.empty(total)
    starts = iter(range(0, total, _STAT_BLOCK))
    draw = threading.Lock()
    stop = threading.Event()
    errors = []  # list.append is atomic: errors[0] is the first raised

    def work():
        try:
            # Orders are held as floats: an 8-byte shuffle takes numpy's fast
            # path, and the scorer overwrites them in place with the weights.
            block, product, index = score.buffers(min(_STAT_BLOCK, total))
            while True:
                with draw:
                    start = None if stop.is_set() else next(starts, None)
                    if start is None:
                        return
                    rows = min(_STAT_BLOCK, total - start)
                    block[:rows] = np.arange(m)
                    drawn = block[1:rows] if start == 0 else block[:rows]
                    rng.permuted(drawn, axis=1, out=drawn)
                stats[start : start + rows] = score(block[:rows], product[:rows], index[:rows])
        except BaseException as error:
            errors.append(error)
            stop.set()

    pool = []
    with _one_blas_thread():
        try:
            for _ in range(scoring_threads(n_permutations, threads) - 1):
                thread = threading.Thread(target=work, name="treekern-scorer")
                thread.start()
                pool.append(thread)
            work()
        finally:
            stop.set()
            for thread in pool:
                thread.join()
    if errors:
        raise errors[0]
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
