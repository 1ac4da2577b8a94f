"""Kernel two-sample testing: mean-embedding distance, permutation p-values,
and a nearest-mean classifier, all driven by a precomputed Gram matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoSampleResult",
    "mean_distance_statistic",
    "permutation_test",
    "nearest_mean_classify",
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
    if not np.isfinite(values).all():
        raise ValueError("Gram matrix has non-finite entries")
    return values


def _check_groups(size: int, idx_a: np.ndarray, idx_b: np.ndarray) -> None:
    for name, idx in (("A", idx_a), ("B", idx_b)):
        if len(idx) == 0:
            raise ValueError(f"sample {name} is empty")
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"sample {name} has indices out of range")
    if len(np.intersect1d(idx_a, idx_b)) > 0:
        raise ValueError("samples A and B overlap")


def mean_distance_statistic(gram, idx_a, idx_b) -> float:
    """Distance between the two sample means in the kernel feature space.

    T^2 expands into the three block averages of the Gram matrix
    (within-A, cross, within-B); tiny negative values from floating point
    are clamped to zero before the square root.
    """
    values = _values(gram)
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    _check_groups(values.shape[0], idx_a, idx_b)
    a = len(idx_a)
    b = len(idx_b)
    term_aa = values[np.ix_(idx_a, idx_a)].sum() / (a * a)
    term_ab = values[np.ix_(idx_a, idx_b)].sum() / (a * b)
    term_bb = values[np.ix_(idx_b, idx_b)].sum() / (b * b)
    return float(np.sqrt(max(0.0, term_aa - 2.0 * term_ab + term_bb)))


# Statistics are scored in fixed-size row blocks, which bounds the memory of
# the (block, m) intermediate products for large permutation counts.
_STAT_BLOCK = 256


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
    sequence across platforms. Permutation statistics are scored serially
    in fixed-size row blocks. ``threads`` is accepted for compatibility and
    validated (it must be at least 1) but has no effect.
    The returned p-value is (#{T_i >= T_0} + 1) / (n_permutations + 1);
    with fully separated samples it attains its floor
    1 / (n_permutations + 1).
    """
    values = _values(gram)
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    _check_groups(values.shape[0], idx_a, idx_b)
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    pool = np.concatenate([idx_a, idx_b])
    a = len(idx_a)
    m = len(pool)
    sub = values[np.ix_(pool, pool)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    # Row 0 is the observed labeling; each statistic is the quadratic form
    # z K z with z = 1/a on the A slots and -1/b on the B slots, so observed
    # and permuted values share the exact same floating-point path.
    weights = np.empty((n_permutations + 1, m))
    weights[0, :a] = 1.0 / a
    weights[0, a:] = -1.0 / (m - a)
    for k in range(1, n_permutations + 1):
        perm = rng.permutation(m)
        weights[k, perm[:a]] = 1.0 / a
        weights[k, perm[a:]] = -1.0 / (m - a)

    stats = np.empty(n_permutations + 1)
    for start in range(0, n_permutations + 1, _STAT_BLOCK):
        block = weights[start : start + _STAT_BLOCK]
        stats[start : start + _STAT_BLOCK] = np.sqrt(
            np.maximum(0.0, ((block @ sub) * block).sum(axis=1))
        )
    t0 = float(stats[0])
    perm = stats[1:]
    count = int((perm >= t0).sum())
    p_value = (count + 1) / (n_permutations + 1)
    q = np.quantile(perm, [0.05, 0.25, 0.5, 0.75, 0.95])
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
        sample_sizes=(a, m - a),
        permutation_summary=summary,
    )


def nearest_mean_classify(gram, idx_a, idx_b, idx_query) -> np.ndarray:
    """Label each query point by the nearer class mean in feature space.

    Returns 0 for class A, 1 for class B; exact ties go to A. Queries must
    be disjoint from both training samples.
    """
    values = _values(gram)
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    idx_query = np.asarray(idx_query, dtype=np.intp)
    _check_groups(values.shape[0], idx_a, idx_b)
    if len(idx_query) == 0:
        raise ValueError("no query points")
    if idx_query.min() < 0 or idx_query.max() >= values.shape[0]:
        raise ValueError("query indices out of range")
    train = np.concatenate([idx_a, idx_b])
    if len(np.intersect1d(idx_query, train)) > 0:
        raise ValueError("query points overlap the training samples")
    # k(z, z) is common to both squared distances and cancels in the
    # comparison, so it is omitted.
    mean_a = values[np.ix_(idx_query, idx_a)].mean(axis=1)
    mean_b = values[np.ix_(idx_query, idx_b)].mean(axis=1)
    within_a = values[np.ix_(idx_a, idx_a)].mean()
    within_b = values[np.ix_(idx_b, idx_b)].mean()
    dist_a = -2.0 * mean_a + within_a
    dist_b = -2.0 * mean_b + within_b
    return (dist_b < dist_a).astype(int)
