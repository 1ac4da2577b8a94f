"""Two-sample statistic, permutation test, and the nearest-mean classifier."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from treekern import (
    gram,
    mean_distance_statistic,
    nearest_mean_classify,
    permutation_test,
    twosample,
)
from treekern.twosample import _quantiles

from conftest import fail_scoring_at


def random_psd(rng, size):
    a = rng.standard_normal((size, size + 2))
    return a @ a.T


def feature_space_oracle(values, idx_a, idx_b):
    """Mean distance computed through an explicit eigendecomposition."""
    w, v = np.linalg.eigh(values)
    w = np.clip(w, 0.0, None)
    feats = v * np.sqrt(w)[None, :]
    diff = feats[idx_a].mean(axis=0) - feats[idx_b].mean(axis=0)
    return float(np.sqrt(diff @ diff))


def permutation_test_all_rows_first(values, idx_a, idx_b, n_permutations, seed):
    """Reference: draw every weight row into one (P + 1, m) matrix, then
    score it in 256-row blocks. Returns (statistic, p_value, summary)."""
    pool = np.concatenate([idx_a, idx_b])
    a = len(idx_a)
    m = len(pool)
    sub = values[np.ix_(pool, pool)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    weights = np.empty((n_permutations + 1, m))
    weights[0, :a] = 1.0 / a
    weights[0, a:] = -1.0 / (m - a)
    for k in range(1, n_permutations + 1):
        perm = rng.permutation(m)
        weights[k, perm[:a]] = 1.0 / a
        weights[k, perm[a:]] = -1.0 / (m - a)
    stats = np.empty(n_permutations + 1)
    for start in range(0, n_permutations + 1, 256):
        block = weights[start : start + 256]
        stats[start : start + 256] = np.sqrt(
            np.maximum(0.0, ((block @ sub) * block).sum(axis=1))
        )
    perm = stats[1:]
    q = np.quantile(perm, [0.05, 0.25, 0.5, 0.75, 0.95])
    summary = {
        "min": float(perm.min()),
        "max": float(perm.max()),
        "mean": float(perm.mean()),
        **{key: float(v) for key, v in zip(("q05", "q25", "q50", "q75", "q95"), q)},
    }
    p_value = (int((perm >= stats[0]).sum()) + 1) / (n_permutations + 1)
    return float(stats[0]), p_value, summary


def test_mean_distance_hand_value():
    values = np.array([[1.0, 0.5], [0.5, 1.0]])
    # T^2 = 1 - 2 * 0.5 + 1 = 1
    assert mean_distance_statistic(values, [0], [1]) == pytest.approx(1.0)
    # identical groups of identical points: distance 0
    same = np.ones((4, 4))
    assert mean_distance_statistic(same, [0, 1], [2, 3]) == pytest.approx(0.0)


def test_mean_distance_matches_eigen_oracle(rng):
    for _ in range(25):
        size = int(rng.integers(4, 21))
        values = random_psd(rng, size)
        split = int(rng.integers(1, size))
        perm = rng.permutation(size)
        idx_a, idx_b = perm[:split], perm[split:]
        got = mean_distance_statistic(values, idx_a, idx_b)
        want = feature_space_oracle(values, idx_a, idx_b)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_group_validation():
    values = np.eye(4)
    with pytest.raises(ValueError, match="empty"):
        mean_distance_statistic(values, [], [1])
    with pytest.raises(ValueError, match="out of range"):
        mean_distance_statistic(values, [0], [9])
    with pytest.raises(ValueError, match="overlap"):
        mean_distance_statistic(values, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="sample A repeats index 0"):
        mean_distance_statistic(values, [0, 0], [1, 2])
    with pytest.raises(ValueError, match="sample B repeats index 3"):
        permutation_test(values, [0], [3, 1, 3], n_permutations=10)


def test_permutation_test_is_deterministic(rng):
    values = random_psd(rng, 12)
    first = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=42)
    second = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=42)
    assert first == second
    other = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=43)
    assert other.permutation_summary != first.permutation_summary


def test_permutation_test_is_worker_count_invariant(rng):
    # enough permutations to span several scoring blocks, so the serial
    # block loop runs more than once under every accepted thread count
    values = random_psd(rng, 14)
    results = [
        permutation_test(
            values, range(7), range(7, 14), n_permutations=900, seed=5, threads=k
        )
        for k in (1, 2, 7)
    ]
    assert results[0] == results[1] == results[2]
    with pytest.raises(ValueError, match="threads"):
        permutation_test(values, range(7), range(7, 14), n_permutations=10, threads=0)


def test_permutation_test_bits_do_not_depend_on_the_blas_thread_count(rng):
    # about 0.2 s. At m = 700 a (256, m) x (m, m) product rounds differently
    # on one and two OpenBLAS threads; the scorer runs it on one, then
    # restores the caller's count.
    controls = gram._openblas_threads()
    if controls is None:
        pytest.skip("no controllable OpenBLAS: the scorer runs unpinned")
    get, put = controls
    values = random_psd(rng, 700)
    idx_a, idx_b = range(0, 700, 2), range(1, 700, 2)
    before, results = get(), []
    try:
        for threads in (1, 2):
            put(threads)
            results.append(permutation_test(values, idx_a, idx_b, n_permutations=1000, seed=3))
            results.append(mean_distance_statistic(values, idx_a, idx_b))
            assert get() == threads
    finally:
        put(before)
    assert results[:2] == results[2:]
    assert gram.blas_threads() == 1


_SMALL = [3, 0, 7, 12, 19, 5, 21, 9]
_LARGE = [1, 2, 4, 6, 8, 10, 11, 13, 14, 15, 16, 17, 18]


@pytest.mark.parametrize("n_permutations", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize(
    "idx_a, idx_b",
    [(_SMALL, _LARGE), (_LARGE, _SMALL), ([20], _SMALL + _LARGE), (_LARGE + _SMALL, [22])],
    ids=["a<b", "a>b", "a=1", "b=1"],
)
def test_streamed_blocks_match_all_rows_first(rng, n_permutations, idx_a, idx_b):
    # block edges: one row, a block minus the observed row, one full block,
    # one row into the second block, and a partial fourth block; the scorer
    # scatters the smaller class's weight, A's or B's
    values = random_psd(rng, 23)
    idx_a, idx_b = np.array(idx_a), np.array(idx_b)
    res = permutation_test(values, idx_a, idx_b, n_permutations=n_permutations, seed=11)
    statistic, p_value, summary = permutation_test_all_rows_first(
        values, idx_a, idx_b, n_permutations, seed=11
    )
    assert res.statistic == statistic
    assert res.p_value == p_value
    assert res.permutation_summary == summary


def test_thread_counts_give_the_bits_of_all_rows_first(rng):
    # about 0.3 s: unequal groups at a cohort's size, with a partial last
    # block, scored on one to three threads and at the default count. The
    # reference's products run pinned, as at m = 700 two BLAS threads round
    # differently.
    m, n_permutations = 700, 3 * 256 + 10
    values = random_psd(rng, m)
    idx_a, idx_b = np.arange(0, 600, 2), np.setdiff1d(np.arange(m), np.arange(0, 600, 2))
    with gram._one_blas_thread():
        statistic, p_value, summary = permutation_test_all_rows_first(values, idx_a, idx_b, n_permutations, seed=2)
    for threads in (1, 2, 3, None):
        res = permutation_test(values, idx_a, idx_b, n_permutations=n_permutations, seed=2, threads=threads)
        assert (res.statistic, res.p_value, res.permutation_summary) == (statistic, p_value, summary), threads


def test_more_scoring_threads_than_cores_keep_the_bits(rng, monkeypatch):
    # about 0.02 s: eight threads on a tiny switch interval interleave their
    # draws and scores as often as the interpreter lets them
    values = random_psd(rng, 60)
    want = permutation_test(values, range(25), range(25, 60), n_permutations=5_000, seed=6, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    if gram.blas_threads() is not None:
        assert twosample.scoring_threads(5_000) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = permutation_test(values, range(25), range(25, 60), n_permutations=5_000, seed=6)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_scoring_threads_are_capped(monkeypatch):
    cpus = twosample.scoring_threads(10**6)
    assert cpus >= 1
    assert twosample.scoring_threads(10**6, threads=1) == 1
    assert twosample.scoring_threads(10**6, threads=cpus + 5) == cpus
    assert twosample.scoring_threads(255) == 1  # one block
    assert twosample.scoring_threads(256) == min(cpus, 2)
    monkeypatch.setattr(gram, "_openblas_threads", lambda: None)
    assert twosample.scoring_threads(10**6) == 1  # an unpinned BLAS threads each product


def test_a_scoring_error_is_raised_after_every_thread_has_ended(rng, monkeypatch):
    # about 0.05 s: the block at 512 fails on one of two threads
    values = random_psd(rng, 300)
    fail_scoring_at(monkeypatch, m=300, seed=4)
    score, scored = twosample._Scorer.__call__, []
    monkeypatch.setattr(twosample._Scorer, "__call__", lambda *args: scored.append(1) or score(*args))
    controls = gram._openblas_threads()
    get, put = controls if controls else (lambda: None, lambda count: None)
    before, running = get(), set(threading.enumerate())
    put(2)  # a count the scorer's pin must give back
    try:
        with pytest.raises(ValueError, match="scoring failed on the block at 512"):
            permutation_test(values, range(100), range(100, 300), n_permutations=5_000, seed=4, threads=2)
        assert set(threading.enumerate()) == running
        assert get() == (2 if controls else None)
        assert len(scored) < 10  # of 20 blocks: no thread takes a block after the error
    finally:
        put(before)


@given(
    arrays(float, st.integers(1, 60), elements=st.floats(-1e300, 1e300)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_summary_quantiles_match_numpy_bit_for_bit(values, qs):
    values = values + 0.0  # no negative zero: the statistics are square roots
    assert _quantiles(values, qs).tobytes() == np.quantile(values, qs).tobytes()


def test_permutation_test_is_exact_under_power_of_two_scaling(rng):
    # integer entries times 2^-1040 are exact but subnormal, and so are
    # their products with the weights unless the test rescales its sub-Gram
    a = rng.integers(-3, 4, (20, 22)).astype(float)
    values = np.ldexp(a @ a.T, -40)
    res = permutation_test(values, range(8), range(8, 20), n_permutations=300, seed=4)
    tiny = permutation_test(np.ldexp(values, -1000), range(8), range(8, 20), n_permutations=300, seed=4)
    assert tiny.statistic == np.ldexp(res.statistic, -500)
    assert tiny.p_value == res.p_value
    assert tiny.permutation_summary == {key: np.ldexp(v, -500) for key, v in res.permutation_summary.items()}


def test_permutation_test_memory_is_independent_of_count(rng):
    values = random_psd(rng, 300)
    peaks = {}
    for n_permutations in (2_000, 20_000):
        tracemalloc.start()
        try:
            permutation_test(values, range(150), range(150, 300), n_permutations=n_permutations)
            peaks[n_permutations] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # all weight rows at once would need (P + 1) * m * 8 bytes: 48 MB at 20,000
    assert peaks[20_000] < 1.5 * peaks[2_000]
    assert peaks[20_000] < 8e6
    # at a cohort's size the m x m sub-Gram copy and, per scoring thread, a
    # block of 256 relabelings (orders overwritten by weights), its product
    # and the int32 copy of the smaller class's orders dominate
    m = 700
    values = random_psd(rng, m)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            permutation_test(values, range(0, m, 2), range(1, m, 2), n_permutations=1_000, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (m * m + threads * 3 * 256 * m)


def test_permutation_test_observed_statistic(rng):
    values = random_psd(rng, 10)
    # sorted, unsorted and interleaved groups, and the smallest pool (a = b = 1)
    for idx_a, idx_b in [([0, 2, 4], [1, 3, 5, 6]), ([7, 2, 9, 0], [5, 1, 8, 3, 6]), ([4], [2])]:
        res = permutation_test(values, idx_a, idx_b, n_permutations=50, seed=1)
        direct = mean_distance_statistic(values, idx_a, idx_b)
        # one scorer: a one-row product may take another BLAS path, no more
        assert abs(res.statistic - direct) <= 4 * np.spacing(direct)
        assert abs(direct - feature_space_oracle(values, idx_a, idx_b)) <= 1e-9 * max(1.0, direct)
        assert res.sample_sizes == (len(idx_a), len(idx_b))
        floor = 1.0 / 51
        assert floor <= res.p_value <= 1.0
        summary = res.permutation_summary
        assert summary["min"] <= summary["q50"] <= summary["max"]


def test_permutation_floor_on_separated_groups():
    # two groups with no cross similarity: only a relabeling that recovers
    # the block split reaches the observed statistic, and with 10 + 10
    # elements no sampled permutation does, so p sits exactly at its floor
    values = np.block(
        [[np.ones((10, 10)), np.zeros((10, 10))], [np.zeros((10, 10)), np.ones((10, 10))]]
    )
    values[np.diag_indices(20)] = 2.0
    res = permutation_test(values, range(10), range(10, 20), n_permutations=999, seed=0)
    assert res.p_value == pytest.approx(1.0 / 1000)


def test_permutation_test_rejects_bad_counts(rng):
    values = np.eye(4)
    with pytest.raises(ValueError, match="n_permutations"):
        permutation_test(values, [0, 1], [2, 3], n_permutations=0)


def test_permutation_test_rejects_bad_counts_before_copying_the_gram(rng):
    values = random_psd(rng, 1500)
    tracemalloc.start()
    try:
        for bad in ({"n_permutations": 0}, {"n_permutations": 9, "threads": 0}):
            with pytest.raises(ValueError, match="n_permutations|threads"):
                permutation_test(values, range(750), range(750, 1500), **bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak  # the sub-Gram copy alone is 18 MB


def test_permutation_test_rejects_non_finite_gram():
    # an all-NaN Gram used to score every permutation as NaN and report p = 0.01
    with pytest.raises(ValueError, match="non-finite"):
        permutation_test(np.full((4, 4), np.nan), [0, 1], [2, 3], n_permutations=99)
    values = np.eye(4)
    for bad in (np.inf, -np.inf, np.nan):
        values[0, 3] = values[3, 0] = bad
        with pytest.raises(ValueError, match=rf"non-finite entry {bad} at \(0, 3\)"):
            permutation_test(values, [0, 1], [2, 3], n_permutations=99)


def test_to_json_payload(rng):
    values = random_psd(rng, 8)
    res = permutation_test(values, range(4), range(4, 8), n_permutations=99, seed=5)
    payload = res.to_json(kernel_spec_ref={"name": "stub"})
    assert set(payload) == {
        "statistic",
        "p_value",
        "n_permutations",
        "seed",
        "sample_sizes",
        "kernel_spec_ref",
        "quantiles",
    }
    assert payload["sample_sizes"] == [4, 4]
    assert payload["kernel_spec_ref"] == {"name": "stub"}


def test_nearest_mean_classify():
    # block kernel: queries 4 and 5 align with classes A and B respectively
    values = np.array(
        [
            [1.0, 0.9, 0.1, 0.1, 0.9, 0.1],
            [0.9, 1.0, 0.1, 0.1, 0.9, 0.1],
            [0.1, 0.1, 1.0, 0.9, 0.1, 0.9],
            [0.1, 0.1, 0.9, 1.0, 0.1, 0.9],
            [0.9, 0.9, 0.1, 0.1, 1.0, 0.1],
            [0.1, 0.1, 0.9, 0.9, 0.1, 1.0],
        ]
    )
    got = nearest_mean_classify(values, [0, 1], [2, 3], [4, 5])
    assert got.tolist() == [0, 1]


def test_nearest_mean_tie_goes_to_first_class():
    values = np.ones((4, 4))
    got = nearest_mean_classify(values, [0], [1], [2, 3])
    assert got.tolist() == [0, 0]


def test_nearest_mean_validation():
    values = np.eye(4)
    with pytest.raises(ValueError, match="query"):
        nearest_mean_classify(values, [0], [1], [])
    with pytest.raises(ValueError, match="overlap the training"):
        nearest_mean_classify(values, [0], [1], [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        nearest_mean_classify(values, [0], [1], [7])
    with pytest.raises(ValueError, match="query repeats index 2"):
        nearest_mean_classify(values, [0], [1], [2, 2])
    with pytest.raises(ValueError, match="sample A repeats index 0"):
        nearest_mean_classify(values, [0, 0], [1], [2])
