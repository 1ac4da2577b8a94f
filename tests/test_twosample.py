"""Two-sample statistic, permutation test, and the nearest-mean classifier."""

import numpy as np
import pytest

from treekern import (
    mean_distance_statistic,
    nearest_mean_classify,
    permutation_test,
)


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


def test_permutation_test_is_deterministic(rng):
    values = random_psd(rng, 12)
    first = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=42)
    second = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=42)
    assert first == second
    other = permutation_test(values, range(6), range(6, 12), n_permutations=300, seed=43)
    assert other.permutation_summary != first.permutation_summary


def test_permutation_test_is_worker_count_invariant(rng):
    # enough permutations to span several scoring blocks, so the thread
    # pool actually gets more than one unit of work to hand out
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


def test_permutation_test_observed_statistic(rng):
    values = random_psd(rng, 10)
    idx_a, idx_b = [0, 2, 4], [1, 3, 5, 6]
    res = permutation_test(values, idx_a, idx_b, n_permutations=50, seed=1)
    direct = mean_distance_statistic(values, idx_a, idx_b)
    assert abs(res.statistic - direct) <= 1e-12
    assert res.sample_sizes == (3, 4)
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


def test_permutation_test_rejects_non_finite_gram():
    # an all-NaN Gram used to score every permutation as NaN and report p = 0.01
    with pytest.raises(ValueError, match="non-finite"):
        permutation_test(np.full((4, 4), np.nan), [0, 1], [2, 3], n_permutations=99)
    values = np.eye(4)
    values[0, 3] = values[3, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
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
