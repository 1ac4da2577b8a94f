"""Output checks for one pipeline run (Gram CSV, test result, classify report).

Every check that fails is reported against the command whose output it
checks, so a wrong answer counts as a failed operation, not a crash.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import Workload, import_treekern

tk = import_treekern()

PERMUTATIONS = 10000  # the `test` command's default
HOLDOUT = 0.2  # the `classify` command's default
ORACLE_TREES = 6  # every pair among this many sampled trees is recomputed
ORACLE_RTOL = 1e-9
# Normalization divides K_ii by sqrt(K_ii)^2, which may round one ulp away.
DIAGONAL_TOL = 1e-12

OUTPUTS = ("gram.csv", "test.json", "classify.json")


def output_digest(out_dir: Path) -> str:
    """Hash of a run's outputs; equal digests share one verdict."""
    h = hashlib.sha256()
    for name in OUTPUTS:
        path = out_dir / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def class_indices(ids: list[str], labels: dict[str, int]) -> tuple[list[int], list[int]]:
    idx_a = [k for k, tree_id in enumerate(ids) if labels[tree_id] == 0]
    idx_b = [k for k, tree_id in enumerate(ids) if labels[tree_id] == 1]
    return idx_a, idx_b


def holdout_split(idx_a, idx_b, seed: int, holdout: float = HOLDOUT):
    """The `classify` command's seeded per-class split: train_a, train_b,
    query indices and their true labels."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    train, test = [], []
    for idx in (idx_a, idx_b):
        shuffled = [idx[k] for k in rng.permutation(len(idx))]
        n_test = max(1, round(holdout * len(idx)))
        test.append(sorted(shuffled[:n_test]))
        train.append(sorted(shuffled[n_test:]))
    truth = np.array([0] * len(test[0]) + [1] * len(test[1]))
    return train[0], train[1], test[0] + test[1], truth


class Verifier:
    """Checks pipeline outputs for one cohort; caches verdicts by digest."""

    def __init__(self, workload: Workload, seed: int, trees_path: Path, labels_path: Path):
        self.workload = workload
        self.seed = seed
        self.trees = tk.load_dataset(trees_path)
        self.labels = tk.load_labels(labels_path)
        self._oracle: dict[tuple[int, int], float] | None = None
        self._verdicts: dict[str, dict[str, list[str]]] = {}

    def verdict(self, out_dir: Path) -> dict[str, list[str]]:
        """Problems found per command (``kernel``, ``test``, ``classify``)."""
        digest = output_digest(out_dir)
        if digest not in self._verdicts:
            self._verdicts[digest] = self.check(out_dir)
        return self._verdicts[digest]

    def check(self, out_dir: Path) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {"kernel": [], "test": [], "classify": []}
        try:
            gram = tk.load_gram(out_dir / "gram.csv")
        except (ValueError, OSError) as exc:
            for op in problems:
                problems[op].append(f"Gram CSV unreadable: {exc}")
            return problems
        problems["kernel"] = self._guarded(self.gram_problems, gram)
        problems["test"] = self._guarded(self.test_problems, gram, out_dir / "test.json")
        problems["classify"] = self._guarded(self.classify_problems, gram, out_dir / "classify.json")
        return problems

    @staticmethod
    def _guarded(check, *args) -> list[str]:
        try:
            return check(*args)
        except (ValueError, KeyError, OSError, TypeError, FloatingPointError) as exc:
            return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]

    def gram_problems(self, gram) -> list[str]:
        values = gram.values
        problems = []
        if gram.ids != [t.id for t in self.trees]:
            problems.append("Gram ids differ from the cohort's tree ids")
        if not gram.normalized:
            problems.append("sidecar does not mark the Gram as normalized")
        if not np.isfinite(values).all():
            problems.append(f"{int((~np.isfinite(values)).sum())} non-finite entries")
            return problems
        if not np.array_equal(values, values.T):
            problems.append("Gram is not exactly symmetric")
        worst_diag = float(np.abs(np.diag(values) - 1.0).max())
        if worst_diag > DIAGONAL_TOL:
            problems.append(f"diagonal deviates from 1 by {worst_diag:.3e}")
        report = tk.psd_check(gram)
        if not report.is_psd:
            problems.append(f"psd_check fails (min eigenvalue {report.min_eig:.3e})")
        oracle = self.oracle_values()
        for (i, j), expected in oracle.items():
            if i == j:
                continue
            want = expected / np.sqrt(oracle[i, i] * oracle[j, j])
            got = values[i, j]
            if abs(got - want) > ORACLE_RTOL * max(abs(got), abs(want)):
                problems.append(
                    f"entry ({gram.ids[i]}, {gram.ids[j]}) = {got!r}, oracle {want!r}"
                )
        return problems

    def oracle_values(self) -> dict[tuple[int, int], float]:
        """Unnormalized oracle kernel on every pair of a seeded tree sample."""
        if self._oracle is None:
            w = self.workload
            kernel = tk.build_kernel(w.oracle or w.kernel, **w.kernel_params)
            rng = np.random.default_rng([self.seed, 7])
            picked = sorted(rng.choice(len(self.trees), min(ORACLE_TREES, len(self.trees)), replace=False))
            kernel.prepare([self.trees[i] for i in picked])
            self._oracle = {
                (i, j): kernel.value(self.trees[i], self.trees[j])
                for a, i in enumerate(picked)
                for j in picked[a:]
            }
        return self._oracle

    def test_problems(self, gram, result_path: Path) -> list[str]:
        payload = json.loads(result_path.read_text(encoding="utf-8"))
        idx_a, idx_b = class_indices(gram.ids, self.labels)
        want = tk.permutation_test(
            gram, idx_a, idx_b, n_permutations=PERMUTATIONS, seed=self.seed, threads=1
        )
        problems = []
        for key in ("statistic", "p_value", "n_permutations"):
            if payload.get(key) != getattr(want, key):
                problems.append(f"test {key} = {payload.get(key)!r}, recomputed {getattr(want, key)!r}")
        return problems

    def classify_problems(self, gram, report_path: Path) -> list[str]:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        train_a, train_b, query, truth = holdout_split(*class_indices(gram.ids, self.labels), self.seed)
        predicted = tk.nearest_mean_classify(gram, train_a, train_b, query)
        want = {"accuracy": float((predicted == truth).mean()), "correct": int((predicted == truth).sum())}
        return [
            f"classify {key} = {report.get(key)!r}, recomputed {value!r}"
            for key, value in want.items()
            if report.get(key) != value
        ]
