"""Smoke check of the benchmark itself, at tiny cohort sizes.

    python3 -m pytest -q perfbench

It runs every workload in both modes, shows that a corrupted Gram CSV is
counted as a failed operation, and that the benchmark refuses to run without
the package's sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from checks import Verifier, tk
from workloads import ROOT, WORKLOADS, metric_units

TINY = {
    "rootpath-attr": {"size": 8},
    "gbc-wide": {"size": 10},
    "allpairs-big": {"size": 4, "config": {"p_branch": 1.0, "max_depth": 4}},
}
SEED = 3


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    metrics, tally, record = run.run(tiny(name), SEED, 0.1, trace, tmp_path)
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= 1 + len(run.PIPELINE)
    assert set(metrics) == set(metric_units(trace))
    assert all(math.isfinite(value) for value in metrics.values())
    assert record["environment"]["cohort"]["trees"] == TINY[name]["size"]


def test_corrupted_gram_is_a_failed_operation(tmp_path):
    workload = tiny("rootpath-attr")
    tally = run.Tally()
    cohort = run.generate(workload, SEED, tmp_path / "cohort", tally)
    verifier = Verifier(workload, SEED, cohort.trees, cohort.labels)
    out = tmp_path / "iteration"
    commands = run.run_pipeline(workload, SEED, cohort, out)
    assert verifier.verdict(out) == {"kernel": [], "test": [], "classify": []}

    # Still finite, exactly symmetric and with a unit diagonal: only the
    # oracle comparison can tell that the entries are wrong.
    gram = tk.load_gram(out / "gram.csv")
    values = gram.values * (1.0 + 1e-6)
    np.fill_diagonal(values, 1.0)
    tk.save_gram(dataclasses.replace(gram, values=values), out / "gram.csv")

    verdict = verifier.verdict(out)
    assert any("oracle" in problem for problem in verdict["kernel"])
    failed = tally.failed
    tally.record_pipeline(commands, verdict, "corrupted")
    assert tally.failed > failed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    args = [sys.executable, *command[1:], "--workload", "gbc-wide", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
