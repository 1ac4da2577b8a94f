"""Benchmark workloads and the checkout the benchmark runs against.

Each workload is a cohort that ``treekern gen`` builds from the run's seed
plus the kernel the pipeline assembles over it. The three workloads stress
different layers, so an optimisation of one layer shows on the workload that
exercises it and leaves the others flat:

* ``rootpath-attr``: per-pair ``kernel.value`` and the assembly loop;
* ``gbc-wide``: tree parsing, Gram CSV write and read, and permutation
  scoring, with a negligible per-pair cost;
* ``allpairs-big``: per-tree path enumeration in ``kernel.prepare``, which
  also sets peak memory.

``BENCHMARK.json`` gives each workload's reason in one line. The per-kernel
microseconds-per-pair table in ROADMAP stays with ``treekern bench``; it is
not an end-to-end workload here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def metric_units(trace: bool) -> dict[str, str]:
    """Units of the metrics a run reports, as ``BENCHMARK.json`` declares
    them: the per-layer ones when traced, else the end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_treekern():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "treekern" / "__init__.py").is_file():
        raise RuntimeError(f"no treekern sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treekern

    if Path(treekern.__file__).resolve().parent != SRC / "treekern":
        raise RuntimeError(f"imported treekern from {treekern.__file__}, not from {SRC}")
    return treekern


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    size: int
    kernel: str
    use_attributes: bool
    # Kernel whose literal evaluation checks a sample of Gram entries; None
    # means the workload kernel's own per-pair ``value``.
    oracle: str | None = None
    # Generator field overrides, written to the file ``gen --config`` reads.
    config: dict = field(default_factory=dict)

    @property
    def kernel_params(self) -> dict:
        return {"use_attributes": True} if self.use_attributes else {}

    @property
    def kernel_flags(self) -> list[str]:
        return ["--kernel", self.kernel] + (["--use-attributes"] if self.use_attributes else [])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rootpath-attr",
            preset="attr-shift",
            size=120,
            kernel="rootpath-node",
            use_attributes=True,
            oracle="rootpath-node-naive",
        ),
        Workload(
            name="gbc-wide",
            preset="branch-shift",
            size=700,
            kernel="gbc",
            use_attributes=False,
        ),
        Workload(
            name="allpairs-big",
            preset="attr-shift",
            size=16,
            kernel="all-pairs-node",
            use_attributes=True,
            # Complete trees fix every tree's shape, so the cohort's work does
            # not swing with the seed; geometry and attributes still do.
            config={"p_branch": 1.0, "max_depth": 7},
        ),
    )
}

# Kernels whose warm per-pair cost the traced run samples on every workload.
# A workload whose own kernel lives in that module is sampled with it.
PATH_KERNEL_PROBE = ("rootpath-node", {"use_attributes": True})
BASELINE_PROBE = ("gbc", {})
PATH_KERNELS = ("rootpath-node", "rootpath-node-naive", "rootpath-node-linear-fast",
                "all-pairs-node", "all-pairs-embedded", "rootpath-embedded")


def probes(workload: Workload) -> dict[str, tuple[str, dict]]:
    own = (workload.kernel, workload.kernel_params)
    return {
        "path_kernels": own if workload.kernel in PATH_KERNELS else PATH_KERNEL_PROBE,
        "baselines": BASELINE_PROBE if workload.kernel in PATH_KERNELS else own,
    }
