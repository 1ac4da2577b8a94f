"""In-process pipeline passes, with and without spans, for per-layer numbers.

A pass calls the public functions the CLI commands call, in the CLI's order:
``load_dataset``, ``assemble`` (which calls ``kernel.prepare``),
``normalize``, ``save_gram``; ``load_gram`` and ``permutation_test``;
``load_gram`` and ``nearest_mean_classify``. ``psd_check``, which no command
runs yet, follows as a span of its own outside the three command spans.

The traced pass hands ``assemble`` a kernel whose ``prepare`` and ``value``
wrap the registry kernel's callables, so assembly splits into kernel time and
its own dispatch time without touching the package.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import uuid
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checks import PERMUTATIONS, class_indices, holdout_split
from workloads import Workload, import_treekern

tk = import_treekern()


class Tracer:
    """Spans of one traced pass, kept in memory until written out.

    Layer spans nest through a stack on the calling thread. ``kernel.value``
    runs on the assembly pool's threads, once per tree pair, so its intervals
    go to per-thread buffers under the assemble span instead of one record
    per call.
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._value_buffers: list[array] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _buffer(self) -> array:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = array("d")
            with self._lock:
                self._value_buffers.append(buf)
        return buf

    def wrap(self, kernel):
        """The kernel with ``prepare`` and ``value`` recorded as child spans."""

        def prepare(trees):
            with self.span("registry.prepare") as record:
                record["rss_before"] = _rss_bytes()
                kernel.prepare(trees)
                record["rss_after"] = _rss_bytes()

        def value(t1, t2):
            start = time.perf_counter()
            result = kernel.value(t1, t2)
            end = time.perf_counter()
            buf = self._buffer()
            buf.append(start)
            buf.append(end)
            return result

        return replace(kernel, prepare=prepare, value=value)

    def value_intervals(self) -> np.ndarray:
        """(start, end) rows of every recorded ``kernel.value`` call."""
        parts = [np.frombuffer(buf, dtype=float).reshape(-1, 2) for buf in self._value_buffers]
        return np.concatenate(parts) if parts else np.empty((0, 2))

    def export(self) -> dict:
        values = self.value_intervals()
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "kernel.value": {
                "count": len(values),
                "total_s": float((values[:, 1] - values[:, 0]).sum()),
            },
        }


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def covered_seconds(intervals: np.ndarray) -> float:
    """Length of the union of (start, end) intervals."""
    if len(intervals) == 0:
        return 0.0
    intervals = intervals[np.argsort(intervals[:, 0])]
    reach = np.maximum.accumulate(intervals[:, 1])
    gaps = np.maximum(intervals[1:, 0] - reach[:-1], 0.0)
    return float(reach[-1] - intervals[0, 0] - gaps.sum())


@dataclass
class PassResult:
    wall_s: float
    command_s: dict[str, float]
    gram: object
    statistic: float
    p_value: float
    accuracy: float


def pipeline_pass(workload: Workload, seed: int, trees_path: Path, labels_path: Path,
                  out_dir: Path, tracer: Tracer | None = None) -> PassResult:
    """Run the CLI pipeline's calls in-process; spans only when ``tracer`` is given."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    gram_path = out_dir / "gram.csv"
    command_s: dict[str, float] = {}
    started = time.perf_counter()
    with span("pipeline"):
        tic = time.perf_counter()
        with span("command.kernel"):
            with span("trees.load_dataset"):
                trees = tk.load_dataset(trees_path)
            kernel = tk.build_kernel(workload.kernel, **workload.kernel_params)
            with span("gram.assemble"):
                gram = tk.assemble(trees, tracer.wrap(kernel) if tracer is not None else kernel)
            with span("gram.normalize"):
                gram = tk.normalize(gram)
            with span("gram.save_gram"):
                tk.save_gram(gram, gram_path)
        command_s["kernel"] = time.perf_counter() - tic
        with span("gram.psd_check"):
            tk.psd_check(gram)
        labels = tk.load_labels(labels_path)
        tic = time.perf_counter()
        with span("command.test"):
            with span("gram.load_gram"):
                loaded = tk.load_gram(gram_path)
            idx_a, idx_b = class_indices(loaded.ids, labels)
            with span("twosample.permutation_test"):
                result = tk.permutation_test(loaded, idx_a, idx_b, n_permutations=PERMUTATIONS, seed=seed)
        command_s["test"] = time.perf_counter() - tic
        tic = time.perf_counter()
        with span("command.classify"):
            with span("gram.load_gram"):
                loaded = tk.load_gram(gram_path)
            train_a, train_b, query, truth = holdout_split(*class_indices(loaded.ids, labels), seed)
            with span("twosample.classify"):
                predicted = tk.nearest_mean_classify(loaded, train_a, train_b, query)
        command_s["classify"] = time.perf_counter() - tic
    return PassResult(
        wall_s=time.perf_counter() - started,
        command_s=command_s,
        gram=gram,
        statistic=result.statistic,
        p_value=result.p_value,
        accuracy=float((predicted == truth).mean()),
    )


def layer_metrics(tracer: Tracer, gram_path: Path) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)

    def seconds(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    (assemble,) = by_name["gram.assemble"]
    (prepare,) = by_name["registry.prepare"]
    values = tracer.value_intervals()
    children = np.vstack([values, [[prepare["start"], prepare["end"]]]])
    children = np.clip(children, assemble["start"], assemble["end"])
    span_s = assemble["end"] - assemble["start"]
    prepare_s = prepare["end"] - prepare["start"]
    permutation_s = seconds("twosample.permutation_test")
    return {
        "trees.load_dataset_s": seconds("trees.load_dataset"),
        "registry.prepare_s": prepare_s,
        "registry.prepare_rss_mb": (prepare["rss_after"] - prepare["rss_before"]) / 2**20,
        # Assembly proper: the assemble span without the prepare it calls.
        "gram.assemble_s": span_s - prepare_s,
        "gram.assemble_self_s": span_s - covered_seconds(children),
        "gram.pairs_per_s": len(values) / (span_s - prepare_s),
        "gram.normalize_s": seconds("gram.normalize"),
        "gram.psd_check_s": seconds("gram.psd_check"),
        "gram.save_gram_s": seconds("gram.save_gram"),
        "gram.csv_mb": gram_path.stat().st_size / 2**20,
        "gram.load_gram_s": seconds("gram.load_gram") / len(by_name["gram.load_gram"]),
        "twosample.permutation_test_s": permutation_s,
        "twosample.permutations_per_s": PERMUTATIONS / permutation_s,
        "twosample.classify_s": seconds("twosample.classify"),
        "kernel.value_calls": float(len(values)),
    }


PROBE_PAIRS = 32
PROBE_REPEATS = 3


def value_probe_us(trees, kernel_name: str, params: dict, seed: int) -> np.ndarray:
    """Warm per-pair ``kernel.value`` time in microseconds on a seeded pair
    sample: the fastest of a few calls per pair, after one warming call."""
    kernel = tk.build_kernel(kernel_name, **params)
    rng = np.random.default_rng([seed, 11])
    pairs = rng.integers(0, len(trees), size=(PROBE_PAIRS, 2))
    kernel.prepare([trees[i] for i in np.unique(pairs)])
    out = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        t1, t2 = trees[i], trees[j]
        kernel.value(t1, t2)
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            tic = time.perf_counter()
            kernel.value(t1, t2)
            best = min(best, time.perf_counter() - tic)
        out[k] = best * 1e6
    return out
