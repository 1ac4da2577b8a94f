"""Command line interface.

Subcommands: ``gen`` (synthetic two-class datasets), ``kernel`` (Gram matrix
CSV + sidecar), ``test`` (permutation two-sample test), ``classify``
(nearest-mean holdout evaluation), and ``bench`` (kernel scaling timings).
Once a command names its output, :func:`main` writes a run manifest beside
it (inside it for ``gen``), on success and on a data error; README §Files lists its keys.

Exit codes: 0 on success, 2 on usage errors (bad flags or incompatible
kernel specs), 1 on data errors (unreadable or inconsistent inputs) and on
allocations that fail.

Each command imports the modules it runs when it runs, so ``test`` and
``classify`` load no kernel module, tree model or generator, and building
the parser loads none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

if TYPE_CHECKING:  # annotations only: a command imports gram when it runs
    from .gram import GramMatrix

__all__ = ["main", "entrypoint", "benchmark_kernel", "fit_slope"]


class UsageError(Exception):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as src:
        while chunk := src.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb() -> float | None:
    """This process's own peak resident set in MiB (``VmHWM``), or None where
    ``/proc/self/status`` is absent. ``ru_maxrss`` cannot stand in for it:
    Linux carries the parent's high-water mark into a child across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # reported in kB
    except OSError:
        pass
    return None


@dataclass
class Run:
    """One command run's record, which :func:`main` writes as its manifest; ``fields`` are extra keys."""

    args: argparse.Namespace
    started: float = field(default_factory=time.perf_counter)
    manifest: Path | None = None
    input_files: list = field(default_factory=list)
    kernel_spec: dict | None = None
    stages: dict[str, float] = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    running: str | None = None  # the innermost stage under way

    def output(self, path, directory: bool = False) -> Path:
        """Name the output ``path`` and make its directory (``path`` itself for a ``directory``); the
        manifest goes beside it as ``<out>.manifest.json``, or inside it as ``manifest.json``."""
        out = Path(path)
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
        self.manifest = out / "manifest.json" if directory else Path(f"{out}.manifest.json")
        return out

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the block's wall-clock seconds to ``stages[name]``; a block that raises stays running."""
        self.fields["stages"] = self.stages
        outer, self.running = self.running, name
        tic = time.perf_counter()
        yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - tic
        self.running = outer

    def write(self, error: str | None = None) -> None:
        """Write the manifest once an output is named; an ``error`` adds it and the running stage."""
        if self.manifest is None:
            return
        arguments = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(self.args).items()
            if k != "func" and not k.startswith("_")
        }
        manifest = {
            "command": self.args.command,
            "arguments": arguments,
            "kernel_spec": self.kernel_spec,
            "input_hashes": {str(f): _sha256(f) if f.is_file() else None for f in map(Path, self.input_files)},
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "duration_seconds": time.perf_counter() - self.started,
            "peak_rss_mb": _peak_rss_mb(),
            **self.fields,
            "status": "ok" if error is None else "error",
        }
        if error is not None:
            manifest.update(stage=self.running, error=error)
        self.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- gen --------------------------------------------------------------------------


# Trees per forked worker below which forking costs more than it saves: on 2
# CPUs, 120 trees grew faster in-process and 700 forked (README §Determinism).
_TREES_PER_WORKER = 125


def _gen_workers(trees: int) -> int:
    """Worker processes that grow ``trees`` trees: one per CPU this process may
    run on and per ``_TREES_PER_WORKER`` trees, or none, and they grow
    in-process, where that is fewer than two or ``fork`` is unavailable."""
    from .gram import usable_cpus

    workers = min(usable_cpus(), trees // _TREES_PER_WORKER)
    return workers if workers > 1 and hasattr(os, "fork") else 0


def _grow_chunk(steps: list) -> list[tuple[str, int, bytes]]:
    """(id, node count, serialized bytes) of the tree of each plan step, grown in one call."""
    from .generate import generate_trees
    from .trees import serialize_tree

    return [(tree.id, tree.size, serialize_tree(tree)) for tree in generate_trees(steps)]


def _grow(plan: list, workers: int):
    """:func:`_grow_chunk` of a :func:`~treekern.generate.two_class_plan`, tree by tree in plan order.

    The plan is cut into about four chunks per worker, so the larger trees
    of one class spread over every worker. A tree's draws depend only on
    (seed, offset), so the bytes are the same whichever process grows it
    and whichever chunk it grows with. Workers are forked: they inherit the
    loaded modules instead of importing them again. Without workers the
    whole plan grows in one call.
    """
    if not workers:
        yield from _grow_chunk(plan)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = math.ceil(len(plan) / (4 * workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for grown in pool.map(_grow_chunk, [plan[k : k + size] for k in range(0, len(plan), size)]):
            yield from grown


def cmd_gen(args: argparse.Namespace, run: Run) -> None:
    from . import generate
    from .gram import errors_from, save_labels
    from .trees import save_serialized

    _check_min("--size", args.size, 2)  # one tree per class
    _check_min("--seed", args.seed, 0)
    cfg_a, cfg_b = generate.preset_configs(args.preset, args.seed)
    if args.config is not None:
        with errors_from(args.config):
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(overrides, dict):
                raise ValueError("expected a JSON object of generator fields")
            if "seed" in overrides:  # the manifest records --seed, so only --seed may set it
                raise ValueError("seed is set by --seed, not by the config file")
            try:
                cfg_a, cfg_b = replace(cfg_a, **overrides), replace(cfg_b, **overrides)
            except TypeError as exc:  # an unknown field; a bad value raises ValueError
                raise ValueError(exc) from exc
    size_a, size_b = (args.size + 1) // 2, args.size // 2
    plan = generate.two_class_plan(cfg_a, cfg_b, size_a, size_b)
    out = run.output(args.out, directory=True)
    workers = run.fields["workers"] = _gen_workers(len(plan))
    ids, sizes = [], []

    def blobs(grown):
        # Waiting for the next tree counts as growing; the rest is writing.
        while True:
            with run.stage("grow"):
                tree = next(grown, None)
            if tree is None:
                return
            ids.append(tree[0])
            sizes.append(tree[1])
            yield tree[2]

    with run.stage("write"), contextlib.closing(_grow(plan, workers)) as grown:
        save_serialized(blobs(grown), out / "trees.json")
        save_labels(ids, [label for *_, label in plan], out / "labels.csv")
    run.stages["write"] -= run.stages["grow"]
    print(
        f"wrote {len(ids)} trees ({size_a}+{size_b}, preset {args.preset}, "
        f"{min(sizes)}-{max(sizes)} nodes) to {out}"
    )


# -- kernel -----------------------------------------------------------------------

def _kernel_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if getattr(args, "spec_json", None):
        raw = args.spec_json
        try:
            is_file = Path(raw).is_file()
        except OSError:  # an inline object longer than a file name can be
            is_file = False
        text = Path(raw).read_text(encoding="utf-8") if is_file else raw
        try:
            loaded = json.loads(text)
        except ValueError as exc:  # malformed, or an integer of more digits than Python reads
            raise UsageError(f"--spec-json is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("--spec-json must be a JSON object")
        params.update(loaded)
    for flag, key, _ in _KERNEL_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's destination for the flag
        if value is not None and value is not False:  # an unset flag is None, or False for a switch
            params[key] = value
    return params


def _or_usage(call, /, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except ValueError as exc:  # a kernel spec the kernel or the cohort cannot take
        raise UsageError(str(exc)) from exc


def _check_min(flag: str, value: int | None, low: int) -> None:
    """A usage error unless ``value`` is at least ``low``; an unset flag (None) passes."""
    if value is not None and value < low:
        raise UsageError(f"{flag} must be >= {low}")


def cmd_kernel(args: argparse.Namespace, run: Run) -> None:
    from .baselines import check_component
    from .gram import assemble, blas_threads, check_normalizable, check_writable_ids, normalize, save_gram
    from .path_kernels import check_landmark_fit
    from .registry import build_kernel
    from .trees import dataset_files, load_dataset

    kernel = _or_usage(build_kernel, args.kernel, **_kernel_params(args))
    _check_min("--threads", args.threads, 1)
    if args.normalize:
        _or_usage(check_normalizable, kernel.spec)
    out = run.output(args.out)
    run.kernel_spec = kernel.spec
    with run.stage("load"):
        run.input_files = dataset_files(args.trees)
        trees = load_dataset(args.trees)
        check_writable_ids([tree.id for tree in trees])  # save_gram's rule, before any assembly time is spent
    if "landmarks" in kernel.params:  # the spec allows counts too large for the cohort's n
        _or_usage(check_landmark_fit, kernel.params["landmarks"], trees[0].n)
    if "component" in kernel.params and trees[0].d > 0:  # d = 0 is a data error, which names the tree
        _or_usage(check_component, kernel.params["component"], trees[0].d)
    run.fields["blas_threads"] = blas_threads()
    with run.stage("assemble"):
        matrix = assemble(trees, kernel)
    if args.normalize:
        with run.stage("normalize"):
            matrix = normalize(matrix)
    with run.stage("save"):
        save_gram(matrix, out)
    n_pairs = run.fields["n_pairs"] = matrix.size * (matrix.size + 1) // 2
    run.fields["pairs_per_second"] = n_pairs / max(run.stages["assemble"], 1e-9)
    print(f"wrote {matrix.size}x{matrix.size} Gram matrix ({args.kernel}) to {out}")


# -- test -------------------------------------------------------------------------


def _labelled_gram(args: argparse.Namespace, run: Run) -> tuple[Path, GramMatrix, list[int], list[int]]:
    """Name the output, load the Gram matrix and the labels in stage ``load`` and split the trees by label 0 and 1."""
    from .gram import load_gram, load_labels

    out = run.output(args.out)
    run.input_files = [args.gram, args.labels]
    with run.stage("load"):
        matrix = load_gram(args.gram)
        run.kernel_spec = matrix.kernel_spec or None
        labels = load_labels(args.labels)
    missing = [i for i in matrix.ids if i not in labels]
    if missing:
        raise ValueError(f"no label for tree id '{missing[0]}'")
    idx_a = [k for k, tree_id in enumerate(matrix.ids) if labels[tree_id] == 0]
    idx_b = [k for k, tree_id in enumerate(matrix.ids) if labels[tree_id] == 1]
    if not idx_a or not idx_b:
        raise ValueError("both label classes must be non-empty")
    return out, matrix, idx_a, idx_b


def cmd_test(args: argparse.Namespace, run: Run) -> None:
    from .gram import blas_threads
    from .twosample import permutation_test, scoring_threads

    _check_min("--permutations", args.permutations, 1)
    _check_min("--seed", args.seed, 0)
    _check_min("--threads", args.threads, 1)
    out, matrix, idx_a, idx_b = _labelled_gram(args, run)
    run.fields["blas_threads"] = blas_threads()
    run.fields["scoring_threads"] = scoring_threads(args.permutations, args.threads)
    with run.stage("permutation_test"):
        result = permutation_test(
            matrix, idx_a, idx_b, n_permutations=args.permutations, seed=args.seed, threads=args.threads
        )
    payload = result.to_json(kernel_spec_ref=run.kernel_spec)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    run.fields["n_permutations"] = result.n_permutations
    print(f"statistic={result.statistic:.6g} p_value={result.p_value:.6g} (N={result.n_permutations})")


# -- classify -----------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace, run: Run) -> None:
    from .twosample import nearest_mean_classify

    if not 0.0 < args.holdout < 1.0:
        raise UsageError("--holdout must lie strictly between 0 and 1")
    _check_min("--seed", args.seed, 0)
    out, matrix, idx_a, idx_b = _labelled_gram(args, run)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    train: dict[str, list[int]] = {}
    test: dict[str, list[int]] = {}
    for name, idx in (("a", idx_a), ("b", idx_b)):
        shuffled = [idx[k] for k in rng.permutation(len(idx))]
        n_test = max(1, round(args.holdout * len(idx)))
        if n_test >= len(idx):
            raise ValueError(f"holdout {args.holdout} leaves class {name.upper()} without training trees")
        test[name] = sorted(shuffled[:n_test])
        train[name] = sorted(shuffled[n_test:])
    query = test["a"] + test["b"]
    truth = np.array([0] * len(test["a"]) + [1] * len(test["b"]))
    with run.stage("classify"):
        predicted = nearest_mean_classify(matrix, train["a"], train["b"], query)
    accuracy = float((predicted == truth).mean())
    report = {
        "accuracy": accuracy,
        "holdout": args.holdout,
        "seed": args.seed,
        "n_train": {"class0": len(train["a"]), "class1": len(train["b"])},
        "n_test": {"class0": len(test["a"]), "class1": len(test["b"])},
        "correct": int((predicted == truth).sum()),
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"accuracy={accuracy:.4f} on {len(query)} held-out trees")


# -- bench --------------------------------------------------------------------------


def benchmark_kernel(
    kernel_name: str,
    sizes: list[int],
    repeats: int = 3,
    seed: int = 0,
    params: dict | None = None,
) -> list[dict]:
    """Median per-pair evaluation time of a kernel on balanced binary trees.

    The kernel's route builds the two trees' inputs once, untimed; each
    timed call, after a warm-up one, evaluates the pair from those inputs,
    matching the per-pair cost model.
    """
    from .generate import balanced_binary_tree
    from .registry import build_kernel

    route = build_kernel(kernel_name, **(params or {})).cohort
    rows = []
    for size in sizes:
        pair = (balanced_binary_tree(size, seed=seed), balanced_binary_tree(size, seed=seed + 1))
        inputs = route.inputs(pair)
        route.entry(pair, inputs)  # warm-up
        once = time.perf_counter()
        route.entry(pair, inputs)
        estimate = max(time.perf_counter() - once, 1e-9)
        loops = max(1, min(10000, int(np.ceil(0.02 / estimate))))
        samples = []
        for _ in range(repeats):
            tic = time.perf_counter()
            for _ in range(loops):
                route.entry(pair, inputs)
            samples.append((time.perf_counter() - tic) / loops)
        rows.append(
            {
                "kernel": kernel_name,
                "n_nodes": size,
                "height": pair[0].height,
                "repeats": repeats,
                "loops": loops,
                "median_seconds": float(np.median(samples)),
            }
        )
    return rows


def fit_slope(rows: list[dict]) -> float:
    """Least-squares slope of log(median time) against log(node count)."""
    x = np.log([row["n_nodes"] for row in rows])
    y = np.log([row["median_seconds"] for row in rows])
    return float(np.polyfit(x, y, 1)[0])


def cmd_bench(args: argparse.Namespace, run: Run) -> None:
    from .registry import build_kernel

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"--sizes must be a comma-separated list of integers: {exc}") from exc
    if not sizes or min(sizes) < 1:
        raise UsageError("--sizes must list positive integers")
    if len(set(sizes)) < len(sizes):
        raise UsageError("--sizes must not repeat a size: the slope is fitted across distinct sizes")
    _check_min("--repeats", args.repeats, 1)
    _check_min("--seed", args.seed, 0)
    params = _kernel_params(args)
    run.kernel_spec = _or_usage(build_kernel, args.kernel, **params).spec  # validate before timing
    out = run.output(args.out)
    rows = benchmark_kernel(args.kernel, sizes, repeats=args.repeats, seed=args.seed, params=params)
    header = "kernel,n_nodes,height,repeats,loops,median_seconds"
    lines = [header] + [
        f"{r['kernel']},{r['n_nodes']},{r['height']},{r['repeats']},{r['loops']},{r['median_seconds']:.9e}"
        for r in rows
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    slope = fit_slope(rows) if len(rows) >= 2 else float("nan")
    for r in rows:
        print(f"{r['kernel']}  |V|={r['n_nodes']:<5d} median {r['median_seconds']:.3e} s")
    print(f"{args.kernel} fitted log-log slope vs |V|: {slope:.3f}")


# -- parser -------------------------------------------------------------------------

# What the parser quotes from the kernel catalog and the generator, written
# out so that building it imports neither; tests/test_cli.py holds them to
# registry.KERNEL_NAMES, less the literal root-path route (a test oracle, which
# only the library runs), the catalog's defaults and generate.PRESET_NAMES.
_KERNEL_NAMES = ("all-pairs-embedded", "rootpath-embedded", "all-pairs-node", "rootpath-node",
                 "rootpath-node-linear-fast", "pointcloud", "aaw", "agaw", "lbc", "gbc", "sp", "wl")
_HELP_DEFAULTS = {"landmarks": 20, "gen_lo": 3, "gen_hi": 6, "iterations": 10}
_PRESET_NAMES = ("null", "branch-shift", "attr-shift")

# Kernel-spec flags, one row each: (flag, the kernel parameter it sets, its argparse keywords).
_KERNEL_FLAGS = (
    ("--form", "form", {"choices": ["linear", "gaussian"], "help": "node kernel form"}),
    ("--use-attributes", "use_attributes",
     {"action": "store_true", "help": "multiply the attribute factor into the node kernel"}),
    ("--lambda1", "lambda1", {"type": float, "help": "gaussian position scale (default 1/n)"}),
    ("--lambda2", "lambda2", {"type": float, "help": "gaussian attribute scale (default 1/d)"}),
    ("--lam", "lam", {"type": float, "help": "embedded gaussian scale"}),
    ("--landmarks", "landmarks",
     {"type": int, "help": f"equidistant points per resampled path (default {_HELP_DEFAULTS['landmarks']})"}),
    ("--component", "component", {"type": int, "help": "attribute component index"}),
    ("--gen-lo", "gen_lo", {"type": int, "help": f"first generation for agaw (default {_HELP_DEFAULTS['gen_lo']})"}),
    ("--gen-hi", "gen_hi", {"type": int, "help": f"last generation for agaw (default {_HELP_DEFAULTS['gen_hi']})"}),
    ("--wl-iterations", "iterations",
     {"type": int, "help": f"label refinement rounds (default {_HELP_DEFAULTS['iterations']})"}),
    ("--length-kernel", "length_kernel", {"choices": ["delta", "linear"], "help": "path length comparison for sp"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treekern", description="Geometric tree kernels")
    sub = parser.add_subparsers(dest="command", required=True)
    spec_flags = argparse.ArgumentParser(add_help=False)
    group = spec_flags.add_argument_group("kernel spec")
    for flag, _, keywords in _KERNEL_FLAGS:
        group.add_argument(flag, **keywords)
    group.add_argument("--spec-json", dest="spec_json", default=None,
                       help="kernel parameters as inline JSON or a JSON file path")

    p = sub.add_parser("gen", help="generate a synthetic two-class dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=list(_PRESET_NAMES), default="null",
                   help="two-class dataset preset")
    p.add_argument("--size", type=int, default=100, help="total number of trees")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--config", default=None, help="JSON file of generator field overrides")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("kernel", parents=[spec_flags], help="assemble a Gram matrix CSV")
    p.add_argument("trees", help="tree dataset (JSON array file or directory)")
    p.add_argument("--kernel", required=True, choices=list(_KERNEL_NAMES),
                   help="kernel name")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--normalize", action="store_true",
                   help="cosine-normalize so diagonal entries become 1")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; no effect (runs serially)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("test", help="permutation two-sample test on a Gram matrix")
    p.add_argument("gram", help="Gram CSV written by the kernel command")
    p.add_argument("labels", help="label CSV (tree_id,label)")
    p.add_argument("--permutations", type=int, default=10000,
                   help="number of random relabelings")
    p.add_argument("--seed", type=int, default=0, help="permutation seed")
    p.add_argument("--threads", type=int, default=None,
                   help="cap on the threads that score the permutations "
                        "(default: one per usable CPU; the output does not depend on it)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("classify", help="nearest-mean holdout classification")
    p.add_argument("gram", help="Gram CSV written by the kernel command")
    p.add_argument("labels", help="label CSV (tree_id,label)")
    p.add_argument("--holdout", type=float, default=0.2,
                   help="held-out fraction per class")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", parents=[spec_flags], help="kernel scaling benchmark")
    p.add_argument("--kernel", required=True, choices=list(_KERNEL_NAMES),
                   help="kernel name")
    p.add_argument("--sizes", default="50,100,200,400,800",
                   help="comma-separated node counts")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repetitions per size")
    p.add_argument("--seed", type=int, default=0, help="tree generation seed")
    p.add_argument("--out", required=True, help="timings CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = Run(args)
    try:
        args.func(args, run)
        run.write()
        return 0
    except UsageError as exc:  # writes no manifest
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, MemoryError) as exc:  # MemoryError: e.g. numpy's "Unable to allocate ..."
        error = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
        print(f"error: {run.running}: {error}" if run.running else f"error: {error}", file=sys.stderr)
        with contextlib.suppress(Exception):  # a manifest that cannot be written leaves the error as it is
            run.write(error)
        return 1


def entrypoint() -> None:
    # Warnings go to stderr as one line each, without the source line that
    # the default format quotes.
    warnings.formatwarning = lambda message, *details: f"warning: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
