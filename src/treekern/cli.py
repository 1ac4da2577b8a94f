"""Command line interface.

Subcommands: ``gen`` (synthetic two-class datasets), ``kernel`` (Gram matrix
CSV + sidecar), ``test`` (permutation two-sample test), ``classify``
(nearest-mean holdout evaluation), and ``bench`` (kernel scaling timings).
Every command writes a run manifest next to its output recording the
arguments, input hashes, seed, version, and wall-clock duration.

Exit codes: 0 on success, 2 on usage errors (bad flags or incompatible
kernel specs), 1 on data errors (unreadable or inconsistent inputs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, generate, twosample
from .gram import assemble, load_gram, normalize, save_gram
from .registry import KERNEL_NAMES, build_kernel
from .trees import dataset_files, load_dataset, save_dataset

__all__ = ["main", "entrypoint", "benchmark_kernel", "fit_slope"]


class UsageError(Exception):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as src:
        while chunk := src.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def stage(stages: dict[str, float], name: str):
    """Record the wall-clock seconds of the block as ``stages[name]``."""
    tic = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - tic


def _write_manifest(
    manifest_file: Path,
    command: str,
    args: argparse.Namespace,
    started: float,
    kernel_spec: dict | None = None,
    input_paths=(),
    **extra,
) -> None:
    arguments = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "arguments": arguments,
        "kernel_spec": kernel_spec,
        "input_hashes": {str(f): _sha256(f) for p in input_paths for f in dataset_files(p)},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "duration_seconds": time.perf_counter() - started,
        **extra,
    }
    manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- gen --------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg_a, cfg_b = generate.preset_configs(args.preset, args.seed)
    if args.config is not None:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: expected a JSON object of generator fields")
        try:
            cfg_a = replace(cfg_a, **overrides)
            cfg_b = replace(cfg_b, **overrides)
        except (TypeError, ValueError) as exc:  # an unknown field, or a bad value
            raise ValueError(f"{args.config}: {exc}") from exc
    if args.size < 2:
        raise ValueError("--size must be at least 2 (one tree per class)")
    size_a = (args.size + 1) // 2
    size_b = args.size - size_a
    trees, labels = generate.generate_two_class_population(cfg_a, cfg_b, size_a, size_b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(trees, out / "trees.json")
    generate.save_labels([t.id for t in trees], labels, out / "labels.csv")
    _write_manifest(out / "manifest.json", "gen", args, started)
    sizes = [t.size for t in trees]
    print(
        f"wrote {len(trees)} trees ({size_a}+{size_b}, preset {args.preset}, "
        f"{min(sizes)}-{max(sizes)} nodes) to {out}"
    )
    return 0


# -- kernel -----------------------------------------------------------------------

# Kernel-spec flags by destination; each sets the parameter of its name,
# except that --wl-iterations sets wl's "iterations".
_SPEC_FLAGS = ("form", "use_attributes", "lambda1", "lambda2", "lam", "landmarks",
               "component", "gen_lo", "gen_hi", "wl_iterations", "length_kernel")


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
    for attr in _SPEC_FLAGS:
        value = getattr(args, attr, None)
        key = "iterations" if attr == "wl_iterations" else attr
        if attr == "use_attributes":
            if value:
                params[key] = True
        elif value is not None:
            params[key] = value
    return params


def _build_kernel_or_usage(name: str, params: dict):
    try:
        return build_kernel(name, **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _out_path(args: argparse.Namespace) -> Path:
    """The ``--out`` file path, its parent directory created if missing."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _check_threads(threads: int | None) -> None:
    if threads is not None and threads < 1:
        raise UsageError("--threads must be >= 1")


def cmd_kernel(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _kernel_params(args)
    kernel = _build_kernel_or_usage(args.kernel, params)
    _check_threads(args.threads)
    if args.check_against_naive and args.kernel not in (
        "rootpath-node",
        "rootpath-node-linear-fast",
    ):
        raise UsageError("--check-against-naive applies to the decomposed rootpath kernels only")
    if args.normalize and kernel.scalar_linear:
        raise UsageError(
            f"--normalize is degenerate for the scalar linear kernel '{args.kernel}'"
        )
    out = _out_path(args)
    stages: dict[str, float] = {}
    with stage(stages, "load"):
        trees = load_dataset(args.trees)
    with stage(stages, "assemble"):
        matrix = assemble(trees, kernel)
    if args.check_against_naive:
        naive = assemble(trees, _build_kernel_or_usage("rootpath-node-naive", kernel.params))
        scale = np.maximum(1.0, np.maximum(np.abs(matrix.values), np.abs(naive.values)))
        deviation = np.abs(matrix.values - naive.values) / scale
        worst = float(deviation.max())
        if worst > 1e-9:
            i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
            raise ValueError(
                f"decomposed kernel disagrees with the naive route: relative deviation "
                f"{worst:.3e} at ({matrix.ids[i]}, {matrix.ids[j]})"
            )
        print(f"naive check passed (max relative deviation {worst:.3e})")
    if args.normalize:
        with stage(stages, "normalize"):
            matrix = normalize(matrix)
    with stage(stages, "save"):
        save_gram(matrix, out)
    n_pairs = matrix.size * (matrix.size + 1) // 2
    _write_manifest(
        Path(f"{out}.manifest.json"), "kernel", args, started,
        kernel_spec=kernel.spec, input_paths=[args.trees], stages=stages,
        n_pairs=n_pairs, pairs_per_second=n_pairs / max(stages["assemble"], 1e-9),
    )
    print(f"wrote {matrix.size}x{matrix.size} Gram matrix ({args.kernel}) to {out}")
    return 0


# -- test -------------------------------------------------------------------------


def _class_indices(ids: list[str], labels_path: str) -> tuple[list[int], list[int]]:
    labels = generate.load_labels(labels_path)
    missing = [i for i in ids if i not in labels]
    if missing:
        raise ValueError(f"no label for tree id '{missing[0]}'")
    idx_a = [k for k, tree_id in enumerate(ids) if labels[tree_id] == 0]
    idx_b = [k for k, tree_id in enumerate(ids) if labels[tree_id] == 1]
    if not idx_a or not idx_b:
        raise ValueError("both label classes must be non-empty")
    return idx_a, idx_b


def cmd_test(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.permutations < 1:
        raise UsageError("--permutations must be >= 1")
    _check_threads(args.threads)
    out = _out_path(args)
    stages: dict[str, float] = {}
    with stage(stages, "load"):
        matrix = load_gram(args.gram)
    idx_a, idx_b = _class_indices(matrix.ids, args.labels)
    with stage(stages, "permutation_test"):
        result = twosample.permutation_test(
            matrix, idx_a, idx_b, n_permutations=args.permutations, seed=args.seed
        )
    payload = result.to_json(kernel_spec_ref=matrix.kernel_spec or None)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(
        Path(f"{out}.manifest.json"), "test", args, started,
        kernel_spec=matrix.kernel_spec or None, input_paths=[args.gram, args.labels],
        stages=stages, n_permutations=result.n_permutations,
    )
    print(f"statistic={result.statistic:.6g} p_value={result.p_value:.6g} (N={result.n_permutations})")
    return 0


# -- classify -----------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if not 0.0 < args.holdout < 1.0:
        raise UsageError("--holdout must lie strictly between 0 and 1")
    out = _out_path(args)
    matrix = load_gram(args.gram)
    idx_a, idx_b = _class_indices(matrix.ids, args.labels)
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
    predicted = twosample.nearest_mean_classify(matrix, train["a"], train["b"], query)
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
    _write_manifest(
        Path(f"{out}.manifest.json"), "classify", args, started,
        input_paths=[args.gram, args.labels],
    )
    print(f"accuracy={accuracy:.4f} on {len(query)} held-out trees")
    return 0


# -- bench --------------------------------------------------------------------------


def benchmark_kernel(
    kernel_name: str,
    sizes: list[int],
    repeats: int = 3,
    seed: int = 0,
    params: dict | None = None,
) -> list[dict]:
    """Median per-pair evaluation time of a kernel on balanced binary trees.

    A warm-up evaluation builds the per-tree caches before timing, so the
    numbers reflect repeated kernel evaluation, matching the per-pair cost
    model.
    """
    kernel = build_kernel(kernel_name, **(params or {}))
    rows = []
    for size in sizes:
        t1 = generate.balanced_binary_tree(size, seed=seed)
        t2 = generate.balanced_binary_tree(size, seed=seed + 1)
        kernel.value(t1, t2)  # warm-up
        once = time.perf_counter()
        kernel.value(t1, t2)
        estimate = max(time.perf_counter() - once, 1e-9)
        loops = max(1, min(10000, int(np.ceil(0.02 / estimate))))
        samples = []
        for _ in range(repeats):
            tic = time.perf_counter()
            for _ in range(loops):
                kernel.value(t1, t2)
            samples.append((time.perf_counter() - tic) / loops)
        rows.append(
            {
                "kernel": kernel_name,
                "n_nodes": size,
                "height": t1.height,
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


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"--sizes must be a comma-separated list of integers: {exc}") from exc
    if not sizes or min(sizes) < 1:
        raise UsageError("--sizes must list positive integers")
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    params = _kernel_params(args)
    kernel = _build_kernel_or_usage(args.kernel, params)  # validate before timing
    out = _out_path(args)
    rows = benchmark_kernel(args.kernel, sizes, repeats=args.repeats, seed=args.seed, params=params)
    header = "kernel,n_nodes,height,repeats,loops,median_seconds"
    lines = [header] + [
        f"{r['kernel']},{r['n_nodes']},{r['height']},{r['repeats']},{r['loops']},{r['median_seconds']:.9e}"
        for r in rows
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    slope = fit_slope(rows) if len(rows) >= 2 else float("nan")
    _write_manifest(
        Path(f"{out}.manifest.json"), "bench", args, started, kernel_spec=kernel.spec
    )
    for r in rows:
        print(f"{r['kernel']}  |V|={r['n_nodes']:<5d} median {r['median_seconds']:.3e} s")
    print(f"{args.kernel} fitted log-log slope vs |V|: {slope:.3f}")
    return 0


# -- parser -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treekern", description="Geometric tree kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    default = {k: v for name in ("rootpath-embedded", "agaw", "wl") for k, v in build_kernel(name).params.items()}
    spec_flags = argparse.ArgumentParser(add_help=False)
    group = spec_flags.add_argument_group("kernel spec")
    group.add_argument("--form", choices=["linear", "gaussian"], default=None,
                       help="node kernel form")
    group.add_argument("--use-attributes", dest="use_attributes", action="store_true",
                       help="multiply the attribute factor into the node kernel")
    group.add_argument("--lambda1", type=float, default=None,
                       help="gaussian position scale (default 1/n)")
    group.add_argument("--lambda2", type=float, default=None,
                       help="gaussian attribute scale (default 1/d)")
    group.add_argument("--lam", type=float, default=None, help="embedded gaussian scale")
    group.add_argument("--landmarks", type=int, default=None,
                       help=f"equidistant points per resampled path (default {default['landmarks']})")
    group.add_argument("--component", type=int, default=None, help="attribute component index")
    group.add_argument("--gen-lo", dest="gen_lo", type=int, default=None,
                       help=f"first generation for agaw (default {default['gen_lo']})")
    group.add_argument("--gen-hi", dest="gen_hi", type=int, default=None,
                       help=f"last generation for agaw (default {default['gen_hi']})")
    group.add_argument("--wl-iterations", dest="wl_iterations", type=int, default=None,
                       help=f"label refinement rounds (default {default['iterations']})")
    group.add_argument("--length-kernel", dest="length_kernel", choices=["delta", "linear"],
                       default=None, help="path length comparison for sp")
    group.add_argument("--spec-json", dest="spec_json", default=None,
                       help="kernel parameters as inline JSON or a JSON file path")

    p = sub.add_parser("gen", help="generate a synthetic two-class dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=list(generate.PRESET_NAMES), default="null",
                   help="two-class dataset preset")
    p.add_argument("--size", type=int, default=100, help="total number of trees")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--config", default=None, help="JSON file of generator field overrides")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("kernel", parents=[spec_flags], help="assemble a Gram matrix CSV")
    p.add_argument("trees", help="tree dataset (JSON array file or directory)")
    p.add_argument("--kernel", required=True, choices=list(KERNEL_NAMES),
                   help="kernel name")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--normalize", action="store_true",
                   help="cosine-normalize so diagonal entries become 1")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; no effect (runs serially)")
    p.add_argument("--check-against-naive", dest="check_against_naive", action="store_true",
                   help="recompute via the literal path-pair sum and compare")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("test", help="permutation two-sample test on a Gram matrix")
    p.add_argument("gram", help="Gram CSV written by the kernel command")
    p.add_argument("labels", help="label CSV (tree_id,label)")
    p.add_argument("--permutations", type=int, default=10000,
                   help="number of random relabelings")
    p.add_argument("--seed", type=int, default=0, help="permutation seed")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; no effect (runs serially)")
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
    p.add_argument("--kernel", required=True, choices=list(KERNEL_NAMES),
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
