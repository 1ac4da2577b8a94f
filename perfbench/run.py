"""End-to-end benchmark of the ``treekern`` CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its ``src``.
Set-up generates the cohort from the seed with ``treekern gen``. Then one
client drives a closed loop: ``kernel``, ``test`` and ``classify`` run back
to back as child processes with default flags (so ``--threads`` stays at all
cores) until the time is spent; set-up is repeated after each iteration to
time it.

``--trace 0`` reports the end-to-end metrics: medians over the loop's
iterations of pipeline, kernel and analysis wall time, the peak RSS of the
pipeline's children, and the median set-up time. ``--trace 1`` alternates a
CLI pipeline with an untraced and a traced in-process pass and reports
per-layer medians (see ``tracing.py``), including the tracing overhead.

Every output is checked (see ``checks.py``); a failed command or check
counts as a failed operation. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, with the environment and the spans, goes to ``.perfbench_results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ROOT, SRC, WORKLOADS, Workload, import_treekern, metric_units, probes

MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 60.0
# Stop starting new iterations after this long, whatever --seconds says, so
# that a run ends well within its time limit on a slow machine.
HARD_STOP_S = 100.0
PIPELINE = ("kernel", "test", "classify")


@dataclass
class Command:
    name: str
    seconds: float
    rss_mb: float
    exit_code: int


def run_command(name: str, args: list[str], log: Path) -> Command:
    """Run ``python -m treekern ARGS``; rusage comes from ``wait4`` on this
    child alone, so no other child's peak leaks into its RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "treekern", *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    return Command(name, seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def record_pipeline(self, commands: list[Command], verdict: dict[str, list[str]], where: str) -> None:
        for c in commands:
            exit_problem = [f"exit code {c.exit_code}"] if c.exit_code else []
            self.record(f"{where} {c.name}", exit_problem + verdict[c.name])


@dataclass
class Cohort:
    trees: Path
    labels: Path
    setup_s: list[float] = field(default_factory=list)


def generate(workload: Workload, seed: int, out: Path, tally: Tally, first: Cohort | None = None) -> Cohort:
    """Set up the cohort with ``treekern gen`` (plus its config file) into
    ``out``; a repeat must reproduce ``first`` byte for byte."""
    out.mkdir()
    started = time.perf_counter()
    args = ["gen", "--preset", workload.preset, "--size", str(workload.size),
            "--seed", str(seed), "--out", str(out)]
    if workload.config:
        config = out / "config.json"
        config.write_text(json.dumps(workload.config), encoding="utf-8")
        args += ["--config", str(config)]
    command = run_command("gen", args, out / "gen.log")
    cohort = first or Cohort(out / "trees.json", out / "labels.csv")
    cohort.setup_s.append(time.perf_counter() - started)
    problems = [f"exit code {command.exit_code}"] if command.exit_code else []
    if first is not None and any(
        not (out / p.name).is_file() or (out / p.name).read_bytes() != p.read_bytes()
        for p in (first.trees, first.labels)
    ):
        problems.append("output differs from the first generation with the same seed")
    tally.record(f"setup {len(cohort.setup_s) - 1}", problems)
    return cohort


def run_pipeline(workload: Workload, seed: int, cohort: Cohort, out: Path) -> list[Command]:
    out.mkdir(parents=True)
    gram = str(out / "gram.csv")
    seed_flag = ["--seed", str(seed)]
    argvs = {
        "kernel": ["kernel", str(cohort.trees), *workload.kernel_flags, "--normalize", "--out", gram],
        "test": ["test", gram, str(cohort.labels), *seed_flag, "--out", str(out / "test.json")],
        "classify": ["classify", gram, str(cohort.labels), *seed_flag, "--out", str(out / "classify.json")],
    }
    return [run_command(name, argvs[name], out / f"{name}.log") for name in PIPELINE]


def keep_going(started: float, done: int, seconds: float, minimum: int) -> bool:
    """Whether to start another round: always until ``minimum`` are done,
    then only if one more of average length should end within ``seconds``."""
    elapsed = time.perf_counter() - started
    if elapsed > HARD_STOP_S:
        return False
    return done < minimum or elapsed + elapsed / done <= seconds


def measure(workload: Workload, seed: int, seconds: float, cohort: Cohort, verifier,
            work: Path, tally: Tally) -> tuple[dict, list]:
    iterations = []
    started = time.perf_counter()
    while not iterations or keep_going(started, len(iterations), seconds, MIN_ITERATIONS):
        out = work / f"iter{len(iterations)}"
        commands = run_pipeline(workload, seed, cohort, out)
        tally.record_pipeline(commands, verifier.verdict(out), f"iteration {len(iterations)}")
        iterations.append({c.name: c for c in commands})
        shutil.rmtree(out)
        # Set-up repeats between iterations, so its median spans the same
        # stretch of machine time as the pipeline's.
        generate(workload, seed, work / "regen", tally, first=cohort)
        shutil.rmtree(work / "regen")
    median = statistics.median
    metrics = {
        "pipeline_s": median(sum(it[n].seconds for n in PIPELINE) for it in iterations),
        "kernel_s": median(it["kernel"].seconds for it in iterations),
        "analysis_s": median(it["test"].seconds + it["classify"].seconds for it in iterations),
        "peak_rss_mb": median(max(c.rss_mb for c in it.values()) for it in iterations),
        "setup_s": median(cohort.setup_s),
    }
    record = [{n: vars(c) for n, c in it.items()} for it in iterations]
    return metrics, record


def measure_traced(workload: Workload, seed: int, seconds: float, cohort: Cohort, verifier,
                   work: Path, tally: Tally) -> tuple[dict, list]:
    import tracing

    rounds = []
    started = time.perf_counter()
    while not rounds or keep_going(started, len(rounds), seconds, 1):
        where = f"round {len(rounds)}"
        out = work / f"round{len(rounds)}"
        cli = run_pipeline(workload, seed, cohort, out / "cli")
        verdict = verifier.verdict(out / "cli")
        tally.record_pipeline(cli, verdict, where)
        reference = tracing.tk.load_gram(out / "cli" / "gram.csv") if not verdict["kernel"] else None
        tracer = tracing.Tracer()
        passes = {}
        for mode, pass_tracer in (("untraced", None), ("traced", tracer)):
            (out / mode).mkdir()
            passes[mode] = tracing.pipeline_pass(
                workload, seed, cohort.trees, cohort.labels, out / mode, pass_tracer
            )
            tally.record(f"{where} {mode} pass", pass_problems(passes[mode], reference, out / "cli"))
        untraced, traced = passes["untraced"], passes["traced"]
        layers = tracing.layer_metrics(tracer, out / "traced" / "gram.csv")
        layers["cli.overhead_s"] = sum(c.seconds for c in cli) - sum(untraced.command_s.values())
        layers["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        probe = {
            module: tracing.value_probe_us(verifier.trees, name, params, seed)
            for module, (name, params) in probes(workload).items()
        }
        layers["path_kernels.value_us_p50"] = float(np.percentile(probe["path_kernels"], 50))
        layers["path_kernels.value_us_p90"] = float(np.percentile(probe["path_kernels"], 90))
        layers["baselines.value_us_p50"] = float(np.percentile(probe["baselines"], 50))
        n = len(verifier.trees)
        layers["trees"] = float(n)
        layers["nodes_total"] = float(sum(t.size for t in verifier.trees))
        layers["pairs"] = float(n * (n + 1) // 2)
        rounds.append({"layers": layers, "untraced_wall_s": untraced.wall_s,
                       "traced_wall_s": traced.wall_s, "trace": tracer.export()})
        shutil.rmtree(out)
    metrics = {name: statistics.median(r["layers"][name] for r in rounds) for name in rounds[0]["layers"]}
    return metrics, rounds


def pass_problems(result, reference, cli_dir: Path) -> list[str]:
    """An in-process pass must reproduce the checked CLI outputs exactly."""
    if reference is None:
        return ["no verified CLI Gram to compare against"]
    problems = []
    if result.gram.ids != reference.ids or not (result.gram.values == reference.values).all():
        problems.append("Gram differs from the CLI's")
    test = json.loads((cli_dir / "test.json").read_text(encoding="utf-8"))
    if (result.statistic, result.p_value) != (test["statistic"], test["p_value"]):
        problems.append("permutation test differs from the CLI's")
    report = json.loads((cli_dir / "classify.json").read_text(encoding="utf-8"))
    if result.accuracy != report["accuracy"]:
        problems.append("classification accuracy differs from the CLI's")
    return problems


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, trees) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    sizes = [t.size for t in trees]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "seed": seed,
        "cohort": {
            "trees": len(trees),
            "nodes_mean": sum(sizes) / len(sizes),
            "nodes_max": max(sizes),
            "height_max": max(t.height for t in trees),
        },
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Tally, dict]:
    """One benchmark run in ``work``; returns metrics, tally and a full record."""
    from checks import Verifier

    tally = Tally()
    cohort = generate(workload, seed, work / "cohort", tally)
    verifier = Verifier(workload, seed, cohort.trees, cohort.labels)
    measure_fn = measure_traced if trace else measure
    metrics, detail = measure_fn(workload, seed, seconds, cohort, verifier, work, tally)
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "environment": environment(seed, verifier.trees),
        "setup_s": cohort.setup_s,
        "rounds" if trace else "iterations": detail,
        "problems": tally.problems,
    }
    return metrics, tally, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_treekern()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        metrics, tally, record = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = metric_units(bool(args.trace))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {record_path.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':32s} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
