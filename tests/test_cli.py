"""End-to-end CLI runs: dataset generation, Gram matrices, the two-sample
test, holdout classification, benchmarks, manifests, and exit codes."""

import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import treekern
from treekern import (
    GeometricTree,
    generate,
    generate_two_class_population,
    load_gram,
    path_kernels,
    preset_configs,
    save_dataset,
    save_labels,
    twosample,
)
from treekern.cli import fit_slope, main


def run(argv):
    return main([str(a) for a in argv])


def run_python(args, timeout=60, **variables):
    """Run ``python args...`` in a new process on this checkout's package;
    each keyword sets an environment variable, or unsets it when None."""
    src = str(Path(treekern.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(variables)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=timeout)


def gen_dataset(tmp_path, preset="null", size=10, seed=0, name="data"):
    out = tmp_path / name
    assert run(["gen", "--out", out, "--preset", preset, "--size", size, "--seed", seed]) == 0
    return out


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # about 0.3 s: every treekern line of the README's command-line block, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    printed = {}  # command -> what its last run printed
    for line in lines:
        if line.startswith("treekern "):
            args = shlex.split(line)[1:]
            assert main(args) == 0, line
            printed[args[0]] = capsys.readouterr().out
    expected = "statistic=0.700195 p_value=9.999e-05 (N=10000)"
    assert f"# {expected}" in lines
    assert printed["test"] == expected + "\n"


def test_gen_writes_dataset_and_manifest(tmp_path, capsys):
    out = gen_dataset(tmp_path, size=9, seed=4)
    assert (out / "trees.json").is_file()
    assert (out / "labels.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 4
    assert manifest["arguments"]["size"] == 9
    assert isinstance(manifest["duration_seconds"], float)
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "tree_id,label"
    assert len(labels) == 10  # 5 + 4 trees
    assert "wrote 9 trees" in capsys.readouterr().out


def test_gen_reruns_are_byte_identical(tmp_path):
    a = gen_dataset(tmp_path, preset="branch-shift", size=8, seed=7, name="a")
    b = gen_dataset(tmp_path, preset="branch-shift", size=8, seed=7, name="b")
    for fname in ("trees.json", "labels.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_gen_config_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_depth": 2}')
    out = tmp_path / "shallow"
    assert run(["gen", "--out", out, "--size", 6, "--config", cfg]) == 0
    from treekern import load_dataset

    assert all(t.height <= 2 for t in load_dataset(out / "trees.json"))

    cfg.write_text('{"no_such_field": 1}')
    assert run(["gen", "--out", tmp_path / "x", "--size", 6, "--config", cfg]) == 1
    cfg.write_text("[1, 2]")
    assert run(["gen", "--out", tmp_path / "y", "--size", 6, "--config", cfg]) == 1
    # fields of the wrong JSON type are data errors that name the field, never cast
    for text, field in [('{"n": 2.0}', "n"), ('{"d": true}', "d"), ('{"max_depth": 7.5}', "max_depth"),
                        ('{"p_branch": "0.5"}', "p_branch")]:
        cfg.write_text(text)
        assert run(["gen", "--out", tmp_path / "z", "--size", 6, "--config", cfg]) == 1
        assert f"{cfg}: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()
    cfg.write_text('{"p_branch": 1.0, "max_depth": 7}')
    assert run(["gen", "--out", tmp_path / "complete", "--size", 2, "--config", cfg]) == 0


def test_gen_config_that_is_not_json_is_named(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("")
    assert run(["gen", "--out", tmp_path / "x", "--size", 6, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON: Expecting value")


def test_gen_size_below_one_tree_per_class_is_a_usage_error(tmp_path, capsys):
    assert run(["gen", "--out", tmp_path / "x", "--size", 1]) == 2
    assert "usage error: --size must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("workers", [0, 1, 2, 3])  # 0: no fork, so the chunks grow in-process
@pytest.mark.parametrize(
    "preset, overrides",
    [("null", {}), ("branch-shift", {}), ("attr-shift", {}), ("branch-shift", {"p_branch": 0.6, "max_depth": 4})],
)
def test_gen_writes_the_serial_reference_bytes_for_any_worker_count(tmp_path, monkeypatch, preset, overrides, workers):
    if workers:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    argv = ["gen", "--out", tmp_path / "gen", "--preset", preset, "--size", 13, "--seed", 5]
    if overrides:
        (tmp_path / "cfg.json").write_text(json.dumps(overrides))
        argv += ["--config", tmp_path / "cfg.json"]
    assert run(argv) == 0
    cfg_a, cfg_b = (replace(cfg, **overrides) for cfg in preset_configs(preset, 5))
    trees, labels = generate_two_class_population(cfg_a, cfg_b, 7, 6)
    save_dataset(trees, tmp_path / "trees.json")
    save_labels([t.id for t in trees], labels, tmp_path / "labels.csv")
    for name in ("trees.json", "labels.csv"):
        assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
    assert manifest["workers"] == workers
    assert list(manifest["stages"]) == ["grow", "write"]
    assert all(seconds >= 0 for seconds in manifest["stages"].values())


def test_gen_workers_end_with_the_command(tmp_path, monkeypatch, capsys):
    assert run(["gen", "--out", tmp_path / "ok", "--size", 12]) == 0
    assert multiprocessing.active_children() == []
    grow = generate.generate_tree

    def grow_or_fail(cfg, seed_offset=0, tree_id=None):
        if seed_offset == 5:
            raise ValueError("no tree at offset 5")
        return grow(cfg, seed_offset, tree_id)

    # forked workers inherit the patch, so the error is raised in one of them
    monkeypatch.setattr(generate, "generate_tree", grow_or_fail)
    assert run(["gen", "--out", tmp_path / "failed", "--size", 12]) == 1
    assert "error: grow: no tree at offset 5" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_commands_import_only_what_they_run(tmp_path):
    data = gen_dataset(tmp_path, preset="branch-shift", size=8, seed=1)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data, "--kernel", "gbc", "--out", gram]) == 0
    labels = data / "labels.csv"
    kernel_modules = {"treekern.path_kernels", "treekern.registry", "numpy.ma"}
    # command: (argv, modules it must not load)
    commands = {
        "gen": (["gen", "--out", tmp_path / "again", "--size", 8], kernel_modules),
        "kernel": (["kernel", data, "--kernel", "gbc", "--out", tmp_path / "again.csv"],
                   {"treekern.generate", "treekern.twosample"}),
        "test": (["test", gram, labels, "--permutations", 20, "--out", tmp_path / "t.json"],
                 kernel_modules | {"treekern.generate", "treekern.trees"}),
        "classify": (["classify", gram, labels, "--out", tmp_path / "c.json"],
                     kernel_modules | {"treekern.generate", "treekern.trees"}),
    }
    code = "import json, sys; from treekern.cli import main; main(sys.argv[1:]); print(json.dumps(sorted(sys.modules)))"
    for name, (argv, unused) in commands.items():
        done = run_python(["-c", code, *argv])
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout.splitlines()[-1]))
        assert loaded & unused == set(), name
        assert ("treekern.trees" in loaded) == (name in ("gen", "kernel")), name


def test_help_quotes_the_kernel_catalog_and_the_presets(monkeypatch, capsys):
    from treekern import cli, registry

    assert cli._KERNEL_NAMES == registry.KERNEL_NAMES
    assert cli._PRESET_NAMES == generate.PRESET_NAMES
    defaults = {"landmarks": "rootpath-embedded", "gen_lo": "agaw", "gen_hi": "agaw", "iterations": "wl"}
    assert cli._HELP_DEFAULTS == {key: registry.build_kernel(name).params[key] for key, name in defaults.items()}
    monkeypatch.setenv("COLUMNS", "1000")  # no choice list is wrapped
    with pytest.raises(SystemExit) as exc:
        run(["kernel", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--kernel {" + ",".join(registry.KERNEL_NAMES) + "}" in text
    for flag, key in [("--landmarks", "landmarks"), ("--gen-lo", "gen_lo"), ("--gen-hi", "gen_hi"),
                      ("--wl-iterations", "iterations")]:
        entry = text.rsplit(f"{flag} ", 1)[1].split(" --", 1)[0]  # the option's help, after the usage line
        assert entry.endswith(f"(default {registry.build_kernel(defaults[key]).params[key]})"), entry


def test_each_kernel_parameter_has_one_spec_flag_that_sets_it():
    from treekern import cli, registry

    keys = [key for _, key, _ in cli._KERNEL_FLAGS]
    catalog = {key for name in registry.KERNEL_NAMES for key in registry.build_kernel(name).params}
    assert sorted(keys) == sorted(catalog)
    parser = cli._build_parser()
    base = ["kernel", "trees.json", "--kernel", "gbc", "--out", "g.csv"]
    assert cli._kernel_params(parser.parse_args(base)) == {}
    for flag, key, keywords in cli._KERNEL_FLAGS:
        if keywords.get("action") == "store_true":
            given, value = [flag], True
        else:  # the last choice, or 0, which an unset flag must not be mistaken for
            value = keywords["choices"][-1] if "choices" in keywords else keywords["type"](0)
            given = [flag, str(value)]
        assert cli._kernel_params(parser.parse_args(base + given)) == {key: value}, flag


def test_kernel_command_and_reproducibility(tmp_path):
    data = gen_dataset(tmp_path, size=10, seed=1)
    g1 = tmp_path / "g1.csv"
    g2 = tmp_path / "g2.csv"
    base = ["kernel", data / "trees.json", "--kernel", "rootpath-node", "--use-attributes"]
    assert run(base + ["--out", g1, "--threads", 1]) == 0
    assert run(base + ["--out", g2, "--threads", 8]) == 0
    # worker count cannot change a single byte of the matrix
    assert g1.read_bytes() == g2.read_bytes()
    assert g1.with_name("g1.csv.meta.json").read_bytes() == g2.with_name(
        "g2.csv.meta.json"
    ).read_bytes()

    manifest = json.loads((tmp_path / "g1.csv.manifest.json").read_text())
    assert manifest["command"] == "kernel"
    assert manifest["kernel_spec"]["name"] == "rootpath-node"
    assert manifest["kernel_spec"]["params"]["use_attributes"] is True
    assert manifest["input_hashes"]  # the dataset file is hashed

    gram = load_gram(g1)
    assert gram.size == 10
    assert not gram.normalized


def test_kernel_reads_a_gen_directory_like_its_trees_file(tmp_path):
    data = gen_dataset(tmp_path, preset="branch-shift", size=8, seed=6)
    from_dir = tmp_path / "dir.csv"
    from_file = tmp_path / "file.csv"
    assert run(["kernel", data, "--kernel", "gbc", "--out", from_dir]) == 0
    assert run(["kernel", data / "trees.json", "--kernel", "gbc", "--out", from_file]) == 0
    assert from_dir.read_bytes() == from_file.read_bytes()
    assert (tmp_path / "dir.csv.meta.json").read_bytes() == (tmp_path / "file.csv.meta.json").read_bytes()
    # only the file that was read is hashed, not the manifest beside it
    manifest = json.loads((tmp_path / "dir.csv.manifest.json").read_text())
    assert list(manifest["input_hashes"]) == [str(data / "trees.json")]


def test_manifests_record_stage_timings(tmp_path, monkeypatch):
    data = gen_dataset(tmp_path, size=6, seed=8)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data, "--kernel", "sp", "--normalize", "--out", gram]) == 0
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert list(manifest["stages"]) == ["assemble", "load", "normalize", "save"]
    assert all(seconds >= 0 for seconds in manifest["stages"].values())
    assert manifest["n_pairs"] == 6 * 7 // 2
    assert manifest["pairs_per_second"] > 0
    result = tmp_path / "t.json"
    assert run(["test", gram, data / "labels.csv", "--permutations", 50, "--out", result]) == 0
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    assert list(manifest["stages"]) == ["load", "permutation_test"]
    assert manifest["n_permutations"] == 50
    assert manifest["blas_threads"] == twosample.scorer_blas_threads()
    if sys.platform.startswith("linux"):  # numpy's Linux wheels bundle OpenBLAS
        assert manifest["blas_threads"] == 1
    # without a bundled OpenBLAS the scorer runs unpinned, and the manifest says so
    monkeypatch.setattr(twosample, "_openblas_threads", lambda: None)
    assert twosample.scorer_blas_threads() is None
    assert run(["test", gram, data / "labels.csv", "--permutations", 50, "--out", result]) == 0
    assert json.loads((tmp_path / "t.json.manifest.json").read_text())["blas_threads"] is None


def test_every_manifest_records_its_own_peak_rss(tmp_path):
    data = gen_dataset(tmp_path, size=6, seed=8)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data, "--kernel", "sp", "--out", gram]) == 0
    assert run(["test", gram, data / "labels.csv", "--permutations", 20, "--out", tmp_path / "t.json"]) == 0
    assert run(["classify", gram, data / "labels.csv", "--out", tmp_path / "c.json"]) == 0
    for manifest_file in [data / "manifest.json", *tmp_path.glob("*.manifest.json")]:
        peak = json.loads(manifest_file.read_text())["peak_rss_mb"]
        if sys.platform.startswith("linux"):
            assert peak > 0, manifest_file
        else:
            assert peak is None or peak > 0, manifest_file


_MANIFEST_KEYS = {"command", "arguments", "kernel_spec", "input_hashes", "seed", "version", "duration_seconds",
                  "peak_rss_mb", "status"}


def test_each_command_writes_its_success_manifest_keys(tmp_path):
    data = gen_dataset(tmp_path, size=6, seed=8)
    gram, labels = tmp_path / "g.csv", data / "labels.csv"
    assert run(["kernel", data, "--kernel", "sp", "--out", gram]) == 0
    assert run(["test", gram, labels, "--permutations", 20, "--out", tmp_path / "t.json"]) == 0
    assert run(["classify", gram, labels, "--out", tmp_path / "c.json"]) == 0
    assert run(["bench", "--kernel", "gbc", "--sizes", "5,9", "--repeats", 1, "--out", tmp_path / "b.csv"]) == 0
    extra = {
        data / "manifest.json": {"workers", "stages"},
        tmp_path / "g.csv.manifest.json": {"stages", "n_pairs", "pairs_per_second"},
        tmp_path / "t.json.manifest.json": {"stages", "n_permutations", "blas_threads"},
        tmp_path / "c.json.manifest.json": {"stages"},
        tmp_path / "b.csv.manifest.json": set(),
    }
    for path, keys in extra.items():
        manifest = json.loads(path.read_text())
        assert set(manifest) == _MANIFEST_KEYS | keys, path
        assert manifest["status"] == "ok"


def read_failure_manifest(path, err: str) -> dict:
    """The failure manifest at ``path``; its error, after its stage when one was running, ends ``err``."""
    manifest = json.loads(Path(path).read_text())
    assert set(manifest) >= _MANIFEST_KEYS | {"stage", "error"}
    assert manifest["status"] == "error"
    stage = f"{manifest['stage']}: " if manifest["stage"] is not None else ""
    assert err.endswith(f"error: {stage}{manifest['error']}\n")
    if sys.platform.startswith("linux"):
        assert manifest["peak_rss_mb"] > 0
    return manifest


def test_a_kernel_that_fails_to_normalize_leaves_a_failure_manifest(tmp_path, capsys):
    # a single-node tree has no edges, so its pointcloud diagonal is 0
    single = GeometricTree("s", [-1], np.zeros((1, 3)), np.zeros((1, 1)))
    pair = GeometricTree("p", [-1, 0], [np.zeros(3), np.ones(3)], [np.zeros(1), np.ones(1)])
    data = tmp_path / "degenerate.json"
    save_dataset([single, pair], data)
    out = tmp_path / "g.csv"
    with pytest.warns(UserWarning):
        assert run(["kernel", data, "--kernel", "pointcloud", "--normalize", "--out", out]) == 1
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", capsys.readouterr().err)
    assert manifest["stage"] == "normalize"
    assert manifest["error"] == "non-positive diagonal entry for tree id 's'; cannot normalize"
    assert list(manifest["stages"]) == ["assemble", "load"]
    assert manifest["kernel_spec"]["name"] == "pointcloud"
    assert list(manifest["input_hashes"]) == [str(data)]
    assert not out.exists()


def test_kernel_refuses_an_id_it_cannot_write_before_it_assembles(tmp_path, capsys):
    # about 0.02 s
    data = tmp_path / "comma.json"
    save_dataset([GeometricTree(tree_id, [-1, 0], np.zeros((2, 3))) for tree_id in ("t4", "t,5")], data)
    assert run(["kernel", data, "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", capsys.readouterr().err)
    assert manifest["stage"] == "load"
    assert manifest["error"] == "tree id 't,5' cannot be written to CSV"
    assert manifest["stages"] == {}  # nothing was assembled
    assert not (tmp_path / "g.csv").exists()


def test_kernel_refuses_an_id_its_labels_file_could_not_hold(tmp_path, capsys):
    # a vertical tab is a line break to str.splitlines, so load_labels would split the id
    data = tmp_path / "tab.json"
    save_dataset([GeometricTree(tree_id, [-1, 0], np.zeros((2, 3))) for tree_id in ("a\x0bb", "c")], data)
    assert run(["kernel", data, "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", capsys.readouterr().err)
    assert manifest["stage"] == "load"
    assert manifest["error"] == "tree id 'a\\x0bb' cannot be written to CSV"
    assert not (tmp_path / "g.csv").exists()


def test_a_malformed_trees_file_fails_in_the_load_stage(tmp_path, capsys):
    data = tmp_path / "bad.json"
    data.write_text('[{"id": "t0", "nodes": ')
    assert run(["kernel", data, "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", capsys.readouterr().err)
    assert manifest["stage"] == "load"
    assert manifest["stages"] == {}
    assert manifest["input_hashes"][str(data)]  # the file that failed to load is hashed
    # an input that is missing altogether is recorded without a hash
    assert run(["kernel", tmp_path / "none.json", "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", capsys.readouterr().err)
    assert manifest["stage"] == "load"
    assert manifest["input_hashes"] == {str(tmp_path / "none.json"): None}


def test_a_usage_error_leaves_no_manifest(tmp_path, capsys):
    data = gen_dataset(tmp_path, size=6, seed=1)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data, "--kernel", "lbc", "--normalize", "--out", gram]) == 2
    assert run(["kernel", data, "--kernel", "gbc", "--spec-json", '{"name": 1}', "--out", gram]) == 2
    assert "usage error: kernel 'gbc' does not accept parameters: ['name']" in capsys.readouterr().err
    assert run(["kernel", data, "--kernel", "gbc", "--out", gram]) == 0
    assert run(["test", gram, data / "labels.csv", "--permutations", 0, "--out", tmp_path / "t.json"]) == 2
    assert run(["classify", gram, data / "labels.csv", "--holdout", 1.5, "--out", tmp_path / "c.json"]) == 2
    assert run(["bench", "--kernel", "gbc", "--sizes", "8,abc", "--out", tmp_path / "b.csv"]) == 2
    assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == ["g.csv.manifest.json"]


def test_a_failure_manifest_that_cannot_be_written_leaves_the_error_as_it_is(tmp_path, capsys):
    data = tmp_path / "bad.json"
    data.write_text("[")
    (tmp_path / "g.csv.manifest.json").mkdir()  # the manifest cannot be written there
    assert run(["kernel", data, "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    assert capsys.readouterr().err.startswith(f"error: load: {data}")


def test_kernel_normalize_flag(tmp_path):
    data = gen_dataset(tmp_path, size=8, seed=2)
    out = tmp_path / "norm.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "sp", "--normalize", "--out", out]) == 0
    gram = load_gram(out)
    assert gram.normalized
    assert np.max(np.abs(np.diag(gram.values) - 1.0)) <= 1e-12


def test_kernel_check_against_naive(tmp_path, capsys, monkeypatch):
    data = gen_dataset(tmp_path, size=8, seed=3)
    out = tmp_path / "checked.csv"
    code = run(
        [
            "kernel",
            data / "trees.json",
            "--kernel",
            "rootpath-node",
            "--form",
            "gaussian",
            "--use-attributes",
            "--check-against-naive",
            "--out",
            out,
        ]
    )
    assert code == 0
    assert "naive check passed" in capsys.readouterr().out
    # the oracle takes the fast route's own default form (linear)
    code = run(
        [
            "kernel", data / "trees.json", "--kernel", "rootpath-node-linear-fast",
            "--check-against-naive", "--out", out,
        ]
    )
    assert code == 0
    assert "naive check passed" in capsys.readouterr().out
    # the flag is meaningless for unrelated kernels
    code = run(
        ["kernel", data / "trees.json", "--kernel", "sp", "--check-against-naive", "--out", out]
    )
    assert code == 2
    capsys.readouterr()
    # a naive route that disagrees is a data error naming the worst pair
    doubled = path_kernels.node_path_kernel
    monkeypatch.setattr(path_kernels, "node_path_kernel", lambda p1, p2, spec: 2 * doubled(p1, p2, spec))
    code = run(["kernel", data / "trees.json", "--kernel", "rootpath-node", "--check-against-naive", "--out", out])
    assert code == 1
    assert re.fullmatch(
        r"error: decomposed kernel disagrees with the naive route: relative deviation 5\.000e-01 at \(t\d{5}, t\d{5}\)\n",
        capsys.readouterr().err,
    )


def test_kernel_usage_errors(tmp_path):
    data = gen_dataset(tmp_path, size=6)
    trees = data / "trees.json"
    out = tmp_path / "g.csv"
    # scalar linear kernels refuse normalization up front
    assert run(["kernel", trees, "--kernel", "lbc", "--normalize", "--out", out]) == 2
    assert (
        run(
            [
                "kernel", trees, "--kernel", "sp", "--length-kernel", "linear",
                "--normalize", "--out", out,
            ]
        )
        == 2
    )
    # the fast route is linear-only
    assert (
        run(
            [
                "kernel", trees, "--kernel", "rootpath-node-linear-fast",
                "--form", "gaussian", "--out", out,
            ]
        )
        == 2
    )
    # malformed and non-object spec JSON
    assert run(["kernel", trees, "--kernel", "sp", "--spec-json", "{nope", "--out", out]) == 2
    assert run(["kernel", trees, "--kernel", "sp", "--spec-json", "[1]", "--out", out]) == 2
    # inline JSON longer than a file name may be is still read as inline JSON
    padded = '{"length_kernel": "linear",' + " " * 300 + '"bogus": 1}'
    assert run(["kernel", trees, "--kernel", "sp", "--spec-json", padded, "--out", out]) == 2
    assert run(["kernel", trees, "--kernel", "sp", "--spec-json", "{" + "x" * 300, "--out", out]) == 2
    # parameters the kernel does not accept
    assert run(["kernel", trees, "--kernel", "gbc", "--landmarks", 5, "--out", out]) == 2
    assert run(["kernel", trees, "--kernel", "sp", "--threads", 0, "--out", out]) == 2
    # unknown kernel names are rejected by the parser itself
    with pytest.raises(SystemExit) as exc:
        run(["kernel", trees, "--kernel", "mystery", "--out", out])
    assert exc.value.code == 2


def test_kernel_data_errors(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["kernel", tmp_path / "missing.json", "--kernel", "sp", "--out", out]) == 1

    # a single-node tree has no edges: its pointcloud diagonal is 0 and
    # normalization must fail as a data error
    single = GeometricTree("s", [-1], np.zeros((1, 3)), np.zeros((1, 1)))
    pair = GeometricTree("p", [-1, 0], [np.zeros(3), np.ones(3)], [np.zeros(1), np.ones(1)])
    data = tmp_path / "degenerate.json"
    save_dataset([single, pair], data)
    with pytest.warns(UserWarning, match="no edges"):
        code = run(
            ["kernel", data, "--kernel", "pointcloud", "--normalize", "--threads", 1, "--out", out]
        )
    assert code == 1

    # gaussian all-pairs-embedded takes trees of at most 32 nodes: a data error naming the tree
    chain = GeometricTree("c33", np.arange(33) - 1, np.arange(33.0)[:, None])
    save_dataset([chain], data)
    assert run(["kernel", data, "--kernel", "all-pairs-embedded", "--out", out]) == 1
    assert "error: assemble: tree 'c33' has 33 nodes;" in capsys.readouterr().err

    # malformed tree JSON is a data error naming the file, the tree and the node
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": "t", "n": 1, "d": 0, "nodes": [{"id": 0, "parent": null, "x": ["a"]}]}]')
    assert run(["kernel", bad, "--kernel", "sp", "--out", out]) == 1
    assert f"{bad}[0]: tree 't': node 0 position has an entry that is not a number" in capsys.readouterr().err


def test_spec_json_file_and_flag_precedence(tmp_path):
    data = gen_dataset(tmp_path, size=6, seed=5)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"landmarks": 4, "form": "linear"}')
    g1 = tmp_path / "g1.csv"
    assert (
        run(
            [
                "kernel", data / "trees.json", "--kernel", "all-pairs-embedded",
                "--spec-json", spec_file, "--out", g1,
            ]
        )
        == 0
    )
    meta = json.loads((tmp_path / "g1.csv.meta.json").read_text())
    assert meta["kernel_spec"]["params"]["landmarks"] == 4
    assert meta["kernel_spec"]["params"]["form"] == "linear"

    # explicit flags override the JSON document
    g2 = tmp_path / "g2.csv"
    assert (
        run(
            [
                "kernel", data / "trees.json", "--kernel", "all-pairs-embedded",
                "--spec-json", spec_file, "--landmarks", 6, "--out", g2,
            ]
        )
        == 0
    )
    meta2 = json.loads((tmp_path / "g2.csv.meta.json").read_text())
    assert meta2["kernel_spec"]["params"]["landmarks"] == 6

    # inline JSON is accepted even when it is too long to be a file name
    g3 = tmp_path / "g3.csv"
    inline = '{"landmarks": 5,' + " " * 300 + '"form": "linear"}'
    assert (
        run(
            [
                "kernel", data / "trees.json", "--kernel", "all-pairs-embedded",
                "--spec-json", inline, "--out", g3,
            ]
        )
        == 0
    )
    meta3 = json.loads((tmp_path / "g3.csv.meta.json").read_text())
    assert meta3["kernel_spec"]["params"]["landmarks"] == 5

    # a switch or count of the wrong JSON type is a usage error, never cast
    for kernel, inline in [
        ("rootpath-node", '{"use_attributes": "false"}'),
        ("rootpath-embedded", '{"landmarks": 2.7}'),
        ("wl", '{"iterations": "3"}'),
        ("aaw", '{"component": true}'),
        ("rootpath-node", '{"lambda1": "0.5"}'),
        ("rootpath-node", '{"lambda1": true}'),
        ("rootpath-node", '{"lambda2": Infinity}'),
        ("rootpath-embedded", '{"lam": "x"}'),
    ]:
        g4 = tmp_path / "g4.csv"
        assert run(["kernel", data / "trees.json", "--kernel", kernel, "--spec-json", inline, "--out", g4]) == 2
        assert not g4.exists()


def test_spec_json_integer_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    data = gen_dataset(tmp_path, size=4, seed=2)
    out = tmp_path / "g.csv"
    for key, kernel in [("lambda1", "rootpath-node"), ("lam", "rootpath-embedded")]:
        inline = f'{{"{key}": 1{"0" * 400}}}'
        assert run(["kernel", data / "trees.json", "--kernel", kernel, "--spec-json", inline, "--out", out]) == 2
        assert f"{key} must be a finite positive number" in capsys.readouterr().err
    # a count past the signed 64-bit range names the kernel and the parameter
    for key, kernel in [("landmarks", "rootpath-embedded"), ("gen_hi", "agaw"), ("iterations", "wl")]:
        inline = f'{{"{key}": 1{"0" * 400}}}'
        assert run(["kernel", data / "trees.json", "--kernel", kernel, "--spec-json", inline, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"kernel '{kernel}' parameter '{key}' must fit in a signed 64-bit integer" in err
        assert "Traceback" not in err
    # more digits than Python converts: the JSON itself is refused
    inline = f'{{"lambda1": 1{"0" * 5000}}}'
    assert run(["kernel", data / "trees.json", "--kernel", "rootpath-node", "--spec-json", inline, "--out", out]) == 2
    assert "--spec-json is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_a_landmark_count_no_array_can_hold_is_a_usage_error(tmp_path, capsys):
    data = gen_dataset(tmp_path, size=4, seed=2)
    out = tmp_path / "g.csv"
    inline = '{"landmarks": 9000000000000000000}'
    assert run(["kernel", data / "trees.json", "--kernel", "rootpath-embedded", "--spec-json", inline,
                "--out", out]) == 2
    assert "usage error: landmarks must be at most" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["rootpath-embedded", "all-pairs-embedded"])
def test_a_landmark_count_too_large_for_the_cohort_names_landmarks_and_n(tmp_path, capsys, kernel):
    # the spec accepts it, but the 3 coordinates of each landmark do not fit,
    # so the spec cannot be used on this cohort: a usage error, with no manifest
    data = gen_dataset(tmp_path, size=4, seed=2)
    out = tmp_path / "g.csv"
    inline = '{"landmarks": 1152921504606846975}'
    assert run(["kernel", data / "trees.json", "--kernel", kernel, "--spec-json", inline, "--out", out]) == 2
    limit = (2**63 - 1) // 8 // 3
    assert capsys.readouterr().err == (
        f"usage error: landmarks must be at most {limit} for n = 3, so that a path's landmarks fit in an array; "
        "got 1152921504606846975\n"
    )
    assert not out.exists()
    assert not (tmp_path / "g.csv.manifest.json").exists()


def test_kernel_warnings_are_one_line_each(tmp_path):
    # a single-node tree has no edges, so pointcloud warns once about it
    single = GeometricTree("s", [-1], np.zeros((1, 3)), np.zeros((1, 1)))
    pair = GeometricTree("p", [-1, 0], [np.zeros(3), np.ones(3)], [np.zeros(1), np.ones(1)])
    data = tmp_path / "degenerate.json"
    save_dataset([single, pair], data)
    done = run_python(["-m", "treekern", "kernel", data, "--kernel", "pointcloud", "--out", tmp_path / "g.csv"])
    assert done.returncode == 0, done.stderr
    assert done.stderr == "warning: tree 's' has no edges; pointcloud kernel is 0\n"


def test_wl_with_a_trillion_rounds_finishes(tmp_path):
    # the label classes settle within a few rounds, after which the rest are
    # one product; in its own process so that a hang is a timeout, not a stuck run
    data = gen_dataset(tmp_path, size=4, seed=2)
    out = tmp_path / "g.csv"
    argv = ["-m", "treekern", "kernel", data / "trees.json", "--kernel", "wl",
            "--spec-json", '{"iterations": 1000000000000}', "--out", out]
    done = run_python(argv)
    assert done.returncode == 0, done.stderr
    assert load_gram(out).size == 4


def test_two_sample_flow(tmp_path, capsys):
    data = gen_dataset(tmp_path, preset="branch-shift", size=16, seed=3)
    gram = tmp_path / "gbc.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "gbc", "--out", gram]) == 0

    result = tmp_path / "result.json"
    argv = [
        "test", gram, data / "labels.csv",
        "--permutations", 400, "--seed", 0, "--out", result,
    ]
    assert run(argv) == 0
    payload = json.loads(result.read_text())
    assert payload["n_permutations"] == 400
    assert payload["sample_sizes"] == [8, 8]
    assert payload["kernel_spec_ref"]["name"] == "gbc"
    assert payload["p_value"] <= 0.05  # the classes differ sharply in size
    assert "p_value=" in capsys.readouterr().out

    # byte-identical rerun, also across worker counts
    again = tmp_path / "again.json"
    assert run(argv[:-1] + [again]) == 0
    assert again.read_bytes() == result.read_bytes()
    threaded = tmp_path / "threaded.json"
    assert run(argv[:-1] + [threaded, "--threads", 6]) == 0
    assert threaded.read_bytes() == result.read_bytes()

    assert run(["test", gram, data / "labels.csv", "--permutations", 0, "--out", result]) == 2
    assert run(["test", gram, data / "labels.csv", "--threads", 0, "--out", result]) == 2


def test_two_sample_label_errors(tmp_path, capsys):
    data = gen_dataset(tmp_path, size=8, seed=1)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "gbc", "--out", gram]) == 0

    partial = tmp_path / "partial.csv"
    lines = (data / "labels.csv").read_text().splitlines()
    partial.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert run(["test", gram, partial, "--out", tmp_path / "r.json"]) == 1
    manifest = read_failure_manifest(tmp_path / "r.json.manifest.json", capsys.readouterr().err)
    assert manifest["error"] == "no label for tree id 't00007'"
    assert manifest["stage"] is None  # between the timed stages
    assert list(manifest["stages"]) == ["load"]
    assert manifest["kernel_spec"]["name"] == "gbc"
    assert set(manifest["input_hashes"]) == {str(gram), str(partial)}
    assert not (tmp_path / "r.json").exists()

    onesided = tmp_path / "onesided.csv"
    onesided.write_text("\n".join([lines[0]] + [f"t{k:05d},0" for k in range(8)]) + "\n")
    assert run(["test", gram, onesided, "--out", tmp_path / "r.json"]) == 1


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # about 3 s. At 700 trees the scorer's product rounded differently on one
    # and two OpenBLAS threads before the scorer was pinned to one.
    data = gen_dataset(tmp_path, preset="branch-shift", size=700, seed=1)
    labels = data / "labels.csv"
    code = "import sys; from treekern.cli import main; sys.exit(max(main(a.split('|')) for a in sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads-{threads}"
        commands = [
            ["kernel", data / "trees.json", "--kernel", "gbc", "--normalize", "--out", out / "g.csv"],
            ["test", out / "g.csv", labels, "--seed", 1, "--out", out / "t.json"],
            ["classify", out / "g.csv", labels, "--out", out / "c.json"],
        ]
        done = run_python(["-c", code, *("|".join(map(str, c)) for c in commands)], OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        files = sorted(f for f in out.iterdir() if not f.name.endswith(".manifest.json"))
        assert [f.name for f in files] == ["c.json", "g.csv", "g.csv.meta.json", "t.json"]
        outputs.append([f.read_bytes() for f in files])
    assert outputs[0] == outputs[1] == outputs[2]


def test_classify_flow(tmp_path, capsys):
    data = gen_dataset(tmp_path, preset="branch-shift", size=16, seed=3)
    gram = tmp_path / "gbc.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "gbc", "--out", gram]) == 0
    report_path = tmp_path / "report.json"
    assert (
        run(["classify", gram, data / "labels.csv", "--holdout", 0.25, "--out", report_path]) == 0
    )
    report = json.loads(report_path.read_text())
    assert report["n_test"] == {"class0": 2, "class1": 2}
    assert report["n_train"] == {"class0": 6, "class1": 6}
    assert report["accuracy"] >= 0.75
    assert report["correct"] == round(report["accuracy"] * 4)
    assert "accuracy=" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert set(manifest["stages"]) == {"load", "classify"}
    assert manifest["kernel_spec"]["name"] == "gbc"

    assert run(["classify", gram, data / "labels.csv", "--holdout", 1.5, "--out", report_path]) == 2
    # a holdout this large leaves a class without training data
    failed = tmp_path / "failed.json"
    assert run(["classify", gram, data / "labels.csv", "--holdout", 0.99, "--out", failed]) == 1
    manifest = read_failure_manifest(tmp_path / "failed.json.manifest.json", capsys.readouterr().err)
    assert manifest["error"] == "holdout 0.99 leaves class A without training trees"
    assert manifest["stage"] is None and list(manifest["stages"]) == ["load"]
    assert not failed.exists()


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "timings.csv"
    assert run(["bench", "--kernel", "gbc", "--sizes", "8,16", "--repeats", 1, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kernel,n_nodes,height,repeats,loops,median_seconds"
    assert len(lines) == 3
    assert "fitted log-log slope" in capsys.readouterr().out
    assert (tmp_path / "timings.csv.manifest.json").is_file()

    assert run(["bench", "--kernel", "gbc", "--sizes", "8,abc", "--out", out]) == 2
    assert run(["bench", "--kernel", "gbc", "--sizes", "", "--out", out]) == 2
    assert run(["bench", "--kernel", "gbc", "--sizes", "8", "--repeats", 0, "--out", out]) == 2


@pytest.mark.parametrize("command", ["gen", "test", "classify", "bench"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command in ("test", "classify"):
        data = gen_dataset(tmp_path, size=6)
        gram = tmp_path / "g.csv"
        assert run(["kernel", data, "--kernel", "gbc", "--out", gram]) == 0
        argv = [command, gram, data / "labels.csv"]
    else:
        argv = [command] + (["--kernel", "gbc", "--sizes", "5,9"] if command == "bench" else [])
    capsys.readouterr()
    assert run(argv + ["--seed", -1, "--out", out]) == 2
    assert "usage error: --seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_an_allocation_that_fails_is_a_data_error(tmp_path, monkeypatch, capsys):
    data = gen_dataset(tmp_path, size=4)

    def assemble(trees, kernel):
        raise MemoryError("Unable to allocate 21.8 TiB for an array")

    monkeypatch.setattr("treekern.gram.assemble", assemble)
    assert run(["kernel", data, "--kernel", "gbc", "--out", tmp_path / "g.csv"]) == 1
    err = capsys.readouterr().err
    assert err == "error: assemble: out of memory: Unable to allocate 21.8 TiB for an array\n"
    manifest = read_failure_manifest(tmp_path / "g.csv.manifest.json", err)
    assert manifest["error"] == "out of memory: Unable to allocate 21.8 TiB for an array"
    assert manifest["stage"] == "assemble"


def test_commands_create_their_output_directory(tmp_path):
    data = gen_dataset(tmp_path)
    gram = tmp_path / "kernel" / "nested" / "g.csv"
    labels = data / "labels.csv"
    outs = [gram, tmp_path / "test" / "nested" / "t.json", tmp_path / "classify" / "nested" / "c.json",
            tmp_path / "bench" / "nested" / "b.csv"]
    assert run(["kernel", data, "--kernel", "gbc", "--out", outs[0]]) == 0
    assert run(["test", gram, labels, "--permutations", 9, "--out", outs[1]]) == 0
    assert run(["classify", gram, labels, "--out", outs[2]]) == 0
    assert run(["bench", "--kernel", "gbc", "--sizes", "5,9", "--repeats", 1, "--out", outs[3]]) == 0
    for out in outs:
        assert out.is_file() and out.with_name(out.name + ".manifest.json").is_file()


def test_fit_slope_recovers_exponent():
    rows = [
        {"n_nodes": n, "median_seconds": 1e-6 * n**2} for n in (50, 100, 200, 400)
    ]
    assert fit_slope(rows) == pytest.approx(2.0, abs=1e-9)
