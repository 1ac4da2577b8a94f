"""End-to-end CLI runs: dataset generation, Gram matrices, the two-sample
test, holdout classification, benchmarks, manifests, and exit codes."""

import json

import numpy as np
import pytest

from treekern import GeometricTree, Node, load_gram, save_dataset
from treekern.cli import fit_slope, main


def run(argv):
    return main([str(a) for a in argv])


def gen_dataset(tmp_path, preset="null", size=10, seed=0, name="data"):
    out = tmp_path / name
    assert run(["gen", "--out", out, "--preset", preset, "--size", size, "--seed", seed]) == 0
    return out


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


def test_gen_config_overrides(tmp_path):
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


def test_kernel_normalize_flag(tmp_path):
    data = gen_dataset(tmp_path, size=8, seed=2)
    out = tmp_path / "norm.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "sp", "--normalize", "--out", out]) == 0
    gram = load_gram(out)
    assert gram.normalized
    assert np.max(np.abs(np.diag(gram.values) - 1.0)) <= 1e-12


def test_kernel_check_against_naive(tmp_path, capsys):
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


def test_kernel_data_errors(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["kernel", tmp_path / "missing.json", "--kernel", "sp", "--out", out]) == 1

    # a single-node tree has no edges: its pointcloud diagonal is 0 and
    # normalization must fail as a data error
    single = GeometricTree("s", [Node(parent=None, x=np.zeros(3), a=np.zeros(1))], n=3, d=1)
    pair = GeometricTree(
        "p",
        [Node(parent=None, x=np.zeros(3), a=np.zeros(1)), Node(parent=0, x=np.ones(3), a=np.ones(1))],
        n=3,
        d=1,
    )
    data = tmp_path / "degenerate.json"
    save_dataset([single, pair], data)
    with pytest.warns(UserWarning, match="no edges"):
        code = run(
            ["kernel", data, "--kernel", "pointcloud", "--normalize", "--threads", 1, "--out", out]
        )
    assert code == 1


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


def test_two_sample_label_errors(tmp_path):
    data = gen_dataset(tmp_path, size=8, seed=1)
    gram = tmp_path / "g.csv"
    assert run(["kernel", data / "trees.json", "--kernel", "gbc", "--out", gram]) == 0

    partial = tmp_path / "partial.csv"
    lines = (data / "labels.csv").read_text().splitlines()
    partial.write_text("\n".join(lines[:-1]) + "\n")
    assert run(["test", gram, partial, "--out", tmp_path / "r.json"]) == 1

    onesided = tmp_path / "onesided.csv"
    onesided.write_text("\n".join([lines[0]] + [f"t{k:05d},0" for k in range(8)]) + "\n")
    assert run(["test", gram, onesided, "--out", tmp_path / "r.json"]) == 1


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

    assert run(["classify", gram, data / "labels.csv", "--holdout", 1.5, "--out", report_path]) == 2
    # a holdout this large leaves a class without training data
    assert run(["classify", gram, data / "labels.csv", "--holdout", 0.99, "--out", report_path]) == 1


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


def test_fit_slope_recovers_exponent():
    rows = [
        {"n_nodes": n, "median_seconds": 1e-6 * n**2} for n in (50, 100, 200, 400)
    ]
    assert fit_slope(rows) == pytest.approx(2.0, abs=1e-9)
