import json
import os
import re
import select
import subprocess
import sys
import types

import numpy as np
import pytest

from gripwatch.cli import main

SMALL = ["--objects", "2", "--episodes", "2", "--seed", "7"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated dataset plus extracted features and a trained model."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert main(["simulate", *SMALL, "--out", str(data)]) == 0
    features = root / "features.jsonl"
    assert main(["extract", "--in", str(data), "--n-w", "14", "--out", str(features)]) == 0
    model = root / "model.json"
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    return root


def _detect_argv(workspace, *extra):
    return [
        "detect",
        "--model",
        str(workspace / "model.json"),
        "--geometry",
        str(workspace / "data" / "geometry.json"),
        *extra,
    ]


def _episode_lines(workspace):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    return episode.read_bytes().splitlines()


ERROR_LINE = re.compile(r"error: frame (\d+): (\w+): ")


def _strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


def test_simulate_writes_episode_files_and_geometry(workspace):
    episodes = sorted((workspace / "data").glob("episode*.jsonl"))
    assert len(episodes) == 4
    assert (workspace / "data" / "geometry.json").exists()


def test_extract_output_format(workspace):
    lines = (workspace / "features.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "gripwatch-features"
    assert header["n_w"] == 14
    row = json.loads(lines[1])
    assert set(row) == {"t", "fa", "fx", "fy", "fz", "m", "sigma", "label"}


def test_eval_reports_metrics(workspace, capsys):
    report = workspace / "report.json"
    rc = main(
        [
            "eval",
            "--model",
            str(workspace / "model.json"),
            "--features",
            str(workspace / "features.jsonl"),
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    assert "Acc=" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert set(payload) == {"confusion", "acc", "fpr", "fnr", "fdr"}
    assert payload["acc"] > 80.0


def test_sweep_table_shape(workspace, capsys):
    rc = main(["sweep", "--dataset", str(workspace / "data"), "--n-w", "4,8"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0].split()[0] == "n_w"


def test_ablate_builtin_table(workspace, capsys):
    report = workspace / "ablation.json"
    rc = main(
        ["ablate", "--dataset", str(workspace / "data"), "--report", str(report)]
    )
    assert rc == 0
    assert len(json.loads(report.read_text())["rows"]) == 11


def test_baseline_report(workspace, capsys):
    rc = main(["baseline", "--dataset", str(workspace / "data")])
    assert rc == 0
    assert "threshold=" in capsys.readouterr().out


def test_detect_on_episode_file(workspace, capsys):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    rc = main(
        [
            "detect",
            "--model",
            str(workspace / "model.json"),
            "--geometry",
            str(workspace / "data" / "geometry.json"),
            "--tau",
            "0.5",
            "--in",
            str(episode),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    with open(episode) as fh:
        n_frames = sum(1 for _ in fh) - 1  # header line
    assert len(lines) == n_frames - 13
    states = {json.loads(l)["state"] for l in lines}
    assert states <= {"no_contact", "stable", "unstable"}
    assert "stable" in states


def test_detect_empty_stdin_exits_zero(workspace):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "gripwatch.cli",
            "detect",
            "--model",
            str(workspace / "model.json"),
            "--geometry",
            str(workspace / "data" / "geometry.json"),
        ],
        input=b"",
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout == b""


def test_detect_skips_malformed_lines(workspace, capsys, tmp_path):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    lines = episode.read_bytes().splitlines()
    nan_t = json.dumps({**json.loads(lines[40]), "t": float("nan")}).encode()
    fuzzed = tmp_path / "fuzzed.jsonl"
    broken = [
        b"{not json",
        b'{"t": 1}',
        b'{"t": "x", "fingertip": "f", "taxels": 3}',
        b'{"t": 1.0, "fingertip": "f\xff", "taxels": []}',  # invalid UTF-8
        nan_t,
    ]
    fuzzed.write_bytes(b"\n".join(lines[:40] + broken + lines[40:80]) + b"\n")
    rc = main(
        [
            "detect",
            "--model",
            str(workspace / "model.json"),
            "--geometry",
            str(workspace / "data" / "geometry.json"),
            "--tau",
            "0.5",
            "--in",
            str(fuzzed),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    errors = [ERROR_LINE.match(line) for line in captured.err.splitlines()]
    assert all(errors), captured.err
    assert [(int(m[1]), m[2]) for m in errors] == [
        (41, "JSONDecodeError"),
        (42, "KeyError"),
        (43, "ValueError"),
        (44, "UnicodeDecodeError"),
        (45, "NonFiniteInput"),
    ]
    # 79 valid frames survive (header excluded), minus the warm-up prefix;
    # every output line is strict JSON
    out = [_strict_json(line) for line in captured.out.splitlines()]
    assert len(out) == 79 - 13


def test_short_stream_with_auto_tau_flushes_at_end(workspace, capsys, tmp_path):
    short = tmp_path / "short.jsonl"
    short.write_bytes(b"\n".join(_episode_lines(workspace)[:32]) + b"\n")  # header + 31
    counts = []
    for extra in ([], ["--tau", "0.5"]):
        assert main(_detect_argv(workspace, *extra, "--in", str(short))) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        counts.append(len(captured.out.splitlines()))
    assert counts == [31 - 13, 31 - 13]


class _Pieces:
    """Stands in for stdin's binary buffer, returning one piece per read1."""

    def __init__(self, data, cuts):
        bounds = [0, *cuts, len(data)]
        self._pieces = iter(data[a:b] for a, b in zip(bounds, bounds[1:]))

    def read1(self, size):
        return next(self._pieces, b"")


def test_detect_output_does_not_depend_on_read_boundaries(
    workspace, capsys, monkeypatch, tmp_path
):
    lines = _episode_lines(workspace)[:60]
    lines[20:20] = [b"", b"{broken", b'{"t": 0.0, "fingertip": "ft0"}']
    data = b"\n".join(lines) + b"\n"
    results = []

    def run(*extra):
        assert main(_detect_argv(workspace, *extra)) == 0
        captured = capsys.readouterr()
        numbers = [int(ERROR_LINE.match(line)[1]) for line in captured.err.splitlines()]
        results.append((captured.out, numbers))

    whole = tmp_path / "whole.jsonl"
    whole.write_bytes(data)
    run("--in", str(whole))
    unterminated = tmp_path / "unterminated.jsonl"
    unterminated.write_bytes(data[:-1])
    run("--in", str(unterminated))
    rng = np.random.default_rng(3)
    cuts = np.sort(rng.choice(np.arange(1, len(data)), size=200, replace=False)).tolist()
    # each read returns exactly one piece, so most reads end inside a line
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Pieces(data, cuts)))
        run()
    # the same pieces written one by one to a real pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "gripwatch.cli", *_detect_argv(workspace)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    for a, b in zip([0, *cuts], [*cuts, len(data)]):
        proc.stdin.write(data[a:b])
        proc.stdin.flush()
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    numbers = [int(ERROR_LINE.match(line)[1]) for line in err.decode().splitlines()]
    results.append((out.decode(), numbers))
    assert results[0][1] == [22, 23]
    assert len(results[0][0].splitlines()) == 59 - 13
    assert results[1:] == [results[0]] * 3


def test_detect_delivers_each_detection_before_the_next_frame(workspace):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "gripwatch.cli", *_detect_argv(workspace, "--tau", "0.5")]
    # leaving the block closes detect's stdin, so it ends even if a check fails
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env) as proc:
        pending = b""
        for i, line in enumerate(_episode_lines(workspace)[1:31]):
            proc.stdin.write(line + b"\n")
            proc.stdin.flush()
            if i < 13:  # warm-up
                continue
            while b"\n" not in pending:
                ready, _, _ = select.select([proc.stdout], [], [], 5.0)
                assert ready, f"no detection within 5 s of frame {i + 1}"
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                assert chunk, "detect closed its stdout"
                pending += chunk
            detection, pending = pending.split(b"\n", 1)
            assert json.loads(detection)["t"] == json.loads(line)["t"]
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0


def test_train_rejects_unlabeled_features(workspace, tmp_path, capsys):
    unlabeled = tmp_path / "unlabeled.jsonl"
    lines = (workspace / "features.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in lines[1:6]]
    for row in rows:
        row["label"] = None
    unlabeled.write_text(
        "\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n"
    )
    rc = main(
        ["train", "--features", str(unlabeled), "--out", str(tmp_path / "m.json")]
    )
    assert rc == 2
    assert "unlabeled features" in capsys.readouterr().err


def test_labels_other_than_zero_and_one_are_data_errors(workspace, tmp_path, capsys):
    signed = tmp_path / "signed.jsonl"
    lines = (workspace / "features.jsonl").read_text().splitlines()
    # -1/+1, and 0.5/1.9, which int() would round to 0/1
    for relabel in (lambda y: 2 * y - 1, lambda y: 0.5 + 1.4 * y):
        rows = [json.loads(l) for l in lines[1:]]
        for row in rows:
            row["label"] = relabel(row["label"])
        signed.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n")
        argvs = (
            ["train", "--features", str(signed), "--out", str(tmp_path / "m.json")],
            ["eval", "--model", str(workspace / "model.json"), "--features", str(signed)],
        )
        for argv in argvs:
            assert main(argv) == 2
            assert "error: InvariantViolation: " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["eval --model", "train --features", "extract --in"])
def test_json_that_is_not_an_object_is_a_parse_error(workspace, tmp_path, capsys, command):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1, 2]\n")
    argvs = {
        "eval --model": ["eval", "--model", str(bad), "--features", str(workspace / "features.jsonl")],
        "train --features": ["train", "--features", str(bad), "--out", str(tmp_path / "m.json")],
        "extract --in": ["extract", "--in", str(bad), "--out", str(tmp_path / "f.jsonl")],
    }
    assert main(argvs[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "gripwatch.cli", "train"], capture_output=True
    )
    assert result.returncode == 1
    assert b"usage" in result.stderr


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = main(["extract", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "f")])
    assert rc == 2
    assert re.match(r"error: FileNotFoundError: ", capsys.readouterr().err)


def test_commands_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", *SMALL, "--out", str(out)]) == 0
        assert main(
            ["extract", "--in", str(out), "--n-w", "14", "--out", str(out / "f.jsonl")]
        ) == 0
        assert main(
            ["train", "--features", str(out / "f.jsonl"), "--out", str(out / "m.json")]
        ) == 0
    for name in [p.name for p in out1.iterdir()]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_svm_and_masked(workspace, tmp_path):
    rc = main(
        [
            "train",
            "--features",
            str(workspace / "features.jsonl"),
            "--kind",
            "svm",
            "--mask",
            "fa,sigma",
            "--out",
            str(tmp_path / "svm.json"),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "svm.json").read_text())
    assert payload["kind"] == "svm"
    assert payload["mask"] == [True, False, False, False, False, True]
    assert len(payload["weights"]) == 2
