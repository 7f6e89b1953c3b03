import contextlib
import io
import json
import os
import re
import select
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gripwatch import models
from gripwatch.cli import DETECT_READ_SIZE, main
from gripwatch.evaluate import DEFAULT_ABLATION_GROUPS
from gripwatch.features import DwtConfig, batch_features
from gripwatch.models import load_model, predict_score_batch, sigmoid
from gripwatch.simulate import load_episode_log
from gripwatch.tactile import FingertipGeometry, aggregate_series, load_geometry, save_geometry

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


def _copy_geometry(workspace, directory):
    """Put the workspace's geometry.json in ``directory``: extract reads the
    geometry beside the episode logs."""
    shutil.copy(workspace / "data" / "geometry.json", directory)


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


# The record of `gripwatch study` on the workspace dataset. To regenerate it:
#   gripwatch simulate --objects 2 --episodes 2 --seed 7 --out D
#   gripwatch study --dataset D --report tests/data/study_record.json
STUDY_RECORD = Path(__file__).parent / "data" / "study_record.json"


def _pinned(record):
    """What the study record pins: the keys of every row, its confusion
    counts, and the baseline threshold as stored. The percentages follow
    from the counts."""

    def counts(report):
        return sorted(report), report["confusion"]

    baseline = record["baseline"]
    return {
        "heldout": {kind: counts(report) for kind, report in record["heldout"].items()},
        "sweep": [(row["n_w"], counts(row)) for row in record["sweep"]],
        "ablation": [(row["features"], counts(row)) for row in record["ablation"]],
        "baseline": (
            sorted(baseline),
            baseline["threshold"],
            baseline["degenerate"],
            counts(baseline["train"]),
            counts(baseline["test"]),
        ),
    }


@pytest.fixture(scope="module")
def study(workspace):
    """One `gripwatch study` run on the workspace dataset: its stdout lines,
    its stderr and its report record."""
    record = workspace / "study.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["study", "--dataset", str(workspace / "data"), "--report", str(record)])
    assert rc == 0
    return out.getvalue().splitlines(), err.getvalue(), json.loads(record.read_text())


def test_study_matches_the_pinned_record(workspace, study):
    out, err, payload = study
    assert err.startswith("done in ") and err.count("\n") == 1
    pinned = json.loads(STUDY_RECORD.read_text())
    assert sorted(payload) == ["ablation", "baseline", "heldout", "sweep"]
    assert _pinned(payload) == _pinned(pinned)
    assert [row["n_w"] for row in payload["sweep"]] == [4, 6, 8, 10, 12, 14]
    assert [tuple(row["features"]) for row in payload["ablation"]] == DEFAULT_ABLATION_GROUPS

    assert out[0] == f"read 4 episodes from {workspace / 'data'}"
    sweep = out.index(" n_w    FPR    FNR    FDR    Acc")
    assert [int(line.split()[0]) for line in out[sweep + 1 : sweep + 7]] == [4, 6, 8, 10, 12, 14]
    threshold = payload["baseline"]["threshold"]
    assert f"threshold={threshold:.6g} degenerate=False" in out


# The record of `gripwatch study` on its default dataset (6 x 5 episodes of
# seed 0, in memory). To regenerate it:
#   gripwatch study --report tests/data/study_record_default.json
STUDY_RECORD_DEFAULT = Path(__file__).parent / "data" / "study_record_default.json"


def test_default_study_matches_its_pinned_record(tmp_path, capsys, monkeypatch):
    """Every logistic fit of the study has L <= 1, so it takes unit steps and
    evaluates no loss: its bits hang on no Armijo test."""
    calls = {"loss": [], "grad": []}  # appended to by the fits' threads
    loss_half, grad_half, c = models._HALVES["logreg"]

    def counted(key, fn):
        def call(*args):
            calls[key].append(None)
            return fn(*args)

        return call

    halves = (counted("loss", loss_half), counted("grad", grad_half), c)
    monkeypatch.setitem(models._HALVES, "logreg", halves)
    record = tmp_path / "study.json"
    assert main(["study", "--report", str(record)]) == 0
    capsys.readouterr()
    pinned = json.loads(STUDY_RECORD_DEFAULT.read_text())
    assert _pinned(json.loads(record.read_text())) == _pinned(pinned)
    assert calls["grad"] and not calls["loss"]


def _table_after(out, title):
    """The lines of the table printed under `title`, header first."""
    start = out.index(title) + 1
    end = next((i for i in range(start, len(out)) if not out[i]), len(out))
    return out[start:end]


def test_sweep_table_shape(study):
    out, _, payload = study
    table = _table_after(out, "== window-length sweep (logistic regression) ==")
    assert table[0].split() == ["n_w", "FPR", "FNR", "FDR", "Acc"]
    assert len(table) == 1 + len(payload["sweep"]) == 7
    assert all(len(line.split()) == 5 for line in table[1:])


def test_ablate_builtin_table(study):
    out, _, payload = study
    assert len(payload["ablation"]) == 11
    table = _table_after(out, "== feature-group ablation (logistic regression, n_w=14) ==")
    assert len(table) == 1 + 11


def test_baseline_report(study):
    out, _, payload = study
    table = _table_after(out, "== detail-energy threshold baseline ==")
    assert table[0].startswith("threshold=")
    assert table[1].startswith("  test: tp=")
    assert payload["baseline"]["threshold"] > 0


@pytest.mark.parametrize("empty", ["missing", "empty", "current"])
def test_study_without_episodes_is_a_data_error(tmp_path, capsys, monkeypatch, empty):
    """`--dataset ''` names the current directory, not the default dataset."""
    monkeypatch.chdir(tmp_path)
    dataset = "" if empty == "current" else str(tmp_path / empty)
    if empty == "empty":
        Path(dataset).mkdir()
    assert main(["study", "--dataset", dataset]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParseError: no episode*.jsonl files in {dataset}\n"


@pytest.mark.parametrize("command", ["sweep", "ablate", "baseline"])
def test_study_subcommands_are_gone(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--dataset", str(tmp_path)])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


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
    huge = json.loads(lines[40])
    huge["taxels"][0][0] = 1e200  # finite, but its squared tip force overflows
    fuzzed = tmp_path / "fuzzed.jsonl"
    broken = [
        b"{not json",
        b'{"t": 1}',
        b'{"t": "x", "fingertip": "f", "taxels": 3}',
        b'{"t": 1.0, "fingertip": "f\xff", "taxels": []}',  # invalid UTF-8
        nan_t,
        json.dumps(huge).encode(),
        b'"format"',  # a string, not a header object
        (workspace / "model.json").read_bytes().strip(),  # a header of another format
        b'{"format": "gripwatch-episode", "version": 9}',
        json.dumps({**json.loads(lines[40]), "format": "frame"}).encode(),
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
        (43, "InvariantViolation"),
        (44, "UnicodeDecodeError"),
        (45, "NonFiniteInput"),
        (46, "NonFiniteInput"),
        (47, "TypeError"),
        (48, "ParseError"),
        (49, "VersionMismatch"),
        (50, "ParseError"),
    ]
    # 79 valid frames survive (header excluded), minus the warm-up prefix;
    # every output line is strict JSON
    out = [_strict_json(line) for line in captured.out.splitlines()]
    assert len(out) == 79 - 13


# An integer too large for a float, and one past int's digit limit for str
# to int conversion, which json.loads reports as a plain ValueError.
HUGE = {"past float": "1" + "0" * 400, "past the digit limit": "1" + "0" * 5000}


def _with_field(record, path, value):
    """A copy of ``record`` whose value at ``path`` is ``value``."""
    record = json.loads(json.dumps(record))
    *keys, last = path
    inner = record
    for key in keys:
        inner = inner[key]
    inner[last] = value
    return record


def _with_huge(record, path, digits):
    """``record`` as a JSON line whose value at ``path`` is the integer ``digits``."""
    return json.dumps(_with_field(record, path, "HUGE")).replace('"HUGE"', digits)


@pytest.mark.parametrize(
    "digits, error",
    [(HUGE["past float"], "OverflowError"), (HUGE["past the digit limit"], "ValueError")],
    ids=list(HUGE),
)
def test_detect_reports_a_huge_number_and_goes_on(workspace, capsys, tmp_path, digits, error):
    lines = _episode_lines(workspace)
    frame = {**json.loads(lines[1]), "fingertip": "other"}
    bad = [_with_huge(frame, ("t",), digits), _with_huge(frame, ("taxels", 0, 0), digits)]
    stream = tmp_path / "huge.jsonl"
    stream.write_bytes(b"\n".join([lines[0], *(b.encode() for b in bad), *lines[1:80]]) + b"\n")
    assert main(_detect_argv(workspace, "--tau", "0.5", "--in", str(stream))) == 0
    captured = capsys.readouterr()
    errors = [ERROR_LINE.match(line) for line in captured.err.splitlines()]
    assert all(errors), captured.err
    assert [(int(m[1]), m[2]) for m in errors] == [(2, error), (3, error)]
    out = [_strict_json(line) for line in captured.out.splitlines()]
    assert len(out) == 79 - 13  # the other fingertip's frames are all detected
    assert {d["fingertip"] for d in out} == {json.loads(lines[1])["fingertip"]}


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
    """Stands in for stdin's binary buffer, returning one piece per read1;
    with ``events``, logs ("read", size) there for each read."""

    def __init__(self, data, cuts, events=None):
        bounds = [0, *cuts, len(data)]
        self._pieces = iter(data[a:b] for a, b in zip(bounds, bounds[1:]))
        self._events = events

    def read1(self, size):
        piece = next(self._pieces, b"")
        if self._events is not None:
            self._events.append(("read", len(piece)))
        return piece


class _LoggedStdout:
    """Stands in for stdout, logging each write and flush in ``events``."""

    def __init__(self, events):
        self._events = events

    def write(self, text):
        self._events.append(("write", text))

    def flush(self):
        self._events.append(("flush",))


def test_detect_output_does_not_depend_on_read_boundaries(
    workspace, capsys, monkeypatch, tmp_path
):
    lines = _episode_lines(workspace)[:100]
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
    # short reads, then two full reads in a row (a backlog), then short reads
    start = int(rng.integers(1_000, 20_000))
    end = start + 2 * DETECT_READ_SIZE
    assert end < len(data)
    mixed = [
        *sorted(rng.choice(np.arange(1, start), size=10, replace=False).tolist()),
        start,
        start + DETECT_READ_SIZE,
        end,
        *sorted(rng.choice(np.arange(end + 1, len(data)), size=40, replace=False).tolist()),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Pieces(data, mixed)))
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
    assert len(results[0][0].splitlines()) == 99 - 13
    assert results[1:] == [results[0]] * 4


def test_detect_flushes_each_detection_of_a_short_read(workspace, capsys, monkeypatch, tmp_path):
    frames = _episode_lines(workspace)
    # one line per short read: the header, 13 warm-up frames, then detections
    # around a blank line and a bad one
    head = [*frames[:20], b"", b"{broken", frames[20]]
    wrote = [False] * 14 + [True] * 6 + [False, False, True]
    lines = head + frames[21:120]
    data = b"\n".join(lines) + b"\n"
    ends = np.cumsum([len(line) + 1 for line in lines]).tolist()
    full = ends[len(head) - 1] + DETECT_READ_SIZE  # one full read after the head
    cuts = [*ends[: len(head)], full, *(e for e in ends if full < e < len(data))]
    whole = tmp_path / "whole.jsonl"
    whole.write_bytes(data)
    assert main(_detect_argv(workspace, "--tau", "0.5", "--in", str(whole))) == 0
    expected = capsys.readouterr().out

    events = []
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Pieces(data, cuts, events)))
        patch.setattr(sys, "stdout", _LoggedStdout(events))
        assert main(_detect_argv(workspace, "--tau", "0.5")) == 0
    assert "".join(event[1] for event in events if event[0] == "write") == expected
    reads = []  # (size, the writes and flushes that followed that read)
    for event in events:
        if event[0] == "read":
            reads.append((event[1], []))
        else:
            reads[-1][1].append(event[0])
    for (size, calls), detection in zip(reads, wrote):
        assert size < DETECT_READ_SIZE
        assert calls == (["write", "flush"] if detection else [])
    size, calls = reads[len(head)]
    assert size == DETECT_READ_SIZE
    assert calls == ["write"] * (len(calls) - 1) + ["flush"] and len(calls) > 1
    for size, calls in reads[len(head) + 1 : -1]:
        assert 0 < size < DETECT_READ_SIZE and calls == ["write", "flush"]
    assert reads[-1] == (0, ["flush"])  # end of input, then the final flush


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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_detect_exits_with_one_error_line_when_its_reader_goes_away(workspace, source):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    extra = ["--in", str(episode)] if source == "file" else []
    argv = [sys.executable, "-m", "gripwatch.cli", *_detect_argv(workspace, "--tau", "0.5", *extra)]
    stdin = subprocess.PIPE if source == "stdin" else subprocess.DEVNULL
    lines = iter(episode.read_bytes().splitlines(keepends=True))
    # unbuffered, so that a write to detect's stdin after it exited leaves
    # nothing behind for the close to flush
    with subprocess.Popen(
        argv, bufsize=0, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        if source == "stdin":
            while not select.select([proc.stdout], [], [], 0.01)[0]:
                proc.stdin.write(next(lines))
        assert json.loads(proc.stdout.readline())["state"]
        # the file's detections are several times a pipe's capacity, so detect
        # cannot have written them all before this close
        proc.stdout.close()
        if source == "stdin":
            with contextlib.suppress(BrokenPipeError):
                for line in lines:
                    proc.stdin.write(line)
            proc.stdin.close()
        assert proc.wait(timeout=60) == 2
        err = proc.stderr.read().decode()
    assert re.fullmatch(r"error: BrokenPipeError: [^\n]*\n", err), err


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


@pytest.mark.parametrize(
    "option",
    # an empty mask names the feature '', not the default mask
    [["--l2", "nan"], ["--l2", "inf"], ["--mask", ""]],
    ids=lambda option: " ".join(option),
)
def test_train_refuses_a_non_finite_lambda(workspace, tmp_path, capsys, option):
    out = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace / "features.jsonl"), *option, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvariantViolation: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-0.5"])
def test_detect_refuses_a_bad_tau_before_any_frame(workspace, capsys, tau):
    episode = str(sorted((workspace / "data").glob("episode*.jsonl"))[0])
    assert main([*_detect_argv(workspace, f"--tau={tau}"), "--in", episode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidConfig: ") and captured.err.count("\n") == 1


def test_labels_other_than_zero_and_one_are_data_errors(workspace, tmp_path, capsys):
    signed = tmp_path / "signed.jsonl"
    lines = (workspace / "features.jsonl").read_text().splitlines()
    # -1/+1, 0.5/1.9, which int() would round to 0/1, and the booleans, which
    # Python counts as 0/1; and a feature written as a string
    edits = (
        lambda row: row.update(label=2 * row["label"] - 1),
        lambda row: row.update(label=0.5 + 1.4 * row["label"]),
        lambda row: row.update(label=bool(row["label"])),
        lambda row: row.update(fa=str(row["fa"])),
    )
    for edit in edits:
        rows = [json.loads(l) for l in lines[1:]]
        for row in rows:
            edit(row)
        signed.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n")
        argvs = (
            ["train", "--features", str(signed), "--out", str(tmp_path / "m.json")],
            ["eval", "--model", str(workspace / "model.json"), "--features", str(signed)],
        )
        for argv in argvs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ParseError: line 2: bad feature record: "), err
            assert err.count("\n") == 1, err
        assert not (tmp_path / "m.json").exists()


FILE_FORMATS = {
    "eval --model": "gripwatch-model",
    "detect --model": "gripwatch-model",
    "detect --geometry": None,  # a geometry file has no header
    "train --features": "gripwatch-features",
    "extract --in": "gripwatch-episode",
}
# valid as a feature row and as an episode frame
HEADERLESS_ROWS = "".join(
    json.dumps(
        {"t": t, "fingertip": "ft0", "taxels": [[1, 0, 0]], "fa": 1.0, "fx": 1.0, "fy": 0.0,
         "fz": 0.0, "m": 1.0, "sigma": 0.0, "label": label}
    ) + "\n"
    for t, label in ((0.0, 1), (1.0, 0))
)


def bad_files():
    for command, fmt in FILE_FORMATS.items():
        header = json.dumps({"format": fmt, "version": 1, "n_w": 14}) + "\n"
        yield pytest.param(command, b"[1, 2]\n", "ParseError", id=command)
        yield pytest.param(
            command, b'{"format": "\xff"}\n', "ParseError", id=f"{command}, invalid UTF-8"
        )
        yield pytest.param(
            command, f"\n{HEADERLESS_ROWS}".encode(), "ParseError", id=f"{command}, no header"
        )
        if fmt:
            wrong = json.dumps({"format": fmt, "version": 99}) + "\n"
            yield pytest.param(
                command, wrong.encode(), "VersionMismatch", id=f"{command}, wrong version"
            )
        yield pytest.param(
            command, f"{header}[1, 2]\n".encode(), "ParseError", id=f"{command}, array line"
        )


@pytest.mark.parametrize("command, content, error", list(bad_files()))
def test_json_that_is_not_an_object_is_a_parse_error(
    workspace, tmp_path, capsys, command, content, error
):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(content)
    _copy_geometry(workspace, tmp_path)
    model, geometry = str(workspace / "model.json"), str(workspace / "data" / "geometry.json")
    episode = str(sorted((workspace / "data").glob("episode*.jsonl"))[0])
    argvs = {
        "eval --model": ["eval", "--model", str(bad), "--features", str(workspace / "features.jsonl")],
        "detect --model": ["detect", "--model", str(bad), "--geometry", geometry, "--in", episode],
        "detect --geometry": ["detect", "--model", model, "--geometry", str(bad), "--in", episode],
        "train --features": ["train", "--features", str(bad), "--out", str(tmp_path / "m.json")],
        "extract --in": ["extract", "--in", str(bad), "--out", str(tmp_path / "f.jsonl")],
    }
    assert main(argvs[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err


# (command, file of the workspace, its line, where in that line's object)
HUGE_IN_FILES = [
    ("extract --in", "episode", 1, ("t",)),
    ("extract --in", "episode", 1, ("taxels", 0, 0)),
    ("train --features", "features.jsonl", 1, ("fa",)),
    ("detect --geometry", "data/geometry.json", 0, ("rotations", 0, 0)),
    ("eval --model", "model.json", 0, ("bias",)),
]


@pytest.mark.parametrize("digits", HUGE.values(), ids=list(HUGE))
@pytest.mark.parametrize(
    "command, name, lineno, path", HUGE_IN_FILES, ids=[f"{c}, {p[0]}" for c, _, _, p in HUGE_IN_FILES]
)
def test_a_huge_number_in_a_file_is_a_parse_error(
    workspace, tmp_path, capsys, command, name, lineno, path, digits
):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    source = episode if name == "episode" else workspace / name
    lines = source.read_text().splitlines()
    lines[lineno] = _with_huge(json.loads(lines[lineno]), path, digits)
    bad_dir = tmp_path / "data"
    bad_dir.mkdir()
    _copy_geometry(workspace, bad_dir)
    bad = bad_dir / source.name
    bad.write_text("\n".join(lines) + "\n")
    model = str(workspace / "model.json")
    argvs = {
        "extract --in": ["extract", "--in", str(bad_dir), "--out", str(tmp_path / "f.jsonl")],
        "train --features": ["train", "--features", str(bad), "--out", str(tmp_path / "m.json")],
        "detect --geometry": ["detect", "--model", model, "--geometry", str(bad), "--in", str(episode)],
        "eval --model": ["eval", "--model", str(bad), "--features", str(workspace / "features.jsonl")],
    }
    assert main(argvs[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" or command == "extract --in"
    assert captured.err.startswith("error: ParseError: ") and captured.err.count("\n") == 1, captured.err


def _rotations(n, seed):
    """n rotations in SO(3), drawn by seed, by Rodrigues' formula."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = rng.uniform(0.0, np.pi, n)[:, None, None]
    k = np.zeros((n, 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -axis[:, 2], axis[:, 1], -axis[:, 0]
    k -= k.transpose(0, 2, 1)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


def _p_stable(scores, contact):
    """What detect prints as p_stable for a logreg model, bit for bit: the
    sigmoid of the batch score in contact, null off contact."""
    return [float(sigmoid(s)) if c else None for s, c in zip(scores, contact)]


def test_pipeline_in_rotated_taxel_frames(workspace, tmp_path, capsys):
    """The workspace's taxels, each written in its own seeded frame and saved
    with that geometry: extract and train aggregate through it, so eval
    scores what it scores in the fingertip frame, to rounding, and detect
    --geometry equals the batch path."""
    rotations = _rotations(30, seed=10)
    data = tmp_path / "rotated"
    data.mkdir()
    save_geometry(FingertipGeometry(rotations), data / "geometry.json")
    for episode in sorted((workspace / "data").glob("episode*.jsonl")):
        header, *lines = episode.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:  # the taxel frame's force is R^T times the fingertip frame's
            record["taxels"] = np.einsum("sji,sj->si", rotations, record["taxels"]).tolist()
        (data / episode.name).write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    features, model = tmp_path / "f.jsonl", tmp_path / "m.json"
    assert main(["extract", "--in", str(data), "--out", str(features)]) == 0
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    acc = []
    for trained, scored in ((model, features), (workspace / "model.json", workspace / "features.jsonl")):
        report = tmp_path / "report.json"
        argv = ["eval", "--model", str(trained), "--features", str(scored), "--report", str(report)]
        assert main(argv) == 0
        acc.append(json.loads(report.read_text())["acc"])
    assert acc[0] == pytest.approx(acc[1], abs=1e-9), acc  # rotated, then the fingertip frame

    episode = sorted(data.glob("episode*.jsonl"))[0]
    capsys.readouterr()
    detect = ["detect", "--model", str(model), "--geometry", str(data / "geometry.json")]
    assert main([*detect, "--tau", "0.5", "--in", str(episode)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = [json.loads(line) for line in captured.out.splitlines()]
    geometry = load_geometry(data / "geometry.json")
    t, f_tip, f_a = aggregate_series(load_episode_log(episode, geometry).frames, geometry)
    X, _, t_out = batch_features(t, f_tip, f_a, DwtConfig())
    scores = predict_score_batch(load_model(model), X)
    states = np.where(X[:, 0] < 0.5, "no_contact", np.where(scores > 0, "stable", "unstable"))
    assert [d["t"] for d in out] == t_out.tolist()
    assert [d["sigma"] for d in out] == X[:, 5].tolist()
    assert [d["state"] for d in out] == states.tolist()
    assert [d["p_stable"] for d in out] == _p_stable(scores, X[:, 0] >= 0.5)
    assert {"stable", "unstable", "no_contact"} <= set(states.tolist())


def test_extract_needs_the_geometry_beside_the_episodes(workspace, tmp_path, capsys):
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    shutil.copy(episode, tmp_path)
    out = tmp_path / "f.jsonl"
    for source in (tmp_path, tmp_path / episode.name):
        assert main(["extract", "--in", str(source), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and "geometry.json" in err, err
    assert not out.exists()


def test_pipeline_at_n_w_8_takes_the_window_from_the_model(workspace, tmp_path, capsys):
    data = workspace / "data"
    features, model = tmp_path / "f8.jsonl", tmp_path / "m8.json"
    assert main(["extract", "--in", str(data), "--n-w", "8", "--out", str(features)]) == 0
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    episode = sorted(data.glob("episode*.jsonl"))[0]
    detect = ["detect", "--model", str(model), "--geometry", str(data / "geometry.json")]
    capsys.readouterr()
    assert main([*detect, "--tau", "0.5", "--in", str(episode)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = [json.loads(line) for line in captured.out.splitlines()]

    trained = load_model(model)
    assert trained.dwt_config == DwtConfig(n_w=8)
    geometry = load_geometry(data / "geometry.json")
    frames = load_episode_log(episode, geometry).frames
    t, f_tip, f_a = aggregate_series(frames, geometry)
    X, _, t_out = batch_features(t, f_tip, f_a, DwtConfig(n_w=8))
    scores = predict_score_batch(trained, X)
    assert len(out) == len(frames) - 7
    assert [d["t"] for d in out] == t_out.tolist()
    assert [d["sigma"] for d in out] == X[:, 5].tolist()
    states = np.where(X[:, 0] < 0.5, "no_contact", np.where(scores > 0, "stable", "unstable"))
    assert [d["state"] for d in out] == states.tolist()
    assert [d["p_stable"] for d in out] == _p_stable(scores, X[:, 0] >= 0.5)
    assert {"stable", "unstable", "no_contact"} <= set(states.tolist())

    # the window is the model's alone
    with pytest.raises(SystemExit) as exc:
        main([*detect, "--n-w", "8", "--in", str(episode)])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--features", str(features)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--features", str(workspace / "features.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ") and err.count("\n") == 1, err


def _as_version_2(model):
    """The model as the version 2 format laid it out."""
    model.update(version=2, kind=model["train_config"]["kind"])
    model["train_config"].update(seed=0, hyper_grid=None)


MALFORMED = "ParseError: malformed model file"

BAD_MODEL_EDITS = pytest.mark.parametrize(
    "edit, error",
    [
        (lambda m: m.update(version=1) or m.pop("n_w"), "VersionMismatch"),
        (_as_version_2, "VersionMismatch"),
        (lambda m: m.update(n_w=7), MALFORMED),
        (lambda m: m["weights"].__setitem__(0, float("nan")), MALFORMED),
        (lambda m: m["train_config"].update(kind="foo"), MALFORMED),
        (lambda m: m["train_config"].update(max_iters=2.5), MALFORMED),
        (lambda m: m.update(means=m["means"][:-1]), MALFORMED),
        (lambda m: m.update(stds=m["stds"] + [1.0]), MALFORMED),
        (lambda m: m["stds"].__setitem__(0, 0.0), MALFORMED),
        (lambda m: m.update(mask=m["mask"][:5]), MALFORMED),
        (lambda m: m.update(mask=m["mask"] + [False]), MALFORMED),
        (lambda m: m.update(weights=m["weights"][:-1]), MALFORMED),
        (lambda m: m.update(weights=[[w, 5.0] for w in m["weights"]]), MALFORMED),
        (lambda m: m["mask"].__setitem__(0, 1), MALFORMED),
        (lambda m: m.update(bias=10**400), MALFORMED),
        (lambda m: m.update(bias=str(m["bias"])), MALFORMED),
        (lambda m: m.update(bias=True), MALFORMED),
        (lambda m: m.update(weights=[str(w) for w in m["weights"]]), MALFORMED),
        (lambda m: m["train_config"].update(max_iters=True), MALFORMED),
    ],
    ids=[
        "version 1",
        "version 2",
        "odd window",
        "NaN weight",
        "unknown kind",
        "fractional max_iters",
        "short means",
        "long stds",
        "zero std",
        "mask of 5",
        "mask of 7",
        "short weights",
        "2-D weights",
        "non-boolean mask entry",
        "bias too large for a float",
        "string bias",
        "boolean bias",
        "string weights",
        "boolean max_iters",
    ],
)


def _edited_model(workspace, tmp_path, edit):
    payload = json.loads((workspace / "model.json").read_text())
    edit(payload)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(payload))
    return str(model)


@BAD_MODEL_EDITS
def test_detect_rejects_a_bad_model_file_before_any_frame(workspace, tmp_path, capsys, edit, error):
    model = _edited_model(workspace, tmp_path, edit)
    episode = str(sorted((workspace / "data").glob("episode*.jsonl"))[0])
    geometry = str(workspace / "data" / "geometry.json")
    rc = main(["detect", "--model", model, "--geometry", geometry, "--tau", "0.5", "--in", episode])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ") and captured.err.count("\n") == 1


@BAD_MODEL_EDITS
def test_eval_rejects_a_bad_model_file(workspace, tmp_path, capsys, edit, error):
    model = _edited_model(workspace, tmp_path, edit)
    assert main(["eval", "--model", model, "--features", str(workspace / "features.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("header", [{}, {"n_w": 7}, {"n_w": "14"}])
def test_feature_file_without_a_valid_window_is_a_parse_error(workspace, tmp_path, capsys, header):
    lines = (workspace / "features.jsonl").read_text().splitlines()
    bad = tmp_path / "f.jsonl"
    header = {"format": "gripwatch-features", "version": 1, **header}
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    for argv in (
        ["train", "--features", str(bad), "--out", str(tmp_path / "m.json")],
        ["eval", "--model", str(workspace / "model.json"), "--features", str(bad)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: line 1: bad feature header: n_w")
        assert err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


MALFORMED_GEOMETRY = "ParseError: malformed geometry file: "


@pytest.mark.parametrize(
    "edit",
    [
        lambda g: g["rotations"].__setitem__(1, [1.0, 0, 0, 0, 1.0, 0, 0, 0, -1.0]),
        lambda g: g["rotations"].__setitem__(0, [1.1, 0, 0, 0, 1.1, 0, 0, 0, 1.1]),
        lambda g: g["rotations"][0].__setitem__(0, float("nan")),
        lambda g: g.update(rotations=g["rotations"][:-1]),
        lambda g: g.update(n_s=2.5, rotations=g["rotations"][:2]),
        lambda g: g.update(n_s=True, rotations=g["rotations"][:1]),
        lambda g: g.update(n_s="2", rotations=g["rotations"][:2]),
        lambda g: g.update(rotations=[[str(x) for x in r] for r in g["rotations"]]),
        lambda g: g.update(rotations=[[bool(x) for x in r] for r in g["rotations"]]),
        lambda g: g.update(n_s=0, rotations=[]),
    ],
    ids=[
        "reflection", "1.1 I", "NaN entry", "one rotation short", "n_s 2.5", "n_s true", "n_s '2'",
        "string entries", "boolean entries", "no taxels",
    ],
)
def test_detect_rejects_a_bad_geometry_file_before_any_frame(workspace, tmp_path, capsys, edit):
    payload = json.loads((workspace / "data" / "geometry.json").read_text())
    edit(payload)
    geometry = tmp_path / "geometry.json"
    geometry.write_text(json.dumps(payload))
    episode = str(sorted((workspace / "data").glob("episode*.jsonl"))[0])
    argv = ["detect", "--model", str(workspace / "model.json"), "--geometry", str(geometry)]
    assert main([*argv, "--tau", "0.5", "--in", episode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {MALFORMED_GEOMETRY}"), captured.err
    assert captured.err.count("\n") == 1, captured.err


ECHO = "line 1: bad config echo: "


@pytest.mark.parametrize(
    "edit, n_s, error",
    [
        (lambda c: c.update(sample_rate_hz=float("nan")), 30, ECHO),
        (lambda c: c.update(noise_std=float("inf")), 30, ECHO),
        (lambda c: c["phase_durations"].update(locked=-1.0), 30, ECHO),
        (lambda c: c["disturbance"].update(count=2.5), 30, ECHO),
        (lambda c: c["locked_force"].__setitem__(0, 10**400), 30, ECHO),
        (lambda c: c.update(seed=2.5), 30, ECHO),
        (lambda c: c.update(object_id=float("nan")), 30, ECHO),
        (lambda c: c.update(locked_force=[1.0, 2.0]), 30, ECHO),
        (lambda c: c.update(fingertip_id=5), 30, ECHO),
        (lambda c: c.update(gripper="two-finger"), 30, ECHO),
        (lambda c: None, 2, "line 2: frame has 30 taxels, geometry has 2"),
    ],
    ids=[
        "NaN sample rate",
        "infinite noise_std",
        "negative locked duration",
        "count 2.5",
        "locked force past float",
        "seed 2.5",
        "NaN object_id",
        "two locked force components",
        "integer fingertip id",
        "unknown field",
        "2-taxel geometry",
    ],
)
def test_extract_rejects_a_bad_config_echo(workspace, tmp_path, capsys, edit, n_s, error):
    """A bad log in a dataset directory is one error line that names the log,
    and the line."""
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    header, *frames = episode.read_text().splitlines()
    header = json.loads(header)
    edit(header["config"])
    data = tmp_path / "data"
    data.mkdir()
    save_geometry(FingertipGeometry.identity(n_s), data / "geometry.json")
    (data / episode.name).write_text("\n".join([json.dumps(header), *frames]) + "\n")
    out = tmp_path / "f.jsonl"
    assert main(["extract", "--in", str(data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: ParseError: {data / episode.name}: {error}"), captured.err
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("case", ["timestamp decreases", "log of a header", "features of a header"])
def test_a_file_that_goes_back_in_time_or_holds_no_rows_is_one_error_line(
    workspace, tmp_path, capsys, case
):
    _copy_geometry(workspace, tmp_path)
    header, *frames = (line.decode() for line in _episode_lines(workspace))
    first, second = (json.loads(frame)["t"] for frame in frames[:2])
    log, features = tmp_path / "episode.jsonl", tmp_path / "features.jsonl"
    out = tmp_path / "out.json"
    extract = ["extract", "--in", str(log), "--out", str(out)]
    path, lines, argv, error = {
        "timestamp decreases": (
            log, [header, frames[1], frames[0], *frames[2:]], extract,
            f"{log}: line 3: timestamp {first} decreases below {second}",
        ),
        "log of a header": (log, [header], extract, f"{log}: no frames"),
        "features of a header": (
            features, (workspace / "features.jsonl").read_text().splitlines()[:1],
            ["train", "--features", str(features), "--out", str(out)], "no feature rows",
        ),
    }[case]
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: ParseError: {error}\n")
    assert not out.exists()


def _map_numbers(value, convert):
    if isinstance(value, list):
        return [_map_numbers(v, convert) for v in value]
    return convert(value)


def _with_first_entry(value, entry):
    if isinstance(value, list):
        return [_with_first_entry(value[0], entry), *value[1:]]
    return entry


def _type_mutants(record, paths):
    """Copies of ``record`` with one number field in turn written as true, as
    its string form and, for an array, with its entries as booleans and with
    its first entry alone as true."""
    for path in paths:
        value = record
        for key in path:
            value = value[key]
        yield _with_field(record, path, True)
        yield _with_field(record, path, _map_numbers(value, str))
        if isinstance(value, list):
            yield _with_field(record, path, _map_numbers(value, bool))
            yield _with_field(record, path, _with_first_entry(value, True))


FEATURE_FIELDS = [(key,) for key in ("t", "fa", "fx", "fy", "fz", "m", "sigma", "label")]
MODEL_FIELDS = [("n_w",), ("means",), ("stds",), ("weights",), ("bias",)] + [
    ("train_config", key) for key in ("l2_lambda", "max_iters")
]
# input -> (its line to edit, number fields, other edits, the start of its one
# error line, where {bad} is the edited file)
TYPE_SWEEP = {
    # frame 40 of fingertip ft0 again, between ft0's frames and those of a
    # fingertip "5": a numeric id must not reach "5"'s detector
    "detect stream": (
        41, [("t",), ("taxels",)], [{"fingertip": 5, "t": 99}, {"fingertip": None}],
        "error: frame 42: ",
    ),
    "episode log": (
        1, [("t",), ("taxels",), ("label",)], [{"fingertip": 5}],
        "error: ParseError: {bad}: line 2: ",
    ),
    "feature file": (1, FEATURE_FIELDS, [], "error: ParseError: line 2: "),
    "model": (0, MODEL_FIELDS, [], "error: ParseError: malformed model file: "),
    "geometry": (0, [("n_s",), ("rotations",)], [], f"error: {MALFORMED_GEOMETRY}"),
}


@pytest.mark.parametrize("source", TYPE_SWEEP)
def test_a_bool_or_a_string_for_a_number_is_one_error_line(workspace, tmp_path, capsys, source):
    lineno, paths, edits, error = TYPE_SWEEP[source]
    episode = sorted((workspace / "data").glob("episode*.jsonl"))[0]
    model, geometry = workspace / "model.json", workspace / "data" / "geometry.json"
    path = {"model": model, "geometry": geometry, "feature file": workspace / "features.jsonl"}
    lines = Path(path.get(source, episode)).read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    _copy_geometry(workspace, tmp_path)
    argv = {
        "detect stream": _detect_argv(workspace, "--tau", "0.5", "--in", str(bad)),
        "episode log": ["extract", "--in", str(bad), "--out", str(tmp_path / "f.jsonl")],
        "feature file": ["train", "--features", str(bad), "--out", str(tmp_path / "m.json")],
        "model": ["detect", "--model", str(bad), "--geometry", str(geometry)],
        "geometry": ["detect", "--model", str(model), "--geometry", str(bad)],
    }[source]
    if source in ("model", "geometry"):
        argv += ["--in", str(episode)]
    rc, out = 2, ""
    if source == "detect stream":
        other = [json.dumps({**json.loads(line), "fingertip": "5"}) for line in lines[1:41]]
        lines = [*lines[:41], *other]
        bad.write_text("\n".join(lines) + "\n")
        assert main(argv) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        assert {json.loads(d)["fingertip"] for d in clean.out.splitlines()} == {"ft0", "5"}
        rc, out = 0, clean.out  # every valid frame still reaches its fingertip's detector
        lines.insert(lineno, lines[40])
    record = json.loads(lines[lineno])
    for mutant in [*_type_mutants(record, paths), *({**record, **edit} for edit in edits)]:
        lines[lineno] = json.dumps(mutant)
        bad.write_text("\n".join(lines) + "\n")
        assert main(argv) == rc, mutant
        captured = capsys.readouterr()
        assert captured.out == out, mutant
        assert captured.err.startswith(error.format(bad=bad)), captured.err
        assert captured.err.count("\n") == 1, captured.err
    assert not (tmp_path / "f.jsonl").exists() and not (tmp_path / "m.json").exists()


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["simulate", "--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: seed ") and err.count("\n") == 1, err


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
        assert main(["study", "--dataset", str(out), "--report", str(out / "study.json")]) == 0
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
    assert payload["train_config"]["kind"] == "svm"
    assert payload["mask"] == [True, False, False, False, False, True]
    assert len(payload["weights"]) == 2
