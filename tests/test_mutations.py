"""The seeded byte-level mutation gate: no input may end in a traceback.

Each of the five inputs (model, geometry, episode log, feature file and the
``detect`` stream) is mutated by seed, one line at a time: a byte dropped or
duplicated, the line truncated, a value replaced with a nested list, a key
dropped. Every mutant runs through ``main()`` in process. It must exit with 0
or 2 and write nothing on stderr but ``error:`` lines, warnings included. In
the ``detect`` stream only one fingertip's lines are mutated, and the other
fingertip's detections must equal those of the unmutated stream.
"""

import json
import random
import re
import shutil
import warnings

import pytest

from gripwatch.cli import main
from gripwatch.simulate import (
    DisturbanceConfig,
    EpisodeConfig,
    PhaseDurations,
    generate_episode,
    save_episode_log,
)
from gripwatch.tactile import FingertipGeometry, save_geometry

SEEDS = range(8)  # each seed mutates one line in each of the five ways
# 125 frames at 50 Hz, with stable and unstable windows and contact above tau
SHORT = EpisodeConfig(
    seed=3,
    sample_rate_hz=50.0,
    phase_durations=PhaseDurations(0.3, 0.2, 1.2, 0.6, 0.2),
    disturbance=DisturbanceConfig(count=2, duration_s=0.2),
)
KEPT, MUTATED = "ft0", "ft1"  # the detect stream's fingertips
ERROR_LINE = re.compile(r"error: frame \d+: \w+: ")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A one-episode dataset, its features, a model, and a detect stream that
    interleaves the frames of fingertips KEPT and MUTATED after a header."""
    root = tmp_path_factory.mktemp("mutations")
    episode = generate_episode(SHORT)
    save_episode_log(episode, root / "episode.jsonl")
    save_geometry(FingertipGeometry.identity(SHORT.n_s), root / "geometry.json")
    assert main(["extract", "--in", str(root), "--out", str(root / "features.jsonl")]) == 0
    assert main(["train", "--features", str(root / "features.jsonl"), "--out", str(root / "model.json")]) == 0
    header, *kept = (root / "episode.jsonl").read_bytes().splitlines()
    other = generate_episode(EpisodeConfig(**{**vars(SHORT), "seed": 4, "fingertip_id": MUTATED}))
    save_episode_log(other, root / "other.jsonl")
    _, *mutated = (root / "other.jsonl").read_bytes().splitlines()
    lines = [header, *(line for pair in zip(kept, mutated) for line in pair)]
    (root / "stream.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    return root


def _slots(value):
    """(container, key) of every value inside ``value``, at any depth."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield value, key
        yield from _slots(inner)


def _mutants(line: bytes, rng: random.Random):
    """(kind, mutant) of one line of JSON, one mutant per kind."""
    p = rng.randrange(len(line))
    yield "drop a byte", line[:p] + line[p + 1 :]
    p = rng.randrange(len(line))
    yield "duplicate a byte", line[: p + 1] + line[p:]
    yield "truncate the line", line[: rng.randrange(len(line))]
    record = json.loads(line)
    container, key = rng.choice(list(_slots(record)))
    container[key] = [[container[key]]]
    yield "a nested list for a value", json.dumps(record).encode()
    record = json.loads(line)
    dicts = [record, *(c[k] for c, k in _slots(record) if isinstance(c[k], dict))]
    inner = rng.choice([d for d in dicts if d])
    del inner[rng.choice(sorted(inner))]
    yield "drop a key", json.dumps(record).encode()


def _run(argv, capsys, what):
    """(exit code, stdout, stderr lines) of ``main(argv)``; a warning counts
    as a stderr line, and an exception fails the test with ``what``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except Exception as exc:  # what would reach the user as a traceback
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    err = captured.err.splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    return rc, captured.out, err


def _detect(model, geometry, stream):
    return ["detect", "--model", model, "--geometry", geometry, "--tau", "0.5", "--in", stream]


READERS = {  # input -> its file
    "model": "model.json",
    "geometry": "geometry.json",
    "episode log": "episode.jsonl",
    "feature file": "features.jsonl",
}


def _reader_argv(reader, inputs, bad, out):
    """The command that reads ``bad``, a mutant of ``reader``'s file."""
    model, geometry, stream = inputs / "model.json", inputs / "geometry.json", inputs / "stream.jsonl"
    argv = {
        "model": _detect(bad, geometry, stream),
        "geometry": _detect(model, bad, stream),
        "episode log": ["extract", "--in", bad, "--out", out],
        "feature file": ["train", "--features", bad, "--out", out],
    }[reader]
    return [str(arg) for arg in argv]


@pytest.mark.parametrize("reader", READERS)
def test_a_mutated_file_is_one_error_line_or_none(inputs, tmp_path, capsys, reader):
    lines = (inputs / READERS[reader]).read_bytes().splitlines()
    shutil.copy(inputs / "geometry.json", tmp_path)  # extract reads the geometry beside the log
    bad = tmp_path / READERS[reader]
    argv = _reader_argv(reader, inputs, bad, tmp_path / "out")
    for seed in SEEDS:
        rng = random.Random(seed)
        index = rng.randrange(len(lines))
        for kind, mutant in _mutants(lines[index], rng):
            what = f"{reader}, seed {seed}, line {index + 1}: {kind}: {mutant[:200]!r}"
            bad.write_bytes(b"\n".join([*lines[:index], mutant, *lines[index + 1 :]]) + b"\n")
            rc, _, err = _run(argv, capsys, what)
            assert rc in (0, 2), what
            assert len(err) == (rc == 2) and all(e.startswith("error: ") for e in err), (what, err)


def test_a_mutated_fingertip_leaves_the_others_detections_alone(inputs, tmp_path, capsys):
    lines = (inputs / "stream.jsonl").read_bytes().splitlines()
    bad = tmp_path / "stream.jsonl"
    argv = [str(arg) for arg in _detect(inputs / "model.json", inputs / "geometry.json", bad)]

    def kept(out):
        return [line for line in out.splitlines() if json.loads(line)["fingertip"] == KEPT]

    bad.write_bytes(b"\n".join(lines) + b"\n")
    rc, out, err = _run(argv, capsys, "unmutated")
    assert rc == 0 and err == []
    expected = kept(out)
    assert expected and len(expected) < len(out.splitlines())
    mutable = [i for i, line in enumerate(lines) if json.loads(line).get("fingertip") == MUTATED]
    for seed in SEEDS:
        rng = random.Random(seed)
        index = rng.choice(mutable)
        for kind, mutant in _mutants(lines[index], rng):
            what = f"seed {seed}, line {index + 1}: {kind}: {mutant[:200]!r}"
            bad.write_bytes(b"\n".join([*lines[:index], mutant, *lines[index + 1 :]]) + b"\n")
            rc, out, err = _run(argv, capsys, what)
            assert rc == 0, what
            assert all(ERROR_LINE.match(e) for e in err), (what, err)
            assert kept(out) == expected, what
