"""The one rule for a record its reader does not expect: files.malformed."""

import json
import shutil

import pytest

from gripwatch.cli import main
from gripwatch.errors import InvalidConfig, ParseError
from gripwatch.files import malformed
from gripwatch.simulate import EpisodeConfig, generate_episode, save_episode_log
from gripwatch.tactile import FingertipGeometry, save_geometry


def test_malformed_leads_with_what_and_passes_a_parse_error_through():
    with pytest.raises(ParseError, match=r"^line 3: bad thing: no 'x' field$"):
        with malformed("bad thing", 3):
            {}["x"]
    with pytest.raises(ParseError, match=r"^line 3: n_w must be"):
        with malformed("", 3):
            raise InvalidConfig("n_w must be even")
    with pytest.raises(ParseError, match=r"^line 7: as raised$"):
        with malformed("bad thing", 3):
            raise ParseError("as raised", line=7)
    with pytest.raises(ZeroDivisionError):  # a fault of the program, not of the record
        with malformed("bad thing"):
            1 / 0


def _drop(record, path):
    *keys, last = path
    for key in keys:
        record = record[key]
    del record[last]


# input -> (its file, the line that loses a key, the key's path, the error, where
# {log} is the episode log)
MISSING = {
    "model": ("model.json", 0, ("weights",), "malformed model file: no 'weights' field"),
    "geometry": ("geometry.json", 0, ("rotations",), "malformed geometry file: no 'rotations' field"),
    "config echo": (
        "episode.jsonl", 0, ("config", "disturbance"), "{log}: line 1: bad config echo: no 'disturbance' field"
    ),
    "frame": ("episode.jsonl", 1, ("taxels",), "{log}: line 2: no 'taxels' field"),
    "feature record": ("features.jsonl", 1, ("sigma",), "line 2: bad feature record: no 'sigma' field"),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """An episode log and its geometry, features and model."""
    root = tmp_path_factory.mktemp("files")
    save_episode_log(generate_episode(EpisodeConfig(seed=1)), root / "episode.jsonl")
    save_geometry(FingertipGeometry.identity(), root / "geometry.json")
    assert main(["extract", "--in", str(root), "--out", str(root / "features.jsonl")]) == 0
    assert main(["train", "--features", str(root / "features.jsonl"), "--out", str(root / "model.json")]) == 0
    return root


@pytest.mark.parametrize("source", MISSING)
def test_a_missing_key_reads_the_same_in_every_reader(dataset, tmp_path, capsys, source):
    for name in ("episode.jsonl", "geometry.json", "features.jsonl", "model.json"):
        shutil.copy(dataset / name, tmp_path)
    name, lineno, path, message = MISSING[source]
    lines = (tmp_path / name).read_text().splitlines()
    record = json.loads(lines[lineno])
    _drop(record, path)
    lines[lineno] = json.dumps(record)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    model, features = str(tmp_path / "model.json"), str(tmp_path / "features.jsonl")
    argv = {
        "model.json": ["eval", "--model", model, "--features", features],
        "geometry.json": ["extract", "--in", str(tmp_path), "--out", str(tmp_path / "f.jsonl")],
        "episode.jsonl": ["extract", "--in", str(tmp_path), "--out", str(tmp_path / "f.jsonl")],
        "features.jsonl": ["train", "--features", features, "--out", str(tmp_path / "m.json")],
    }[name]
    capsys.readouterr()
    assert main(argv) == 2
    message = message.format(log=tmp_path / "episode.jsonl")
    assert capsys.readouterr().err == f"error: ParseError: {message}\n"
