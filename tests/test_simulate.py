import dataclasses
import json
import math

import numpy as np
import pytest

from gripwatch.errors import (
    InvalidConfig,
    InvariantViolation,
    LengthMismatch,
    NonFiniteInput,
    ParseError,
)
from gripwatch.evaluate import dataset_feature_matrix, episode_feature_matrix
from gripwatch.features import DwtConfig
from gripwatch.models import TrainConfig
from gripwatch.simulate import (
    DisturbanceConfig,
    EpisodeConfig,
    LabeledEpisode,
    PhaseDurations,
    generate_dataset,
    generate_episode,
    load_episode_log,
    save_episode_log,
)
from gripwatch.tactile import FingertipGeometry, TaxelFrame, aggregate_series

ONE_TAXEL, TWO_TAXELS = FingertipGeometry.identity(1), FingertipGeometry.identity(2)

QUIET = EpisodeConfig(
    seed=5,
    phase_durations=PhaseDurations(0.2, 0.2, 1.0, 0.4, 0.2),
    noise_std=0.0,
    disturbance=DisturbanceConfig(count=0),
    n_s=4,
    contact_taxels=2,
)


def frames_equal(a, b):
    return (
        a.timestamp == b.timestamp
        and a.fingertip_id == b.fingertip_id
        and np.array_equal(a.taxels, b.taxels)
    )


def test_noise_free_labels_span_locked_phase_exactly():
    ep = generate_episode(QUIET)
    rate = QUIET.sample_rate_hz
    p = QUIET.phase_durations
    b_locked = math.ceil((p.no_contact + p.ramp) * rate)
    b_dist = math.ceil((p.no_contact + p.ramp + p.locked) * rate)
    expected = np.zeros(len(ep.frames), dtype=int)
    expected[b_locked:b_dist] = 1
    assert np.array_equal(ep.labels, expected)
    f_a = np.array([np.linalg.norm(f.taxels.sum(axis=0)) for f in ep.frames])
    locked_amp = np.linalg.norm(QUIET.locked_force)
    assert np.allclose(f_a[b_locked:b_dist], locked_amp, atol=1e-9)


def test_frame_count_is_ceil_of_duration_times_rate():
    cfg = EpisodeConfig(
        seed=0,
        sample_rate_hz=37.0,
        phase_durations=PhaseDurations(0.31, 0.17, 0.53, 0.2, 0.11),
        n_s=2,
        contact_taxels=1,
        disturbance=DisturbanceConfig(count=1, duration_s=0.05),
    )
    ep = generate_episode(cfg)
    assert len(ep.frames) == math.ceil(cfg.phase_durations.total() * 37.0)


def test_only_no_contact_phase():
    cfg = EpisodeConfig(
        seed=1,
        phase_durations=PhaseDurations(1.0, 0, 0, 0, 0),
        noise_std=0.0,
        disturbance=DisturbanceConfig(count=0),
        n_s=3,
        contact_taxels=1,
    )
    ep = generate_episode(cfg)
    assert len(ep.frames) == 150
    assert not ep.labels.any()
    assert all(np.allclose(f.taxels, 0.0) for f in ep.frames)


def test_determinism_bit_identical():
    cfg = EpisodeConfig(seed=42, n_s=6, contact_taxels=3)
    a = generate_episode(cfg)
    b = generate_episode(cfg)
    assert np.array_equal(a.labels, b.labels)
    assert all(frames_equal(x, y) for x, y in zip(a.frames, b.frames))


def test_noise_free_locked_windows_have_zero_sigma():
    ep = generate_episode(QUIET)
    X, y, _ = episode_feature_matrix(ep, DwtConfig(n_w=6))
    locked = y == 1
    # skip the first windows after lock, which still contain ramp samples
    assert np.allclose(X[locked][6:, 5], 0.0, atol=1e-12)


def test_disturbance_raises_sigma_above_quiet_plateau():
    cfg = EpisodeConfig(
        seed=9,
        phase_durations=PhaseDurations(0.2, 0.2, 2.0, 1.0, 0.2),
        disturbance=DisturbanceConfig(count=2, magnitude=4.0, duration_s=0.3),
        n_s=6,
        contact_taxels=3,
    )
    ep = generate_episode(cfg)
    X, y, _ = episode_feature_matrix(ep, DwtConfig())
    sigma = X[:, 5]
    stable_max = sigma[y == 1][20:-1].max()
    assert sigma[y == 0].max() > 5 * stable_max


def test_dataset_shape_and_object_ids():
    episodes = generate_dataset(6, 5, EpisodeConfig(seed=0, n_s=4, contact_taxels=2))
    assert len(episodes) == 30
    assert sorted({e.metadata.object_id for e in episodes}) == [1, 2, 3, 4, 5, 6]


def test_dataset_deterministic():
    base = EpisodeConfig(seed=3, n_s=4, contact_taxels=2)
    a = generate_dataset(2, 2, base)
    b = generate_dataset(2, 2, base)
    for ea, eb in zip(a, b):
        assert all(frames_equal(x, y) for x, y in zip(ea.frames, eb.frames))


def test_single_episode_dataset_matches_generate_episode():
    base = EpisodeConfig(seed=3, n_s=4, contact_taxels=2)
    [ep] = generate_dataset(1, 1, base)
    direct = generate_episode(ep.metadata)
    assert all(frames_equal(x, y) for x, y in zip(ep.frames, direct.frames))


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        EpisodeConfig(sample_rate_hz=0)
    with pytest.raises(InvalidConfig):
        EpisodeConfig(noise_std=-1)
    with pytest.raises(InvalidConfig):
        DisturbanceConfig(direction_mode="up")
    with pytest.raises(InvalidConfig):
        EpisodeConfig(n_s=4, contact_taxels=5)
    with pytest.raises(InvalidConfig):
        generate_dataset(0, 1, EpisodeConfig())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"], ids=repr)
@pytest.mark.parametrize(
    "record", [EpisodeConfig, PhaseDurations, DisturbanceConfig, TrainConfig], ids=lambda r: r.__name__
)
def test_config_records_refuse_a_non_finite_float(record, bad):
    # Every number field, found by walking the record, so that a field added
    # later, a check written as `x < 0` that NaN slips past, or one that takes
    # a bool or a numeric string for a number, shows here.
    edits = [{f.name: bad} for f in dataclasses.fields(record) if f.type in ("float", "int")]
    if record is EpisodeConfig:
        edits += [{"locked_force": tuple(bad if j == i else 1.0 for j in range(3))} for i in range(3)]
    assert edits
    for edit in edits:
        with pytest.raises((InvalidConfig, InvariantViolation)):
            record(**edit)


def test_episode_log_round_trip(tmp_path):
    ep = generate_episode(EpisodeConfig(seed=8, n_s=4, contact_taxels=2))
    path = tmp_path / "ep.jsonl"
    save_episode_log(ep, path)
    loaded = load_episode_log(path, ep.geometry)
    assert np.array_equal(loaded.labels, ep.labels)
    assert loaded.metadata == ep.metadata
    for a, b in zip(loaded.frames, ep.frames):
        assert frames_equal(a, b)  # repr round-trip keeps floats exact
    assert np.array_equal(loaded.t, ep.t)
    assert np.array_equal(loaded.taxels, ep.taxels)
    assert loaded.labels.dtype == ep.labels.dtype
    assert loaded.fingertip_id == ep.fingertip_id


def test_episode_log_reports_line_of_bad_frame(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"format": "gripwatch-episode", "version": 1, "n_s": 2}
    frame = {"t": 0.0, "fingertip": "f", "taxels": [[1, 0, 0]], "label": 0}
    path.write_text(json.dumps(header) + "\n" + json.dumps(frame) + "\n")
    with pytest.raises(ParseError, match="line 2"):
        load_episode_log(path, ONE_TAXEL)


@pytest.mark.parametrize("bad_t", [float("nan"), float("inf")])
def test_episode_log_rejects_a_non_finite_timestamp(tmp_path, bad_t):
    # A NaN would also hide the 1.0 -> 0.5 decrease after it from the order check.
    path = tmp_path / "t.jsonl"
    header = {"format": "gripwatch-episode", "version": 1, "n_s": 1}
    frames = [
        {"t": t, "fingertip": "f", "taxels": [[1, 0, 0]], "label": 0}
        for t in (0.0, 1.0, bad_t, 0.5, float("inf"))
    ]
    path.write_text("\n".join(json.dumps(r) for r in [header, *frames]) + "\n")
    with pytest.raises(ParseError, match="line 4: non-finite timestamp"):
        load_episode_log(path, ONE_TAXEL)


@pytest.mark.parametrize("label", [0.7, 1.9, -1, "1", None, True])
def test_episode_log_rejects_a_label_other_than_0_or_1(tmp_path, label):
    path = tmp_path / "labels.jsonl"
    header = {"format": "gripwatch-episode", "version": 1, "n_s": 1}
    frames = [
        {"t": t, "fingertip": "f", "taxels": [[1, 0, 0]], "label": lab}
        for t, lab in ((0.0, 1), (0.1, label))
    ]
    path.write_text("\n".join(json.dumps(r) for r in [header, *frames]) + "\n")
    with pytest.raises(ParseError, match="line 3: label must be 0 or 1"):
        load_episode_log(path, ONE_TAXEL)


def test_episode_log_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ParseError, match="no gripwatch-episode header"):
        load_episode_log(path, ONE_TAXEL)


def test_episode_log_bad_header(tmp_path):
    path = tmp_path / "hdr.jsonl"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_episode_log(path, ONE_TAXEL)


SHORT = EpisodeConfig(
    seed=11,
    sample_rate_hz=37.0,
    phase_durations=PhaseDurations(0.5, 0.2, 2.0, 1.0, 0.2),
    disturbance=DisturbanceConfig(count=2, duration_s=0.3),
    fingertip_id="ft3",
)


def test_frames_match_per_frame_construction():
    ep = generate_episode(SHORT)
    n = len(ep.labels)
    # The per-frame construction episodes were once generated with.
    reference = [
        TaxelFrame(i / SHORT.sample_rate_hz, "ft3", ep.taxels[i], label=int(ep.labels[i]))
        for i in range(n)
    ]
    frames = ep.frames
    assert len(frames) == n == ep.t.shape[0] == ep.taxels.shape[0]
    for got, want in zip(frames, reference):
        assert type(got.timestamp) is float and got.timestamp == want.timestamp
        assert got.fingertip_id == want.fingertip_id
        assert np.array_equal(got.taxels, want.taxels)
        assert type(got.label) is int and got.label == want.label
    assert ep.frames is not frames  # built on demand, not held


def test_cached_forces_bitwise_equal_to_aggregate_series():
    ep = generate_episode(SHORT)
    f_tip, f_a = ep.forces
    t, ref_tip, ref_a = aggregate_series(ep.frames, FingertipGeometry.identity(SHORT.n_s))
    assert np.array_equal(t, ep.t)
    assert f_tip.tobytes() == ref_tip.tobytes()
    assert f_a.tobytes() == ref_a.tobytes()
    assert ep.forces[0] is f_tip  # aggregated once


def test_forces_aggregate_through_the_episodes_geometry():
    ep = generate_episode(SHORT)
    assert ep.geometry.n_s == SHORT.n_s  # generated in the fingertip frame
    angle = np.linspace(0.0, np.pi, SHORT.n_s)
    rotations = np.zeros((SHORT.n_s, 3, 3))
    rotations[:, 0, 0], rotations[:, 0, 1] = np.cos(angle), -np.sin(angle)
    rotations[:, 1, 0], rotations[:, 1, 1], rotations[:, 2, 2] = np.sin(angle), np.cos(angle), 1.0
    rotated = LabeledEpisode(ep.t, ep.taxels, ep.labels, ep.fingertip_id, FingertipGeometry(rotations))
    _, ref_tip, ref_a = aggregate_series(rotated.frames, rotated.geometry)
    assert rotated.forces[0].tobytes() == ref_tip.tobytes()
    assert rotated.forces[1].tobytes() == ref_a.tobytes()
    assert not np.allclose(rotated.forces[0], ep.forces[0])
    with pytest.raises(LengthMismatch, match="samples have 30 taxels, geometry has 2"):
        LabeledEpisode(ep.t, ep.taxels, ep.labels, ep.fingertip_id, TWO_TAXELS)


def test_episode_arrays_are_read_only():
    ep = generate_episode(SHORT)
    for array in (ep.t, ep.taxels, ep.labels, *ep.forces):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_episode_rejects_misshapen_arrays():
    t, taxels, labels = np.zeros(3), np.zeros((3, 2, 3)), np.zeros(3, dtype=int)
    LabeledEpisode(t, taxels, labels, "f", TWO_TAXELS)
    for bad in (
        (np.zeros(2), taxels, labels),
        (t, taxels, np.zeros(4, dtype=int)),
        (t, np.zeros((2, 2, 3)), labels),
        (np.zeros((3, 1)), taxels, labels),
        (t, np.zeros((3, 6)), labels),
        (t, np.zeros((3, 2, 2)), labels),
    ):
        with pytest.raises(InvariantViolation):
            LabeledEpisode(*bad, "f", TWO_TAXELS)
    with pytest.raises(InvariantViolation, match="labels must be 0 or 1"):
        LabeledEpisode(t, taxels, [0.5, 1.7, 1.0], "f", TWO_TAXELS)


def test_nan_taxel_raises_through_the_force_cache():
    ep = generate_episode(SHORT)
    taxels = ep.taxels.copy()
    taxels[5, 0, 1] = np.nan
    bad = LabeledEpisode(ep.t, taxels, ep.labels, ep.fingertip_id, ep.geometry)
    dataset_feature_matrix([ep], DwtConfig())
    for _ in range(2):  # a failed aggregation is not cached
        with pytest.raises(NonFiniteInput):
            dataset_feature_matrix([ep, bad], DwtConfig())


def _frame_line(fingertip, t=0.0):
    return json.dumps({"t": t, "fingertip": fingertip, "taxels": [[1, 0, 0]], "label": 0})


def test_episode_log_rejects_mixed_fingertips(tmp_path):
    path = tmp_path / "mixed.jsonl"
    header = json.dumps({"format": "gripwatch-episode", "version": 1, "n_s": 1})
    lines = [header, _frame_line("a"), _frame_line("a", 0.1), _frame_line("b", 0.2)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 4.*'b'"):
        load_episode_log(path, ONE_TAXEL)


def test_episode_log_without_n_s_rejects_changing_taxel_count(tmp_path):
    path = tmp_path / "ragged.jsonl"
    header = json.dumps({"format": "gripwatch-episode", "version": 1})
    wide = json.dumps({"t": 0.1, "fingertip": "a", "taxels": [[1, 0, 0], [0, 1, 0]], "label": 0})
    path.write_text("\n".join([header, _frame_line("a"), wide]) + "\n")
    with pytest.raises(ParseError, match="line 3"):
        load_episode_log(path, ONE_TAXEL)


def test_episode_log_bytes_match_per_frame_writer(tmp_path):
    ep = generate_episode(SHORT)
    path = tmp_path / "ep.jsonl"
    save_episode_log(ep, path)
    # The writer that went frame by frame, kept as the reference.
    header = {"format": "gripwatch-episode", "version": 1, "n_s": ep.frames[0].n_s}
    header["config"] = dataclasses.asdict(ep.metadata)
    lines = [json.dumps(header)]
    for frame, label in zip(ep.frames, ep.labels):
        lines.append(
            json.dumps(
                {
                    "t": frame.timestamp,
                    "fingertip": frame.fingertip_id,
                    "taxels": frame.taxels.tolist(),
                    "label": int(label),
                }
            )
        )
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
