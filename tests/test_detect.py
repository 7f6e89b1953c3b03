import numpy as np
import pytest

from gripwatch.detect import (
    NO_CONTACT,
    STABLE,
    UNSTABLE,
    FingertipDetector,
    MultiFingerDetector,
    detect_stream,
)
from gripwatch.errors import GripwatchError, InvalidConfig, NonFiniteInput, OutOfOrderTimestamp
from gripwatch.features import DwtConfig, batch_features
from gripwatch.models import (
    DEFAULT_MASK,
    LinearModel,
    TrainConfig,
    predict_score_batch,
    sigmoid,
    train,
)
from gripwatch.simulate import DisturbanceConfig, EpisodeConfig, PhaseDurations, generate_dataset
from gripwatch.evaluate import dataset_feature_matrix
from gripwatch.tactile import FingertipGeometry, TaxelFrame, aggregate_series

N_S = 6


@pytest.fixture(scope="module")
def episodes():
    base = EpisodeConfig(
        seed=0,
        phase_durations=PhaseDurations(0.5, 0.2, 3.0, 1.5, 0.2),
        disturbance=DisturbanceConfig(count=3, magnitude=4.0, duration_s=0.4),
        n_s=N_S,
        contact_taxels=3,
    )
    return generate_dataset(2, 2, base)


@pytest.fixture(scope="module")
def model(episodes):
    X, y, _ = dataset_feature_matrix(episodes, DwtConfig())
    return train((X, y), TrainConfig())


@pytest.fixture(scope="module")
def geometry():
    return FingertipGeometry.identity(N_S)


def zero_frames(n, fingertip="ft0"):
    return [TaxelFrame(i / 150.0, fingertip, np.zeros((N_S, 3))) for i in range(n)]


def test_all_zero_frames_report_no_contact(model, geometry):
    out = list(detect_stream(zero_frames(100), model, geometry))
    assert len(out) == 100 - 13
    assert all(d.state == NO_CONTACT for d in out)


def test_explicit_tau_gate(model, geometry):
    out = list(detect_stream(zero_frames(40), model, geometry, tau=0.5))
    assert len(out) == 40 - 13
    assert all(d.state == NO_CONTACT and d.p_stable is None for d in out)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("detector", [FingertipDetector, MultiFingerDetector])
def test_a_tau_that_is_not_a_finite_number_at_least_zero_is_refused(model, geometry, detector, tau):
    with pytest.raises(InvalidConfig, match="tau"):
        detector(model, geometry, tau=tau)


def test_locked_phase_classified_stable(model, geometry, episodes):
    ep = episodes[0]
    out = list(detect_stream(ep.frames, model, geometry, tau=0.5))
    assert len(out) == len(ep.frames) - 13
    # sample the middle of the locked phase
    locked = [d for d, label in zip(out, ep.labels[13:]) if label == 1]
    mid = locked[len(locked) // 2]
    assert mid.state == STABLE
    assert mid.p_stable > 0.5
    stable_frac = np.mean([d.state == STABLE for d in locked])
    assert stable_frac > 0.9


def test_failed_grasp_dominated_by_unstable(model, geometry):
    # contact held only in short periods: plateau interrupted by disturbances
    cfg = EpisodeConfig(
        seed=11,
        phase_durations=PhaseDurations(0.3, 0.1, 0.3, 2.0, 0.2),
        disturbance=DisturbanceConfig(count=8, magnitude=5.0, duration_s=0.2),
        n_s=N_S,
        contact_taxels=3,
    )
    [ep] = generate_dataset(1, 1, cfg)
    out = [d for d in detect_stream(ep.frames, model, geometry, tau=0.5)]
    contact = [d for d in out if d.state != NO_CONTACT]
    dist_states = [d.state for d in contact if d.timestamp > 0.7]
    assert dist_states.count(UNSTABLE) > dist_states.count(STABLE)


@pytest.mark.parametrize("tau", [0.5, None])
def test_fingertips_are_independent(model, geometry, episodes, tau):
    """Interleaved fingertips, each calibrating its own tau when none is
    given, give what each gives alone."""
    ep = episodes[0]
    frames_a = [TaxelFrame(f.timestamp, "a", f.taxels) for f in ep.frames]
    frames_b = [TaxelFrame(f.timestamp, "b", f.taxels) for f in ep.frames]
    interleaved = [f for pair in zip(frames_a, frames_b) for f in pair]
    merged = list(detect_stream(interleaved, model, geometry, tau=tau))
    solo = list(detect_stream(frames_a, model, geometry, tau=tau))
    for key in ("a", "b"):
        per_finger = [d for d in merged if d.fingertip_id == key]
        assert len(per_finger) == len(solo)
        for d, s in zip(per_finger, solo):
            assert (d.timestamp, d.state, d.p_stable, d.sigma) == (
                s.timestamp,
                s.state,
                s.p_stable,
                s.sigma,
            )


def test_auto_tau_calibration_emits_retroactively(model, geometry, episodes):
    ep = episodes[0]
    detector = FingertipDetector(model, geometry)  # tau estimated from prefix
    outputs = []
    for i, frame in enumerate(ep.frames[:80]):
        produced = detector.process(frame)
        if i < 49:
            assert produced == []
        outputs.extend(produced)
    assert detector.tau > 0
    # one output per frame after warm-up, despite the calibration delay
    assert len(outputs) == 80 - 13


def test_svm_model_detections_have_no_probability(episodes, geometry):
    X, y, _ = dataset_feature_matrix(episodes, DwtConfig())
    svm = train((X, y), TrainConfig(kind="svm"))
    out = list(detect_stream(episodes[0].frames, svm, geometry, tau=0.5))
    assert all(d.p_stable is None for d in out)
    assert any(d.state == STABLE for d in out)


def test_short_stream_calibrates_tau_at_finish(model, geometry, episodes):
    frames = episodes[0].frames[:31]
    detector = FingertipDetector(model, geometry)
    assert [d for f in frames for d in detector.process(f)] == []
    out = detector.finish()
    assert len(out) == 31 - 13
    assert detector.tau > 0
    assert detector.finish() == []
    assert len(list(detect_stream(frames, model, geometry))) == 31 - 13


def test_nan_timestamp_rejected_without_touching_order(model, geometry):
    detector = FingertipDetector(model, geometry, tau=0.5)
    frames = zero_frames(3)
    detector.process(frames[1])
    with pytest.raises(NonFiniteInput):
        detector.process(TaxelFrame(float("nan"), "ft0", np.zeros((N_S, 3))))
    with pytest.raises(OutOfOrderTimestamp):
        detector.process(frames[0])
    detector.process(frames[2])


def test_state_and_probability_follow_one_score(geometry):
    # score = 1e-17 > 0 rounds to p = 0.5 exactly; the state must be stable
    tiny = LinearModel(
        np.zeros(5),
        1e-17,
        np.zeros(5),
        np.ones(5),
        DEFAULT_MASK,
        TrainConfig(),
        DwtConfig(),
    )
    frames = [TaxelFrame(i / 150.0, "ft0", np.ones((N_S, 3))) for i in range(14)]
    [d] = list(detect_stream(frames, tiny, geometry, tau=0.0))
    assert (d.state, d.p_stable) == (STABLE, 0.5)


@pytest.mark.parametrize("tau", [0.5, None])
def test_detector_computes_what_the_batch_path_computes(model, geometry, episodes, tau):
    ep = episodes[0]
    detector = FingertipDetector(model, geometry, tau=tau)
    out = [d for f in ep.frames for d in detector.process(f)] + detector.finish()
    t, f_tip, f_a = aggregate_series(ep.frames, geometry)
    X, _, t_out = batch_features(t, f_tip, f_a, DwtConfig())
    scores = predict_score_batch(model, X)
    assert [d.timestamp for d in out] == t_out.tolist()
    assert [d.sigma for d in out] == X[:, 5].tolist()
    contact = X[:, 0] >= detector.tau
    assert [d.state != NO_CONTACT for d in out] == contact.tolist()
    assert 0 < contact.sum() < len(out)
    states = np.where(scores > 0, STABLE, UNSTABLE)
    assert [d.state for d in out if d.state != NO_CONTACT] == states[contact].tolist()
    p_stable = [float(sigmoid(s)) if c else None for s, c in zip(scores, contact)]
    assert [d.p_stable for d in out] == p_stable  # to the bit: one score order at any batch size


def test_detector_window_comes_from_the_model(episodes, geometry):
    config = DwtConfig(n_w=8)
    X, y, _ = dataset_feature_matrix(episodes, config)
    model = train((X, y), TrainConfig(max_iters=50), dwt_config=config)
    assert model.dwt_config == config
    ep = episodes[0]
    out = list(detect_stream(ep.frames, model, geometry, tau=0.5))
    t, f_tip, f_a = aggregate_series(ep.frames, geometry)
    X, _, t_out = batch_features(t, f_tip, f_a, config)
    assert [d.timestamp for d in out] == t_out.tolist()
    assert [d.sigma for d in out] == X[:, 5].tolist()


def tip_force_frame(t, f_z):
    """A frame whose one nonzero taxel force is f_z along z."""
    taxels = np.zeros((N_S, 3))
    taxels[0, 2] = f_z
    return TaxelFrame(t, "ft0", taxels)


# Force amplitudes near the float range that the detector accepts. Zeroing the
# last one turns its Haar detail against the other six, and sigma's sum of
# squares overflows.
NEAR_FLOAT_RANGE = [0.0, 1.2e154] * 6 + [1.2e154] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rejected_frames_leave_the_detector_unchanged(model, geometry, episodes):
    def refused_at_any_frame(i, frame):
        if not i:
            return []
        return [
            (TaxelFrame(frame.timestamp - 1.0, "ft0", frame.taxels), "< previous"),
            (TaxelFrame(frame.timestamp, "ft0", np.full((N_S, 3), np.nan)), "NaN/Inf"),
            (TaxelFrame(frame.timestamp, "ft0", np.zeros((N_S + 1, 3))), "taxels"),
            (tip_force_frame(frame.timestamp, 1e200), "force amplitude"),  # f_a overflows
        ]

    near = [tip_force_frame(i / 150.0, f_z) for i, f_z in enumerate(NEAR_FLOAT_RANGE)]

    def refused_at_the_last_frame(i, frame):
        if i < len(near) - 1:
            return []
        return [(tip_force_frame(frame.timestamp, 0.0), "window statistics")]  # sigma overflows

    streams = [
        (episodes[0].frames[:80], None, refused_at_any_frame, 80 - 13),
        (near, 0.5, refused_at_the_last_frame, 1),
    ]
    for frames, tau, refused, n_detections in streams:
        clean = FingertipDetector(model, geometry, tau=tau)
        noisy = FingertipDetector(model, geometry, tau=tau)
        expected, got = [], []
        for i, frame in enumerate(frames):
            expected += clean.process(frame)
            for bad, reason in refused(i, frame):
                with pytest.raises(GripwatchError, match=reason):
                    noisy.process(bad)
            got += noisy.process(frame)
        assert got == expected and len(got) == n_detections
    with pytest.raises(NonFiniteInput):  # no detector ever sees this frame
        TaxelFrame(float("nan"), "ft0", np.zeros((N_S, 3)))
