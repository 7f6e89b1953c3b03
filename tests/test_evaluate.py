import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gripwatch.evaluate as evaluate
from gripwatch.errors import EmptyDataset, InvalidConfig, InvariantViolation
from gripwatch.evaluate import (
    DEFAULT_ABLATION_GROUPS,
    BaselineReport,
    ConfusionMatrix,
    ablation_study,
    compute_metrics,
    energy_threshold_baseline,
    format_ablation_table,
    format_sweep_table,
    group_mask,
    split_indices,
    window_sweep,
)
from gripwatch.features import DwtConfig
from gripwatch.models import DEFAULT_MASK, TrainConfig
from gripwatch.simulate import (
    DisturbanceConfig,
    EpisodeConfig,
    PhaseDurations,
    generate_dataset,
)

counts = st.integers(0, 10_000)


@pytest.fixture(scope="module")
def small_dataset():
    base = EpisodeConfig(
        seed=0,
        phase_durations=PhaseDurations(0.3, 0.2, 2.0, 1.0, 0.2),
        disturbance=DisturbanceConfig(count=2, magnitude=4.0, duration_s=0.4),
        n_s=6,
        contact_taxels=3,
    )
    return generate_dataset(2, 2, base)


def test_balanced_confusion_reference_values():
    # row percentages 95.1/4.9 and 4.5/95.5 on 1000 samples per class
    report = compute_metrics(ConfusionMatrix(tp=955, tn=951, fp=49, fn=45))
    assert report.acc == pytest.approx(95.3, abs=1e-9)
    # row percentages 96.2/3.8 and 3.5/96.5
    report = compute_metrics(ConfusionMatrix(tp=965, tn=962, fp=38, fn=35))
    assert report.acc == pytest.approx(96.35, abs=1e-9)


def test_metric_formulas():
    report = compute_metrics(ConfusionMatrix(tp=40, tn=50, fp=5, fn=5))
    assert report.acc == pytest.approx(90.0)
    assert report.fdr == pytest.approx(500 / 45)
    assert report.fpr == pytest.approx(500 / 55)
    assert report.fnr == pytest.approx(500 / 45)


def test_zero_denominator_yields_undefined_marker():
    report = compute_metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=5))
    assert report.fdr is None
    assert report.fpr == 0.0


def test_confusion_rejects_labels_other_than_zero_and_one():
    assert ConfusionMatrix.from_predictions([1, 0, True], [1, 1, 0]) == ConfusionMatrix(1, 0, 1, 1)
    bad_pairs = (([1, 0], [1, -1]), ([1, -1], [1, 0]), ([1, 0], [2, 0]), ([1, 0], [0.5, 0]))
    for predicted, actual in bad_pairs:
        with pytest.raises(InvariantViolation, match="0 or 1"):
            ConfusionMatrix.from_predictions(predicted, actual)


def test_empty_confusion_rejected():
    with pytest.raises(EmptyDataset):
        compute_metrics(ConfusionMatrix())


@settings(max_examples=200)
@given(tp=counts, tn=counts, fp=counts, fn=counts)
def test_metric_identities(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    report = compute_metrics(ConfusionMatrix(tp, tn, fp, fn))
    assert report.acc == pytest.approx(100 * (tp + tn) / (tp + tn + fp + fn), abs=1e-9)
    if fp + tn > 0:
        specificity = 100 * tn / (fp + tn)
        assert report.fpr + specificity == pytest.approx(100, abs=1e-9)
    if fn + tp > 0:
        recall = 100 * tp / (fn + tp)
        assert report.fnr + recall == pytest.approx(100, abs=1e-9)


def test_sample_split_sizes_and_disjointness():
    train_idx, test_idx = split_indices(100, 0.8, seed=1)
    assert len(train_idx) == 80 and len(test_idx) == 20
    assert set(train_idx).isdisjoint(test_idx)
    assert set(train_idx) | set(test_idx) == set(range(100))


def test_split_determinism():
    a = split_indices(57, 0.8, seed=9)
    b = split_indices(57, 0.8, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_validation():
    with pytest.raises(InvalidConfig):
        split_indices(10, 1.5, seed=0)
    with pytest.raises(EmptyDataset):
        split_indices(0, 0.5, seed=0)


def test_window_sweep_rows_and_determinism(small_dataset):
    config = TrainConfig(max_iters=100)
    rows = window_sweep(small_dataset, [4, 8], config)
    assert [n_w for n_w, _ in rows] == [4, 8]
    again = window_sweep(small_dataset, [4, 8], config)
    assert [(n, r.confusion) for n, r in rows] == [(n, r.confusion) for n, r in again]
    table = format_sweep_table(rows)
    assert table.splitlines()[0].split() == ["n_w", "FPR", "FNR", "FDR", "Acc"]
    assert len(table.splitlines()) == 3


def test_single_value_sweep(small_dataset):
    rows = window_sweep(small_dataset, [14], TrainConfig(max_iters=100))
    assert len(rows) == 1 and rows[0][0] == 14


def test_trained_model_keeps_the_window_it_was_evaluated_with(small_dataset):
    config = DwtConfig(n_w=8)
    model, _, _ = evaluate.train_and_evaluate(small_dataset, config, TrainConfig(max_iters=20))
    assert model.dwt_config == config


def test_ablation_builtin_masks(small_dataset):
    rows = ablation_study(small_dataset, train_config=TrainConfig(max_iters=100))
    assert len(rows) == len(DEFAULT_ABLATION_GROUPS) == 11
    table = format_ablation_table(rows)
    assert len(table.splitlines()) == 12


def test_ablation_rejects_empty_mask(small_dataset):
    with pytest.raises(InvalidConfig):
        ablation_study(small_dataset, masks=[()], train_config=TrainConfig(max_iters=50))


def test_the_three_tables_agree_on_the_fit_they_share(small_dataset):
    # held-out logreg, the sweep's n_w = 14 row and the ablation's
    # (fa, ftip, sigma) row all fit the default mask at the default window
    assert DwtConfig().n_w == 14 and group_mask(("fa", "ftip", "sigma")) == DEFAULT_MASK
    config = TrainConfig(max_iters=100)
    _, _, heldout = evaluate.train_and_evaluate(small_dataset, DwtConfig(), config)
    [(_, swept)] = window_sweep(small_dataset, [14], config)
    [(_, ablated)] = ablation_study(
        small_dataset, masks=[("fa", "ftip", "sigma")], train_config=config
    )
    assert heldout.confusion == swept.confusion == ablated.confusion


@pytest.fixture
def recorded_fits(monkeypatch):
    """Wrap evaluate.train; each fit appends (training rows, mask, weights and
    bias bytes, thread id) to the returned list."""
    fits, lock, real_train = [], threading.Lock(), evaluate.train

    def recording_train(features, config, mask=DEFAULT_MASK, dwt_config=DwtConfig()):
        model = real_train(features, config, mask, dwt_config)
        fitted = model.weights.tobytes() + np.float64(model.bias).tobytes()
        with lock:
            fits.append((len(features[0]), tuple(mask), fitted, threading.get_ident()))
        return model

    monkeypatch.setattr(evaluate, "train", recording_train)
    return fits


def with_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def fitted(fits):
    return sorted(fit[:3] for fit in fits)


def test_sweep_and_ablation_identical_on_one_and_three_cpus(
    small_dataset, recorded_fits, monkeypatch
):
    config = TrainConfig(max_iters=100)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose shared state
    try:
        for cpus in (1, 3):
            with_cpus(monkeypatch, cpus)
            recorded_fits.clear()
            sweep = window_sweep(small_dataset, [4, 8, 14], config)
            assert len({fit[3] for fit in recorded_fits}) == cpus
            sweep_fits = fitted(recorded_fits)
            recorded_fits.clear()
            ablation = ablation_study(small_dataset, train_config=config)
            assert len({fit[3] for fit in recorded_fits}) == cpus
            assert [n_w for n_w, _ in sweep] == [4, 8, 14]
            assert [groups for groups, _ in ablation] == DEFAULT_ABLATION_GROUPS
            results[cpus] = sweep, ablation, sweep_fits, fitted(recorded_fits)
    finally:
        sys.setswitchinterval(interval)
    assert len(results[1][2]) == 3
    assert len(results[1][3]) == len(DEFAULT_ABLATION_GROUPS)
    assert results[1] == results[3]


def test_each_share_runs_on_its_own_thread(monkeypatch):
    with_cpus(monkeypatch, 3)
    for _ in range(50):
        assert len(set(evaluate._map_fits(lambda i: threading.get_ident(), range(3)))) == 3


def test_a_helper_that_cannot_start_fails_the_map_not_hangs(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    with_cpus(monkeypatch, 3)
    real_submit, calls = ThreadPoolExecutor.submit, []

    def submit(pool, *args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("can't start new thread")
        return real_submit(pool, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        evaluate._map_fits(lambda i: i, range(3))


def test_cpu_count_fallback_without_affinity(small_dataset, recorded_fits, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = ablation_study(
        small_dataset, masks=[("fa",), ("sigma",)], train_config=TrainConfig(max_iters=20)
    )
    assert [groups for groups, _ in rows] == [("fa",), ("sigma",)]
    assert len({fit[3] for fit in recorded_fits}) == 2


@pytest.mark.parametrize("position", [0, 5, 11])
def test_ablation_rejects_empty_mask_before_any_fit(
    small_dataset, recorded_fits, monkeypatch, position
):
    with_cpus(monkeypatch, 3)
    masks = list(DEFAULT_ABLATION_GROUPS)
    masks.insert(position, ())
    with pytest.raises(InvalidConfig, match="keeps no features"):
        ablation_study(small_dataset, masks=masks, train_config=TrainConfig(max_iters=50))
    assert recorded_fits == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_without_windows_raises_instead_of_partial_rows(
    small_dataset, monkeypatch, cpus
):
    with_cpus(monkeypatch, cpus)
    too_long = 2 * max(len(episode.frames) for episode in small_dataset)
    with pytest.raises(EmptyDataset):
        window_sweep(small_dataset, [4, too_long, 8], TrainConfig(max_iters=20))


def test_group_mask_expansion():
    assert group_mask(("fa", "sigma")) == (True, False, False, False, False, True)
    assert group_mask(("ftip",)) == (False, True, True, True, False, False)
    with pytest.raises(InvalidConfig):
        group_mask(("what",))
    with pytest.raises(InvalidConfig, match="keeps no features"):
        group_mask(())


def test_baseline_threshold_is_train_optimal(small_dataset):
    from gripwatch.evaluate import dataset_feature_matrix

    result = energy_threshold_baseline(small_dataset, seed=0)
    _, y, energy = dataset_feature_matrix(small_dataset, DwtConfig())
    tr, _ = split_indices(len(y), 0.8, 0)
    e, labels = energy[tr], y[tr]
    chosen = np.sum((e <= result.threshold).astype(int) == labels)
    for theta in np.quantile(e, np.linspace(0, 1, 50)):
        assert np.sum((e <= theta).astype(int) == labels) <= chosen


def test_baseline_blind_when_disturbances_avoid_fx():
    # grip mostly along z, lateral pushes along y: the disturbances never
    # show up in F_x, so the energy threshold cannot beat the majority rate
    # by much while the full feature set stays markedly better
    from gripwatch.evaluate import dataset_feature_matrix, train_and_evaluate

    base = EpisodeConfig(
        seed=2,
        phase_durations=PhaseDurations(0.0, 0.0, 2.0, 2.0, 0.0),
        locked_force=(0.0, 0.0, 8.0),
        noise_std=0.01,
        disturbance=DisturbanceConfig(
            count=3, magnitude=4.0, duration_s=0.5, direction_mode="lateral"
        ),
        n_s=6,
        contact_taxels=3,
    )
    episodes = generate_dataset(1, 4, base)
    result = energy_threshold_baseline(episodes, seed=0)
    _, y, _ = dataset_feature_matrix(episodes, DwtConfig())
    majority = 100 * max(np.mean(y), 1 - np.mean(y))
    assert result.test_report.acc <= majority + 5.0

    _, _, full = train_and_evaluate(episodes, DwtConfig(), TrainConfig(max_iters=200))
    assert full.acc > result.test_report.acc + 10.0


def test_degenerate_all_stable_flagged():
    base = EpisodeConfig(
        seed=1,
        phase_durations=PhaseDurations(0.0, 0.0, 1.0, 0.0, 0.0),
        noise_std=0.01,
        disturbance=DisturbanceConfig(count=0),
        n_s=4,
        contact_taxels=2,
    )
    episodes = generate_dataset(1, 2, base)
    result = energy_threshold_baseline(episodes, seed=0)
    assert result.test_report.acc == pytest.approx(100.0)
    assert result.degenerate


def exhaustive_baseline(y, energy, ratio, seed):
    """Reference: score every candidate threshold against every training window."""
    tr, te = split_indices(len(y), ratio, seed)
    e_train, y_train = energy[tr], y[tr]
    uniq = np.unique(e_train)
    candidates = np.concatenate(
        [[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]]
    )
    best_threshold, best_correct = None, -1
    for theta in candidates:
        correct = int(np.sum((e_train <= theta).astype(int) == y_train))
        if correct > best_correct:
            best_threshold, best_correct = float(theta), correct

    def report(e, labels):
        preds = (e <= best_threshold).astype(int)
        return compute_metrics(ConfusionMatrix.from_predictions(preds, labels))

    degenerate = (
        best_threshold < float(uniq[0])
        or best_threshold > float(uniq[-1])
        or len(np.unique(y[te])) < 2
    )
    return BaselineReport(
        threshold=best_threshold,
        train_report=report(e_train, y_train),
        test_report=report(energy[te], y[te]),
        degenerate=degenerate,
    )


def test_baseline_matches_exhaustive_scan(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(150):
        n = int(rng.integers(5, 300))
        y = (rng.random(n) < rng.random()).astype(int)
        levels = int(rng.integers(1, 8))  # few distinct values: heavy ties
        energy = rng.integers(0, levels, n) * rng.choice([0.25, 1e-3, 7.0])
        energy = energy + y * rng.choice([0.0, 1.0])  # sometimes separable
        cases.append((y, energy))
    cases += [
        (rng.integers(0, 2, 50), np.full(50, 3.0)),  # all energies equal
        (np.ones(40, dtype=int), rng.random(40)),  # single-class labels
        (np.zeros(40, dtype=int), rng.integers(0, 3, 40).astype(float)),
        (np.array([1, 1, 1, 1, 0] * 10), np.zeros(50)),
        # adjacent floats: their midpoint rounds onto the lower one
        (np.array([1, 0] * 25), np.array([1.0, np.nextafter(1.0, 2.0)] * 25)),
    ]
    for i, (y, energy) in enumerate(cases):
        X = np.zeros((len(y), 6))  # sample_split indexes X with y and energy
        monkeypatch.setattr(
            evaluate, "dataset_feature_matrix", lambda *_args, **_kw: (X, y, energy)
        )
        expected = exhaustive_baseline(y, energy, 0.8, i)
        assert energy_threshold_baseline([], seed=i) == expected
