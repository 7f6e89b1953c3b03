"""Metrics, train/test splits, window sweep, feature ablation, and the
detail-energy threshold baseline.

Positive class is "stable" (label 1), so a false positive is the
safety-critical case: predicted stable while the grasp is actually unstable.
Rates with zero denominators are reported as None, never as 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyDataset, InvalidConfig, InvariantViolation
from .features import DwtConfig, batch_features, detail_energies
from .models import (
    DEFAULT_MASK,
    LinearModel,
    TrainConfig,
    check_binary_labels,
    predict_label_batch,
    train,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise InvariantViolation("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_predictions(cls, predicted, actual) -> "ConfusionMatrix":
        predicted = check_binary_labels(predicted, "predictions")
        actual = check_binary_labels(actual, "labels")
        if predicted.shape != actual.shape:
            raise InvariantViolation("prediction/label length mismatch")
        return cls(
            tp=int(np.sum((predicted == 1) & (actual == 1))),
            tn=int(np.sum((predicted == 0) & (actual == 0))),
            fp=int(np.sum((predicted == 1) & (actual == 0))),
            fn=int(np.sum((predicted == 0) & (actual == 1))),
        )


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    acc: float
    fpr: float | None
    fnr: float | None
    fdr: float | None

    def to_dict(self) -> dict:
        c = self.confusion
        return {
            "confusion": {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn},
            "acc": self.acc,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "fdr": self.fdr,
        }


def _rate(numerator: int, denominator: int) -> float | None:
    if denominator == 0:
        return None
    return float(Fraction(numerator * 100, denominator))


def compute_metrics(confusion: ConfusionMatrix) -> EvalReport:
    """Percentage metrics from counts, exact until the final float conversion."""
    c = confusion
    if c.total == 0:
        raise EmptyDataset("empty confusion matrix")
    return EvalReport(
        confusion=c,
        acc=_rate(c.tp + c.tn, c.total),
        fpr=_rate(c.fp, c.fp + c.tn),
        fnr=_rate(c.fn, c.fn + c.tp),
        fdr=_rate(c.fp, c.fp + c.tp),
    )


def split_indices(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if not 0 < ratio < 1:
        raise InvalidConfig(f"split ratio must be in (0, 1), got {ratio}")
    if n == 0:
        raise EmptyDataset("nothing to split")
    order = np.random.default_rng(seed).permutation(n)
    cut = int(n * ratio)
    return order[:cut], order[cut:]


def split_dataset(items, ratio: float, seed: int):
    """Deterministic shuffled split of the items into (train, test) lists."""
    items = list(items)
    train_idx, test_idx = split_indices(len(items), ratio, seed)
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


# --- episode-level pipeline helpers ---


def episode_feature_matrix(episode, config: DwtConfig):
    """Features, labels, and raw F_x series for one episode.

    Returns (X (N, 6), y (N), fx_windows_energy_input) where N is the number
    of emitted windows. F_x values are returned for the full series so the
    energy baseline can window them identically. The forces come from the
    episode's cached identity-geometry aggregation.
    """
    f_tip, f_a = episode.forces
    X, y, _ = batch_features(episode.t, f_tip, f_a, config, labels=episode.labels)
    return X, y, f_tip[:, 0]


def dataset_feature_matrix(episodes, config: DwtConfig):
    """Pooled (X, y, fx_energy) over a dataset; fx_energy aligns row-for-row."""
    xs, ys, energies = [], [], []
    for episode in episodes:
        X, y, fx = episode_feature_matrix(episode, config)
        if len(X) == 0:
            continue
        xs.append(X)
        ys.append(y)
        energies.append(detail_energies(fx, config.n_w))
    if not xs:
        raise EmptyDataset("no windows extracted from dataset")
    return np.vstack(xs), np.concatenate(ys), np.concatenate(energies)


def evaluate_model(model: LinearModel, X: np.ndarray, y: np.ndarray) -> EvalReport:
    return compute_metrics(ConfusionMatrix.from_predictions(predict_label_batch(model, X), y))


def train_and_evaluate(
    episodes,
    dwt_config: DwtConfig,
    train_config: TrainConfig,
    mask=DEFAULT_MASK,
    ratio: float = 0.8,
    seed: int = 0,
):
    """Sample-level split, train, test. Returns (model, train report, test report)."""
    X, y, _ = dataset_feature_matrix(episodes, dwt_config)
    tr, te = split_indices(len(y), ratio, seed)
    model = train((X[tr], y[tr]), train_config, mask)
    return model, evaluate_model(model, X[tr], y[tr]), evaluate_model(model, X[te], y[te])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_fits(fit, items) -> list:
    """``[fit(item) for item in items]``, run on every CPU the process may use.

    Items are dealt round-robin to the calling thread and to one helper
    thread per further CPU; results come back in input order. Fits spend
    their time in numpy, which releases the interpreter lock. The caller
    works too: every extra thread gets its own malloc arena, which cannot
    reuse memory freed by the others, so an idle caller would cost memory.
    """
    items = list(items)
    workers = min(_available_cpus(), len(items))
    if workers <= 1:
        return [fit(item) for item in items]
    # Imported here, not at the top: the import takes about 8 ms (it loads
    # logging), and every `gripwatch detect` imports this module.
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * len(items)

    def work(first):
        for i in range(first, len(items), workers):
            results[i] = fit(items[i])

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work, first) for first in range(1, workers)]
        work(0)
        for helper in helpers:
            helper.result()
    return results


def window_sweep(
    episodes, n_w_values, train_config: TrainConfig, mask=DEFAULT_MASK, seed: int = 0
):
    """Re-extract, re-split, and retrain once per window size."""
    configs = [DwtConfig(n_w=n_w) for n_w in n_w_values]

    def row(config):
        _, _, report = train_and_evaluate(
            episodes, config, train_config, mask=mask, seed=seed
        )
        return config.n_w, report

    return _map_fits(row, configs)


# Ablation rows over the four feature groups (fa, ftip, m, sigma), full
# grid minus combinations that never appear in practice.
DEFAULT_ABLATION_GROUPS = [
    ("fa", "ftip", "m", "sigma"),
    ("ftip", "m", "sigma"),
    ("fa", "m", "sigma"),
    ("fa", "ftip", "sigma"),
    ("fa", "ftip", "m"),
    ("m", "sigma"),
    ("fa", "sigma"),
    ("fa", "ftip"),
    ("ftip", "sigma"),
    ("ftip", "m"),
    ("fa", "m"),
]


def group_mask(groups) -> tuple:
    """Expand feature-group names (ftip covers fx, fy, fz) to a 6-slot mask."""
    groups = set(groups)
    unknown = groups - {"fa", "ftip", "m", "sigma"}
    if unknown:
        raise InvalidConfig(f"unknown feature groups {sorted(unknown)}")
    ftip = "ftip" in groups
    return ("fa" in groups, ftip, ftip, ftip, "m" in groups, "sigma" in groups)


def ablation_study(
    episodes,
    masks=None,
    train_config: TrainConfig = None,
    dwt_config: DwtConfig | None = None,
    seed: int = 0,
):
    """Train one model per mask on identical splits; rows of (mask, report)."""
    train_config = train_config or TrainConfig()
    dwt_config = dwt_config or DwtConfig()
    group_rows = list(masks if masks is not None else DEFAULT_ABLATION_GROUPS)
    feature_masks = [group_mask(groups) for groups in group_rows]
    if not all(any(mask) for mask in feature_masks):
        raise InvalidConfig("ablation mask keeps no features")
    X, y, _ = dataset_feature_matrix(episodes, dwt_config)
    tr, te = split_indices(len(y), 0.8, seed)
    train_set, X_test, y_test = (X[tr], y[tr]), X[te], y[te]

    def fit(mask):
        return evaluate_model(train(train_set, train_config, mask), X_test, y_test)

    reports = _map_fits(fit, feature_masks)
    return [(tuple(groups), report) for groups, report in zip(group_rows, reports)]


@dataclass(frozen=True)
class BaselineReport:
    threshold: float
    train_report: EvalReport
    test_report: EvalReport
    degenerate: bool  # threshold outside the data range or single-class test set


def energy_threshold_baseline(
    episodes,
    dwt_config: DwtConfig | None = None,
    ratio: float = 0.8,
    seed: int = 0,
) -> BaselineReport:
    """Single-threshold detector on the detail energy of the normal force F_x.

    Windows whose F_x detail energy exceeds the threshold are predicted
    unstable. The threshold is the training-accuracy-maximizing candidate
    among the midpoints between consecutive distinct training energies and
    one point beyond each end; ties go to the lowest candidate.
    """
    dwt_config = dwt_config or DwtConfig()
    _, y, energy = dataset_feature_matrix(episodes, dwt_config)
    tr, te = split_indices(len(y), ratio, seed)
    e_train, y_train = energy[tr], y[tr]

    uniq = np.unique(e_train)
    candidates = np.concatenate(
        [[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]]
    )
    # Predict stable (1) when energy <= threshold, so a candidate classifies
    # correctly the stable windows at or below it and the unstable ones above.
    order = np.argsort(e_train, kind="stable")
    at_or_below = np.searchsorted(e_train[order], candidates, side="right")
    stable_cum = np.concatenate([[0], np.cumsum(y_train[order] == 1)])
    stable_at_or_below = stable_cum[at_or_below]
    unstable_above = (len(y_train) - stable_cum[-1]) - (at_or_below - stable_at_or_below)
    # argmax keeps the first maximum, i.e. the lowest best candidate
    best_threshold = float(candidates[np.argmax(stable_at_or_below + unstable_above)])

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


# --- report formatting ---


def _fmt(rate: float | None) -> str:
    return "n/a" if rate is None else f"{rate:.1f}"


def format_report(report: EvalReport) -> str:
    c = report.confusion
    return (
        f"tp={c.tp} tn={c.tn} fp={c.fp} fn={c.fn}  "
        f"Acc={_fmt(report.acc)} FPR={_fmt(report.fpr)} "
        f"FNR={_fmt(report.fnr)} FDR={_fmt(report.fdr)}"
    )


def format_sweep_table(rows) -> str:
    lines = [f"{'n_w':>4} {'FPR':>6} {'FNR':>6} {'FDR':>6} {'Acc':>6}"]
    for n_w, report in rows:
        lines.append(
            f"{n_w:>4} {_fmt(report.fpr):>6} {_fmt(report.fnr):>6} "
            f"{_fmt(report.fdr):>6} {_fmt(report.acc):>6}"
        )
    return "\n".join(lines)


def format_ablation_table(rows) -> str:
    header = f"{'fa':>3} {'ftip':>4} {'m':>3} {'sigma':>5}  {'FPR':>6} {'FNR':>6} {'FDR':>6} {'Acc':>6}"
    lines = [header]
    for groups, report in rows:
        marks = ["x" if g in groups else "-" for g in ("fa", "ftip", "m", "sigma")]
        lines.append(
            f"{marks[0]:>3} {marks[1]:>4} {marks[2]:>3} {marks[3]:>5}  "
            f"{_fmt(report.fpr):>6} {_fmt(report.fnr):>6} "
            f"{_fmt(report.fdr):>6} {_fmt(report.acc):>6}"
        )
    return "\n".join(lines)
