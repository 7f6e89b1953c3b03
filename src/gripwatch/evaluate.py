"""Metrics, train/test splits, window sweep, feature ablation, and the
detail-energy threshold baseline.

Every study table pools and splits one window's rows in ``sample_split``.
Held-out evaluation, the sweep rows and the ablation fit and score their
models in ``fit_and_score``; the energy baseline fits its threshold on the
same split.

Positive class is "stable" (label 1), so a false positive is the
safety-critical case: predicted stable while the grasp is actually unstable.
Rates with zero denominators are reported as None, never as 0.
"""

from __future__ import annotations

import os
import threading
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


# Share of the pooled windows the studies train on; the rest are the test set.
TRAIN_FRACTION = 0.8


def split_indices(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if not 0 < ratio < 1:
        raise InvalidConfig(f"split ratio must be in (0, 1), got {ratio}")
    if n == 0:
        raise EmptyDataset("nothing to split")
    order = np.random.default_rng(seed).permutation(n)
    cut = int(n * ratio)
    return order[:cut], order[cut:]


# --- episode-level pipeline helpers ---


def episode_feature_matrix(episode, config: DwtConfig):
    """Features, labels, and raw F_x series for one episode.

    Returns (X (N, 6), y (N), fx_windows_energy_input) where N is the number
    of emitted windows. F_x values are returned for the full series so the
    energy baseline can window them identically. The forces are the
    episode's, aggregated once through its geometry.
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
    # No helper finishes before every helper has started, so the pool cannot
    # hand the next share to a helper that is already done: each share gets
    # a thread of its own.
    started = threading.Barrier(workers)

    def work(first):
        started.wait()
        for i in range(first, len(items), workers):
            results[i] = fit(items[i])

    with ThreadPoolExecutor(workers - 1) as pool:
        try:
            helpers = [pool.submit(work, first) for first in range(1, workers)]
            work(0)
        except BaseException:
            # A party that never arrives would keep the started helpers at
            # the barrier, and the pool's shutdown would wait on them.
            started.abort()
            raise
        for helper in helpers:
            helper.result()
    return results


def sample_split(episodes, dwt_config: DwtConfig, seed: int):
    """The pooled (X, y, energy) rows of one window, split by TRAIN_FRACTION
    and the seed. Returns (train rows, test rows), each an (X, y, energy)
    triple; every study table trains and tests on a split made here."""
    X, y, energy = dataset_feature_matrix(episodes, dwt_config)
    tr, te = split_indices(len(y), TRAIN_FRACTION, seed)
    return (X[tr], y[tr], energy[tr]), (X[te], y[te], energy[te])


def fit_and_score(split, fits, dwt_config: DwtConfig) -> list:
    """Fit each (TrainConfig, mask) of ``fits`` on the split's train rows and
    score it on its test rows. Returns [(model, test report)] in ``fits``
    order; the fits run on every CPU the process may use."""
    (X_train, y_train, _), (X_test, y_test, _) = split

    def fit(item):
        train_config, mask = item
        model = train((X_train, y_train), train_config, mask, dwt_config)
        return model, evaluate_model(model, X_test, y_test)

    return _map_fits(fit, fits)


def train_and_evaluate(episodes, dwt_config: DwtConfig, train_config: TrainConfig, seed: int = 0):
    """Sample-level split, train, test. Returns (model, train report, test report)."""
    split = sample_split(episodes, dwt_config, seed)
    [(model, test_report)] = fit_and_score(split, [(train_config, DEFAULT_MASK)], dwt_config)
    X_train, y_train, _ = split[0]
    return model, evaluate_model(model, X_train, y_train), test_report


def window_sweep(episodes, n_w_values, train_config: TrainConfig, seed: int = 0):
    """Re-extract, re-split, and retrain once per window size."""
    configs = [DwtConfig(n_w=n_w) for n_w in n_w_values]

    def row(config):
        split = sample_split(episodes, config, seed)
        [(_, report)] = fit_and_score(split, [(train_config, DEFAULT_MASK)], config)
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
    """Expand feature-group names (ftip covers fx, fy, fz) to a 6-slot mask;
    an unknown name, or no name at all, is an InvalidConfig."""
    groups = set(groups)
    unknown = groups - {"fa", "ftip", "m", "sigma"}
    if unknown:
        raise InvalidConfig(f"unknown feature groups {sorted(unknown)}")
    if not groups:
        raise InvalidConfig("mask keeps no features")
    ftip = "ftip" in groups
    return ("fa" in groups, ftip, ftip, ftip, "m" in groups, "sigma" in groups)


def ablation_study(episodes, masks=None, train_config: TrainConfig = None, seed: int = 0):
    """Train one model per mask on identical splits; rows of (mask, report)."""
    train_config = train_config or TrainConfig()
    group_rows = list(masks if masks is not None else DEFAULT_ABLATION_GROUPS)
    fits = [(train_config, group_mask(groups)) for groups in group_rows]
    dwt_config = DwtConfig()
    scored = fit_and_score(sample_split(episodes, dwt_config, seed), fits, dwt_config)
    return [(tuple(groups), report) for groups, (_, report) in zip(group_rows, scored)]


@dataclass(frozen=True)
class BaselineReport:
    threshold: float
    train_report: EvalReport
    test_report: EvalReport
    degenerate: bool  # threshold outside the data range or single-class test set


def energy_threshold_baseline(episodes, seed: int = 0) -> BaselineReport:
    """Single-threshold detector on the detail energy of the normal force F_x.

    Windows whose F_x detail energy exceeds the threshold are predicted
    unstable. The threshold is the training-accuracy-maximizing candidate
    among the midpoints between consecutive distinct training energies and
    one point beyond each end; ties go to the lowest candidate.
    """
    (_, y_train, e_train), (_, y_test, e_test) = sample_split(episodes, DwtConfig(), seed)

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
        or len(np.unique(y_test)) < 2
    )
    return BaselineReport(
        threshold=best_threshold,
        train_report=report(e_train, y_train),
        test_report=report(e_test, y_test),
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


# The rate columns that end every row of the sweep and ablation tables.
_RATE_HEADER = f"{'FPR':>6} {'FNR':>6} {'FDR':>6} {'Acc':>6}"


def _rate_columns(report: EvalReport) -> str:
    rates = (report.fpr, report.fnr, report.fdr, report.acc)
    return " ".join(f"{_fmt(rate):>6}" for rate in rates)


def format_sweep_table(rows) -> str:
    lines = [f"{'n_w':>4} {_RATE_HEADER}"]
    for n_w, report in rows:
        lines.append(f"{n_w:>4} {_rate_columns(report)}")
    return "\n".join(lines)


def format_ablation_table(rows) -> str:
    lines = [f"{'fa':>3} {'ftip':>4} {'m':>3} {'sigma':>5}  {_RATE_HEADER}"]
    for groups, report in rows:
        marks = ["x" if g in groups else "-" for g in ("fa", "ftip", "m", "sigma")]
        marked = f"{marks[0]:>3} {marks[1]:>4} {marks[2]:>3} {marks[3]:>5}"
        lines.append(f"{marked}  {_rate_columns(report)}")
    return "\n".join(lines)
