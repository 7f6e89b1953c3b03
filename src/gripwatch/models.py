"""Linear classifiers (logistic regression, linear SVM) over feature vectors.

Both kinds are fitted by one deterministic loop, full-batch gradient descent
with Armijo backtracking from zero, on a smooth loss: the logistic loss or the
squared hinge. Feature columns follow features.FEATURE_NAMES; a boolean mask
selects the active subset (the moving-average column is masked off by default).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    EmptyDataset,
    InvalidConfig,
    InvariantViolation,
    LengthMismatch,
    NonFiniteFeature,
    ParseError,
    SingleClassDataset,
)
from .features import FEATURE_NAMES, DwtConfig
from .files import check_header, read_json, write_json

MODEL_FORMAT = "gripwatch-model"
MODEL_VERSION = 2

# Default mask drops the moving-average column (redundant with fa).
DEFAULT_MASK = (True, True, True, True, False, True)
FULL_MASK = (True,) * 6

TOLERANCE = 1e-8  # training of either kind stops once the gradient norm is at most this
CV_FOLDS = 5


def mask_from_names(names) -> tuple:
    unknown = set(names) - set(FEATURE_NAMES)
    if unknown:
        raise InvariantViolation(f"unknown feature names {sorted(unknown)}")
    return tuple(name in set(names) for name in FEATURE_NAMES)


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=float))
        if np.any(self.stds <= 0):
            raise InvariantViolation("standardizer stds must be positive")

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.stds


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "logreg"  # logreg | svm
    l2_lambda: float = 1e-4
    max_iters: int = 500
    seed: int = 0
    hyper_grid: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("logreg", "svm"):
            raise InvariantViolation(f"unknown model kind {self.kind!r}")
        lambdas = (self.l2_lambda, *(self.hyper_grid or ()))
        if not all(0 <= lam < np.inf for lam in lambdas) or self.max_iters < 1:
            raise InvariantViolation(f"l2 values {lambdas} must be finite and >= 0, max_iters >= 1")


@dataclass(frozen=True)
class LinearModel:
    kind: str
    weights: np.ndarray
    bias: float
    standardizer: Standardizer
    feature_mask: tuple
    train_config: TrainConfig
    dwt_config: DwtConfig  # the window the features were extracted with

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if len(self.weights) != sum(self.feature_mask):
            raise InvariantViolation(
                f"{len(self.weights)} weights for {sum(self.feature_mask)} unmasked features"
            )


def check_binary_labels(labels, what: str) -> np.ndarray:
    """Labels as an int array; anything but 0 (unstable) or 1 (stable) raises."""
    labels = np.asarray(labels)
    valid = np.isin(labels, (0, 1))
    if not valid.all():
        bad = np.unique(labels[~valid])[:5].tolist()
        raise InvariantViolation(f"{what} must be 0 or 1, got {bad}")
    return labels.astype(int)


def fit_standardizer(X: np.ndarray, mask=FULL_MASK) -> Standardizer:
    """Per-column mean and population std over the masked feature matrix."""
    if len(X) == 0:
        raise EmptyDataset("cannot standardize an empty feature set")
    if len(mask) != X.shape[1]:
        raise InvariantViolation(f"mask has {len(mask)} entries for {X.shape[1]} columns")
    cols = X[:, np.asarray(mask, dtype=bool)]
    means = cols.mean(axis=0)
    stds = cols.std(axis=0)
    zero = stds == 0
    if np.any(zero):
        warnings.warn(
            f"zero-variance feature columns {np.flatnonzero(zero).tolist()}; std clamped to 1",
            stacklevel=2,
        )
        stds = np.where(zero, 1.0, stds)
    return Standardizer(means, stds)


def logreg_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2_lambda: float):
    """Mean negative log-likelihood plus L2 on the weights (bias excluded).

    ``theta`` packs [w..., b]. Returns (loss, grad) with grad matching theta.
    """
    w, b = theta[:-1], theta[-1]
    z = X @ w
    z += b
    # softplus(z) = log(1 + e^z) by the formula np.logaddexp(0, z) uses,
    # max(z, 0) + log1p(e^-|z|), but as whole-array exp and log1p, which are
    # SIMD loops where logaddexp is a scalar one. The exponent is clamped at
    # -708 so that exp cannot underflow; past |z| = 708 the log1p term is
    # below 1e-307. The steps run in place to spare temporaries; they are the
    # same operations on the same operands as the one-line formula, so the
    # loss and gradient are bit-identical to it.
    t = np.abs(z)
    np.minimum(t, 708.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(z, 0.0)
    t -= y * z
    loss = float(np.mean(t) + 0.5 * l2_lambda * w @ w)
    # z becomes the residual (sigmoid(z) - y) / n, sigmoid as in sigmoid()
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    z -= y
    z /= len(y)
    grad = np.concatenate([X.T @ z + l2_lambda * w, [z.sum()]])
    return loss, grad


def sigmoid(z):
    """Logistic function 1 / (1 + e^-z), through tanh so it cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def svm_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2_lambda: float):
    """Mean squared hinge max(0, 1 - s z)^2, s = 2y - 1, plus L2 on the weights;
    the L2-loss linear SVM. Packs theta and returns like logreg_loss_grad."""
    w, b = theta[:-1], theta[-1]
    s = 2.0 * y - 1.0
    slack = np.maximum(1.0 - s * (X @ w + b), 0.0)
    loss = float(np.mean(slack * slack) + 0.5 * l2_lambda * w @ w)
    coeff = (-2.0 / len(y)) * s * slack
    grad = np.concatenate([X.T @ coeff + l2_lambda * w, [coeff.sum()]])
    return loss, grad


def _descend(loss_grad, X, y, config: TrainConfig):
    """Armijo-backtracked gradient descent on ``loss_grad`` from theta = 0; returns (w, b)."""
    y = y.astype(float)
    theta = np.zeros(X.shape[1] + 1)
    loss, grad = loss_grad(theta, X, y, config.l2_lambda)
    for _ in range(config.max_iters):
        gnorm2 = grad @ grad
        if np.sqrt(gnorm2) <= TOLERANCE:
            break
        step = 1.0
        for _ in range(60):  # Armijo backtracking
            candidate = theta - step * grad
            new_loss, new_grad = loss_grad(candidate, X, y, config.l2_lambda)
            if new_loss <= loss - 0.5 * step * gnorm2:
                break
            step *= 0.5
        theta, loss, grad = candidate, new_loss, new_grad
    return theta[:-1], float(theta[-1])


def train(
    features, config: TrainConfig, mask=DEFAULT_MASK, dwt_config=DwtConfig()
) -> LinearModel:
    """Fit a standardizer and a linear model on labeled features.

    ``features`` is an (X, y) pair with X in the 6-column layout, extracted
    with the window ``dwt_config``, which the model keeps.
    """
    X_full, y = features
    X_full = np.asarray(X_full, dtype=float)
    if X_full.ndim != 2 or X_full.shape[1] != len(FEATURE_NAMES):
        raise InvariantViolation(
            f"features must be (n, {len(FEATURE_NAMES)}), got {X_full.shape}"
        )
    if np.shape(y) != (len(X_full),):
        raise LengthMismatch(f"labels of shape {np.shape(y)} for {len(X_full)} feature rows")
    if len(X_full) == 0:
        raise EmptyDataset("no training examples")
    y = check_binary_labels(y, "training labels")
    if not np.all(np.isfinite(X_full)):
        raise NonFiniteFeature("training features contain NaN/Inf")
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClassDataset(f"need both classes, got only {classes.tolist()}")
    mask = tuple(bool(m) for m in mask)
    if sum(mask) == 0:
        raise InvariantViolation("mask keeps no features")

    if config.hyper_grid:
        config = replace(
            config, l2_lambda=_grid_search(X_full, y, config, mask), hyper_grid=None
        )

    standardizer = fit_standardizer(X_full, mask)
    Xs = standardizer.transform(X_full[:, np.asarray(mask, dtype=bool)])
    loss_grad = logreg_loss_grad if config.kind == "logreg" else svm_loss_grad
    w, b = _descend(loss_grad, Xs, y, config)
    return LinearModel(config.kind, w, b, standardizer, mask, config, dwt_config)


def _grid_search(X, y, config: TrainConfig, mask) -> float:
    """Deterministic k-fold CV over the lambda grid; ties go to the smaller lambda."""
    order = np.random.default_rng(config.seed).permutation(len(y))
    folds = np.array_split(order, CV_FOLDS)
    best_lambda, best_acc = None, -1.0
    for lam in sorted(config.hyper_grid):
        accs = []
        for k in range(CV_FOLDS):
            val_idx = folds[k]
            train_idx = np.concatenate([folds[j] for j in range(CV_FOLDS) if j != k])
            if len(np.unique(y[train_idx])) < 2 or len(val_idx) == 0:
                continue
            fold_cfg = replace(config, l2_lambda=lam, hyper_grid=None)
            model = train((X[train_idx], y[train_idx]), fold_cfg, mask)
            preds = predict_label_batch(model, X[val_idx])
            accs.append(float(np.mean(preds == y[val_idx])))
        mean_acc = float(np.mean(accs)) if accs else -1.0
        if mean_acc > best_acc:
            best_lambda, best_acc = lam, mean_acc
    return best_lambda if best_lambda is not None else config.l2_lambda


def predict_score_batch(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Linear decision value w.standardize(x) + b of each row of X."""
    cols = np.asarray(X, dtype=float)[:, np.asarray(model.feature_mask, dtype=bool)]
    if not np.isfinite(cols).all():
        raise NonFiniteFeature("feature matrix contains NaN/Inf")
    return model.standardizer.transform(cols) @ model.weights + model.bias


def predict_label_batch(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """1 = stable, 0 = unstable; a tie (score exactly 0) predicts unstable."""
    return (predict_score_batch(model, X) > 0.0).astype(int)


# --- persistence ---


def save_model(model: LinearModel, path) -> None:
    write_json(
        path,
        {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": model.kind,
            "n_w": model.dwt_config.n_w,
            "mask": list(model.feature_mask),
            "means": model.standardizer.means.tolist(),
            "stds": model.standardizer.stds.tolist(),
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "train_config": asdict(model.train_config),
        },
    )


def load_model(path) -> LinearModel:
    payload = read_json(path, "model")
    check_header(payload, MODEL_FORMAT, MODEL_VERSION)
    try:
        tc = dict(payload["train_config"])
        if tc.get("hyper_grid"):
            tc["hyper_grid"] = tuple(tc["hyper_grid"])
        config = TrainConfig(**tc)
        model = LinearModel(
            kind=payload["kind"],
            weights=np.array(payload["weights"], dtype=float),
            bias=float(payload["bias"]),
            standardizer=Standardizer(
                np.array(payload["means"], dtype=float),
                np.array(payload["stds"], dtype=float),
            ),
            feature_mask=tuple(bool(m) for m in payload["mask"]),
            train_config=config,
            dwt_config=DwtConfig(n_w=payload["n_w"]),
        )
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc
    params = (model.weights, model.bias, model.standardizer.means, model.standardizer.stds)
    if not all(np.isfinite(p).all() for p in params):
        raise ParseError("model file holds a non-finite parameter")
    if len(model.feature_mask) != len(FEATURE_NAMES):
        raise InvariantViolation(
            f"mask must have {len(FEATURE_NAMES)} entries, got {len(model.feature_mask)}"
        )
    return model
