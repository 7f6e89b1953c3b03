"""Linear classifiers (logistic regression, linear SVM) over feature vectors.

Both kinds are fitted by one deterministic loop, full-batch gradient descent
with Armijo backtracking from zero, on a smooth loss: the logistic loss or the
squared hinge, at the one L2 weight that TrainConfig gives. Nothing here
searches for that weight: windows of one episode overlap, so an honest choice
needs folds grouped by episode, which only the study knows. Where a bound on the
loss's curvature shows the descent lemma passes every unit step's Armijo test,
each step is the unit step and no loss is evaluated. Feature columns follow
features.FEATURE_NAMES; a boolean mask selects the active subset (the
moving-average column is masked off by default). LinearModel holds exactly
what a model file (version 3) holds, the TrainConfig and so the kind once,
and is the one place a model's invariants are checked: a mask of six
booleans that keeps a feature; weights, means and stds with one entry per
kept feature; every parameter finite; every std positive. load_model only
reads and constructs, so any malformed model file is one ParseError.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    InvariantViolation,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassDataset,
)
from .features import FEATURE_NAMES, DwtConfig
from .files import (
    check_header, is_integer, is_number, is_number_array, malformed, number_array, read_json,
    write_json,
)

MODEL_FORMAT = "gripwatch-model"
MODEL_VERSION = 3

# Default mask drops the moving-average column (redundant with fa).
DEFAULT_MASK = (True, True, True, True, False, True)
FULL_MASK = (True,) * 6

TOLERANCE = 1e-8  # training of either kind stops once the gradient norm is at most this


def mask_from_names(names) -> tuple:
    unknown = set(names) - set(FEATURE_NAMES)
    if unknown:
        raise InvariantViolation(f"unknown feature names {sorted(unknown)}")
    return tuple(name in set(names) for name in FEATURE_NAMES)


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "logreg"  # logreg | svm
    l2_lambda: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        if self.kind not in ("logreg", "svm"):
            raise InvariantViolation(f"unknown model kind {self.kind!r}")
        if not (is_number(self.l2_lambda) and 0 <= self.l2_lambda < np.inf):
            raise InvariantViolation(f"l2_lambda must be finite and >= 0, got {self.l2_lambda!r}")
        if not (is_integer(self.max_iters) and self.max_iters >= 1):
            raise InvariantViolation(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class LinearModel:
    """What a model file holds, and the one place its invariants are checked."""

    weights: np.ndarray
    bias: float
    means: np.ndarray  # the standardisation: a row x scores as
    stds: np.ndarray  # ((x[mask] - means) / stds) @ weights + bias
    feature_mask: tuple
    train_config: TrainConfig
    dwt_config: DwtConfig  # the window the features were extracted with

    def __post_init__(self):
        mask = tuple(self.feature_mask)
        if len(mask) != len(FEATURE_NAMES) or not all(isinstance(m, bool) for m in mask):
            raise InvariantViolation(f"mask must be {len(FEATURE_NAMES)} booleans, got {mask}")
        if not any(mask):
            raise InvariantViolation("mask keeps no features")
        object.__setattr__(self, "feature_mask", mask)
        if not is_number(self.bias):
            raise InvariantViolation(f"bias must be a number, got {self.bias!r}")
        object.__setattr__(self, "bias", float(self.bias))
        for name in ("weights", "means", "stds"):
            array = np.asarray(getattr(self, name))
            if not is_number_array(array) or array.shape != (sum(mask),):
                raise InvariantViolation(
                    f"{name} of shape {array.shape}, not ({sum(mask)},) numbers ({array.dtype})"
                )
            object.__setattr__(self, name, array.astype(float, copy=False))
        if not all(np.isfinite(p).all() for p in (self.weights, self.bias, self.means, self.stds)):
            raise InvariantViolation("non-finite model parameter")
        if np.any(self.stds <= 0):
            raise InvariantViolation(f"stds must be positive, got {self.stds.tolist()}")


def check_binary_labels(labels, what: str) -> np.ndarray:
    """Labels as an int array; anything but 0 (unstable) or 1 (stable) raises."""
    labels = np.asarray(labels)
    valid = np.isin(labels, (0, 1))
    if not valid.all():
        bad = np.unique(labels[~valid])[:5].tolist()
        raise InvariantViolation(f"{what} must be 0 or 1, got {bad}")
    return labels.astype(int)


def fit_standardizer(X: np.ndarray, mask=FULL_MASK):
    """(means, stds): per-column mean and population std over the masked feature matrix."""
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
    return means, stds


def _affine(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """z = X @ w + b for theta = [w..., b]: what the loss and gradient halves share."""
    z = X @ theta[:-1]
    z += theta[-1]
    return z


def _logreg_loss(z, y, w, l2_lambda) -> float:
    # softplus(z) = max(z, 0) + log1p(e^-|z|) as np.logaddexp(0, z) computes it, but in
    # SIMD loops; the clamp keeps exp from underflowing, where log1p is below 1e-307
    t = np.log1p(np.exp(-np.minimum(np.abs(z), 708.0))) + np.maximum(z, 0.0) - y * z
    return float(np.mean(t) + 0.5 * l2_lambda * w @ w)


def _logreg_grad(z, X, y, w, l2_lambda) -> np.ndarray:
    # z becomes the residual (sigmoid(z) - y) / n, sigmoid as in sigmoid()
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    z -= y
    z /= len(y)
    return np.concatenate([X.T @ z + l2_lambda * w, [z.sum()]])


def logreg_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2_lambda: float):
    """Mean negative log-likelihood plus L2 on the weights (bias excluded).

    ``theta`` packs [w..., b]. Returns (loss, grad) with grad matching theta.
    """
    z = _affine(theta, X)
    return _logreg_loss(z, y, theta[:-1], l2_lambda), _logreg_grad(z, X, y, theta[:-1], l2_lambda)


def sigmoid(z):
    """Logistic function 1 / (1 + e^-z), through tanh so it cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _svm_loss(z, y, w, l2_lambda) -> float:
    slack = np.maximum(1.0 - (2.0 * y - 1.0) * z, 0.0)
    return float(np.mean(slack * slack) + 0.5 * l2_lambda * w @ w)


def _svm_grad(z, X, y, w, l2_lambda) -> np.ndarray:
    s = 2.0 * y - 1.0
    coeff = (-2.0 / len(y)) * s * np.maximum(1.0 - s * z, 0.0)
    return np.concatenate([X.T @ coeff + l2_lambda * w, [coeff.sum()]])


def svm_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2_lambda: float):
    """Mean squared hinge max(0, 1 - s z)^2, s = 2y - 1, plus L2 on the weights;
    the L2-loss linear SVM. Packs theta and returns like logreg_loss_grad."""
    z = _affine(theta, X)
    return _svm_loss(z, y, theta[:-1], l2_lambda), _svm_grad(z, X, y, theta[:-1], l2_lambda)


# kind -> (loss half, gradient half, c): the loss's second derivative in z is
# at most c, so the mean loss has curvature at most c lambda_max(G / n) + lambda.
_HALVES = {"logreg": (_logreg_loss, _logreg_grad, 0.25), "svm": (_svm_loss, _svm_grad, 2.0)}


def _descend(loss_grad, X, y, config: TrainConfig):
    """Armijo-backtracked gradient descent on ``loss_grad`` from theta = 0; returns (w, b).

    The curvature bound L fixes the step rule once per fit. Where L <= 1 the descent
    lemma passes every unit step's test f(theta - g) <= f(theta) - |g|^2 / 2, so each
    step is the unit step and no loss is evaluated; else each step is backtracked from 1.
    """
    loss_half, grad_half, c = _HALVES[config.kind]
    y, lam = y.astype(float), config.l2_lambda
    n, d = X.shape
    sums = X.sum(axis=0)[:, None]
    gram = np.block([[X.T @ X, sums], [sums.T, n]]) / n  # G / n, G the Gram matrix of [X 1]
    backtrack = c * np.linalg.eigvalsh(gram)[-1] + lam > 1.0
    theta = np.zeros(d + 1)
    loss, grad = loss_grad(theta, X, y, lam)
    for _ in range(config.max_iters):
        gnorm2 = grad @ grad
        if np.sqrt(gnorm2) <= TOLERANCE:
            break
        step = 1.0
        for _ in range(60):  # Armijo backtracking
            candidate = theta - step * grad
            z = _affine(candidate, X)
            new_loss = loss_half(z, y, candidate[:-1], lam) if backtrack else None
            if not backtrack or new_loss <= loss - 0.5 * step * gnorm2:
                break
            step *= 0.5
        theta, loss, grad = candidate, new_loss, grad_half(z, X, y, candidate[:-1], lam)
    return theta[:-1], float(theta[-1])


def train(
    features, config: TrainConfig, mask=DEFAULT_MASK, dwt_config=DwtConfig()
) -> LinearModel:
    """Fit the standardisation and a linear model on labeled features.

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
    if not any(mask):  # LinearModel refuses it too, but only after a wasted fit
        raise InvariantViolation("mask keeps no features")
    means, stds = fit_standardizer(X_full, mask)
    Xs = (X_full[:, np.asarray(mask, dtype=bool)] - means) / stds
    loss_grad = logreg_loss_grad if config.kind == "logreg" else svm_loss_grad
    w, b = _descend(loss_grad, Xs, y, config)
    return LinearModel(w, b, means, stds, mask, config, dwt_config)


def predict_score_batch(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Linear decision value w.standardize(x) + b of each row of X."""
    cols = np.asarray(X, dtype=float)[:, np.asarray(model.feature_mask, dtype=bool)]
    if not np.isfinite(cols).all():
        raise NonFiniteFeature("feature matrix contains NaN/Inf")
    # An elementwise product and a row sum, not a matrix product: a matmul sums
    # in an order that depends on the number of rows, so a row scored alone
    # (detect) could differ in its last bits from the same row in a batch.
    return (((cols - model.means) / model.stds) * model.weights).sum(axis=1) + model.bias


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
            "n_w": model.dwt_config.n_w,
            "mask": list(model.feature_mask),
            "means": model.means.tolist(),
            "stds": model.stds.tolist(),
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "train_config": asdict(model.train_config),
        },
    )


def load_model(path) -> LinearModel:
    """The model a file holds; any malformed content is one ParseError."""
    payload = read_json(path, "model")
    check_header(payload, MODEL_FORMAT, MODEL_VERSION)
    with malformed("malformed model file"):
        weights, means, stds = (number_array(payload[key]) for key in ("weights", "means", "stds"))
        return LinearModel(
            weights, payload["bias"], means, stds, payload["mask"],
            TrainConfig(**payload["train_config"]),
            DwtConfig(n_w=payload["n_w"]),
        )
