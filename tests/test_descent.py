"""The descent that skips the loss evaluations the descent lemma decides
takes the same steps, bit for bit, as the plain Armijo descent."""

import numpy as np
import pytest

from gripwatch import models
from gripwatch.models import TOLERANCE, TrainConfig, logreg_loss_grad, svm_loss_grad


def plain_descend(loss_grad, X, y, config: TrainConfig):
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


LOSS_GRAD = {"logreg": logreg_loss_grad, "svm": svm_loss_grad}


def problem(n, d, seed, scale=1.0):
    """Standardised Gaussian features times ``scale``, noisy linear labels."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X = (X - X.mean(axis=0)) / X.std(axis=0) * scale
    y = (X @ rng.normal(size=d) + 0.5 * rng.normal(size=n) > 0).astype(int)
    return X, y


def descend_counted(monkeypatch, X, y, config):
    """Run models._descend; return (w, b) and how often it evaluated the loss
    half, the gradient half (once per step taken) and z (once per trial
    step, once per re-evaluation at theta, and once for theta = 0)."""
    counts = dict.fromkeys(("loss", "grad", "z"), 0)

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    loss_half, grad_half, c = models._HALVES[config.kind]
    halves = (counted("loss", loss_half), counted("grad", grad_half), c)
    monkeypatch.setitem(models._HALVES, config.kind, halves)
    monkeypatch.setattr(models, "_affine", counted("z", models._affine))
    fit = models._descend(LOSS_GRAD[config.kind], X, y, config)
    monkeypatch.undo()
    return fit, counts


def assert_same_fit(fit, X, y, config):
    w, b = fit
    ref_w, ref_b = plain_descend(LOSS_GRAD[config.kind], X, y, config)
    assert w.tobytes() == ref_w.tobytes()
    assert np.float64(b).tobytes() == np.float64(ref_b).tobytes()


def test_standardised_logreg_fit_skips_every_loss_evaluation(monkeypatch):
    X, y = problem(2000, 5, seed=1)
    config = TrainConfig()
    fit, counts = descend_counted(monkeypatch, X, y, config)
    assert_same_fit(fit, X, y, config)
    assert counts == {"loss": 0, "grad": config.max_iters, "z": 1 + config.max_iters}


@pytest.mark.parametrize("kind", ["logreg", "svm"])
@pytest.mark.parametrize("seed", [2, 3, 4])
def test_fit_to_tolerance_falls_back_to_the_plain_test(monkeypatch, kind, seed):
    X, y = problem(300, 3, seed)
    config = TrainConfig(kind=kind, l2_lambda=0.05, max_iters=20000)
    fit, counts = descend_counted(monkeypatch, X, y, config)
    assert_same_fit(fit, X, y, config)
    w, b = fit
    _, grad = LOSS_GRAD[kind](np.append(w, b), X, y.astype(float), config.l2_lambda)
    assert np.linalg.norm(grad) <= TOLERANCE  # converged, not stopped by max_iters
    assert counts["grad"] < config.max_iters and counts["loss"] > 0


@pytest.mark.parametrize("kind", ["logreg", "svm"])
def test_badly_scaled_features_skip_nothing(monkeypatch, kind):
    X, y = problem(500, 4, seed=5, scale=np.array([0.01, 1.0, 30.0, 300.0]))
    config = TrainConfig(kind=kind, max_iters=300)
    fit, counts = descend_counted(monkeypatch, X, y, config)
    assert_same_fit(fit, X, y, config)
    assert counts["loss"] == counts["z"] - 1  # each trial step, and no re-evaluation


def test_svm_fit_that_backtracks(monkeypatch):
    X, y = problem(2000, 5, seed=6)
    config = TrainConfig(kind="svm")
    fit, counts = descend_counted(monkeypatch, X, y, config)
    assert_same_fit(fit, X, y, config)
    assert counts["loss"] > counts["grad"] == config.max_iters  # some step was halved
