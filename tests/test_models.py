import json

import numpy as np
import pytest

from gripwatch.errors import (
    EmptyDataset,
    InvariantViolation,
    LengthMismatch,
    ParseError,
    SingleClassDataset,
    VersionMismatch,
)
from gripwatch.features import FEATURE_NAMES
from gripwatch.models import (
    DEFAULT_MASK,
    FULL_MASK,
    TrainConfig,
    fit_standardizer,
    load_model,
    logreg_loss_grad,
    mask_from_names,
    predict_label_batch,
    predict_score_batch,
    sigmoid,
    save_model,
    train,
)


def toy_1d_dataset():
    # one informative column (fa); everything else constant
    X = np.zeros((40, 6))
    X[:20, 0] = -1.0
    X[20:, 0] = 1.0
    y = np.array([0] * 20 + [1] * 20)
    return X, y


def synthetic_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    w_true = np.array([1.5, -2.0, 0.5, 0.0, 1.0, -1.0])
    y = (X @ w_true + 0.3 * rng.normal(size=n) > 0).astype(int)
    return X, y


def test_standardizer_zero_variance_clamps_with_warning():
    X = np.tile([1.0, 2, 3, 4, 5, 6], (5, 1))
    with pytest.warns(UserWarning, match="zero-variance"):
        s = fit_standardizer(X)
    assert np.allclose(s.means, [1, 2, 3, 4, 5, 6])
    assert np.allclose(s.stds, 1.0)


def test_standardizer_symmetric_pair():
    X = np.array([[-1.0], [1.0]])
    s = fit_standardizer(X, mask=(True,))
    assert s.means[0] == 0.0
    assert s.stds[0] == 1.0


def test_standardized_training_features_are_normalized():
    X, _ = synthetic_dataset()
    s = fit_standardizer(X)
    Z = s.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)


def test_standardizer_empty_dataset():
    with pytest.raises(EmptyDataset):
        fit_standardizer([])


def test_standardizer_rejects_mask_of_another_width():
    X, _ = synthetic_dataset()
    for mask in ((True,) * 5, (True,) * 7):
        with pytest.raises(InvariantViolation, match="mask has"):
            fit_standardizer(X, mask=mask)


def test_train_rejects_misshapen_inputs():
    X, y = toy_1d_dataset()
    config = TrainConfig(max_iters=5)
    for bad in (X[:, :5], X[:, 0], np.hstack([X, X[:, :1]])):
        with pytest.raises(InvariantViolation, match="features must be"):
            train((bad, y), config)
    for labels in (y[:-1], np.append(y, 1), y[:, None]):
        with pytest.raises(LengthMismatch):
            train((X, labels), config)
    with pytest.raises(InvariantViolation, match="mask has"):
        train((X, y), config, mask=(True,) * 5)


def test_logreg_separable_boundary_near_zero():
    X, y = toy_1d_dataset()
    model = train((X, y), TrainConfig(kind="logreg"), mask=mask_from_names(["fa"]))
    assert model.weights[0] > 0
    assert abs(model.bias) < 1e-3


def test_svm_hard_margin_solution():
    X, y = toy_1d_dataset()
    config = TrainConfig(kind="svm", l2_lambda=1e-6, max_iters=2000)
    model = train((X, y), config, mask=mask_from_names(["fa"]))
    assert model.weights[0] == pytest.approx(1.0, abs=0.1)
    assert model.bias == pytest.approx(0.0, abs=0.05)


def test_single_class_dataset_rejected():
    X = np.zeros((10, 6))
    with pytest.raises(SingleClassDataset):
        train((X, np.ones(10, dtype=int)), TrainConfig())


def test_labels_other_than_zero_and_one_rejected():
    # -1/+1 (the usual SVM convention) once trained silently to a poor model
    X, y = toy_1d_dataset()
    for labels in (2 * y - 1, 0.5 * y, y + 1):
        with pytest.raises(InvariantViolation, match="0 or 1"):
            train((X, labels), TrainConfig(max_iters=5), mask=mask_from_names(["fa"]))
    model = train((X, y.astype(float)), TrainConfig(max_iters=5), mask=mask_from_names(["fa"]))
    assert model.weights[0] > 0


def test_predict_score_affine_and_trivial_cases():
    X, y = synthetic_dataset()
    model = train((X, y), TrainConfig(), mask=FULL_MASK)
    rows = np.zeros((3, 6))
    rows[1, 0] = 1.0
    rows[2, 0] = 2.0
    base, bumped, twice = predict_score_batch(model, rows)
    assert twice - base == pytest.approx(2 * (bumped - base), abs=1e-9)


def test_zero_model_scores_zero_and_predicts_unstable():
    from gripwatch.models import LinearModel, Standardizer

    model = LinearModel(
        kind="logreg",
        weights=np.zeros(6),
        bias=0.0,
        standardizer=Standardizer(np.zeros(6), np.ones(6)),
        feature_mask=FULL_MASK,
        train_config=TrainConfig(),
    )
    phi = np.array([[3.0, -1, 2, 0.5, 7, 1]])
    assert predict_score_batch(model, phi).tolist() == [0.0]
    assert sigmoid(predict_score_batch(model, phi)[0]) == 0.5
    assert predict_label_batch(model, phi).tolist() == [0]  # tie goes to unstable


def test_sigmoid_reference_value():
    # sigma(2) = 1 / (1 + e^-2), frozen from high-precision evaluation
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)


def test_gradient_matches_finite_differences():
    X, y = synthetic_dataset(n=200, seed=1)
    Xm = X[:, :5]
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(100):
        theta = rng.normal(scale=2.0, size=6)
        _, grad = logreg_loss_grad(theta, Xm, y, 1e-4)
        numeric = np.empty_like(grad)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (
                logreg_loss_grad(up, Xm, y, 1e-4)[0]
                - logreg_loss_grad(down, Xm, y, 1e-4)[0]
            ) / (2 * h)
        rel = np.linalg.norm(grad - numeric) / max(
            np.linalg.norm(grad), np.linalg.norm(numeric), 1e-8
        )
        assert rel < 1e-6


def test_loss_matches_logaddexp_reference_without_fp_errors():
    z = np.concatenate([np.linspace(-1000.0, 1000.0, 20001), np.linspace(-40.0, 40.0, 8001)])
    rng = np.random.default_rng(3)
    for y in (np.arange(len(z)) % 2, rng.integers(0, 2, len(z)), np.ones(len(z), dtype=int)):
        with np.errstate(under="ignore"):  # the reference underflows past |z| = 708
            expected = np.mean(np.logaddexp(0.0, z) - y * z)
        with np.errstate(all="raise"):
            loss, _ = logreg_loss_grad(np.array([1.0, 0.0]), z[:, None], y, 0.0)
        assert loss == pytest.approx(expected, rel=1e-15, abs=0.0)


def loss_grad_reference(theta, X, y, l2_lambda):
    """The one-line formula the in-place logreg_loss_grad must reproduce bit for bit."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.minimum(np.abs(z), 708.0)))
    loss = float(np.mean(softplus - y * z) + 0.5 * l2_lambda * w @ w)
    residual = (0.5 * (1.0 + np.tanh(0.5 * z)) - y) / len(y)
    return loss, np.concatenate([X.T @ residual + l2_lambda * w, [residual.sum()]])


def test_loss_grad_bitwise_equal_to_reference_and_inputs_untouched():
    rng = np.random.default_rng(5)
    line = np.linspace(-1000.0, 1000.0, 4001)[:, None]
    cases = [(line, np.arange(len(line)) % 2, np.array([1.0, 0.0]))]
    for _ in range(60):
        X = rng.normal(size=(500, 4)) * rng.choice([0.1, 10.0, 300.0], size=4)
        y = rng.integers(0, 2, len(X)).astype(float)
        cases.append((X, y, rng.normal(scale=2.0, size=5)))
    spans = []
    for X, y, theta in cases:
        saved = X.copy(), y.copy(), theta.copy()
        loss, grad = logreg_loss_grad(theta, X, y, 1e-4)
        ref_loss, ref_grad = loss_grad_reference(theta, X, y, 1e-4)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        for before, after in zip(saved, (X, y, theta)):
            assert np.array_equal(before, after)
        spans.append(np.abs(X @ theta[:-1] + theta[-1]).max())
    assert max(spans) >= 1000.0


def test_monotone_link():
    scores = np.linspace(-10, 10, 101)
    probs = sigmoid(scores)
    assert np.all(np.diff(probs) > 0)


def test_training_determinism():
    X, y = synthetic_dataset()
    a = train((X, y), TrainConfig())
    b = train((X, y), TrainConfig())
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_scale_absorption():
    X, y = synthetic_dataset()
    scaled = X.copy()
    scaled[:, 2] *= 37.5
    a = train((X, y), TrainConfig())
    b = train((scaled, y), TrainConfig())
    za = a.standardizer.transform(X[:, np.asarray(DEFAULT_MASK)])
    zb = b.standardizer.transform(scaled[:, np.asarray(DEFAULT_MASK)])
    assert np.allclose(za, zb, atol=1e-9)
    pa = predict_score_batch(a, X) > 0
    pb = predict_score_batch(b, scaled) > 0
    assert np.array_equal(pa, pb)


def test_regularization_monotonically_shrinks_weights():
    X, y = synthetic_dataset()
    norms = []
    for lam in [1e-4, 1e-3, 1e-2, 1e-1, 1.0]:
        model = train((X, y), TrainConfig(l2_lambda=lam))
        norms.append(np.linalg.norm(model.weights))
    assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


def test_grid_search_is_deterministic_and_picks_from_grid():
    X, y = synthetic_dataset(n=150)
    config = TrainConfig(hyper_grid=(1e-4, 1e-2, 1.0), max_iters=100)
    a = train((X, y), config)
    b = train((X, y), config)
    assert a.train_config.l2_lambda in (1e-4, 1e-2, 1.0)
    assert np.array_equal(a.weights, b.weights)


def test_model_round_trip_preserves_scores(tmp_path):
    X, y = synthetic_dataset()
    model = train((X, y), TrainConfig())
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(4)
    probes = rng.normal(size=(1000, 6))
    assert np.allclose(
        predict_score_batch(model, probes), predict_score_batch(loaded, probes), atol=1e-12
    )


def test_truncated_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "gripwatch-model", "vers')
    with pytest.raises(ParseError):
        load_model(path)


def test_model_version_mismatch(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "gripwatch-model", "version": 99}))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_model_weight_mask_mismatch(tmp_path):
    X, y = synthetic_dataset()
    model = train((X, y), TrainConfig())
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["weights"] = payload["weights"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantViolation):
        load_model(path)


def test_mask_from_names_rejects_unknown():
    with pytest.raises(InvariantViolation):
        mask_from_names(["fa", "bogus"])
    assert mask_from_names(FEATURE_NAMES) == FULL_MASK
