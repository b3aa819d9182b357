import math

import numpy as np
import pytest

from coverml.models.base import ModelError
from coverml.models.linear import (
    LinearSvmModel,
    LinearSvmParams,
    LogisticModel,
    LogisticParams,
    hinge_loss_and_grad,
    logistic_loss_and_grad,
    sigmoid,
    train_linear_svm,
    train_logistic,
)

from helpers import grad_check


def lr_objective(X, y, w, b, reg):
    return logistic_loss_and_grad(w, b, X, y, reg, True)[0]


class TestLogistic:
    def test_zero_model_probability_exactly_half(self):
        model = LogisticModel(np.zeros(3), 0.0, threshold=0.5)
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert (model.probabilities(X) == 0.5).all()
        # strict-inequality decision: probability 0.5 at threshold 0.5 is class 0
        assert (model.predictions(X) == 0).all()

    def test_single_class_predicts_positive(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        model = train_logistic(X, y)
        assert (model.probabilities(X) >= 0.5).all()
        assert (model.predictions(X) == 1).all()

    def test_separable_beats_null_loss(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        params = LogisticParams(reg_param=0.1, standardization=False)
        model = train_logistic(X, y, params)
        assert model.weights[0] > 0
        engine_loss = lr_objective(X, y.astype(float), model.weights, model.intercept, 0.1)
        assert engine_loss < math.log(2.0)
        # grid-search oracle over (w, b) on the 2-point objective
        grid = np.linspace(-4, 4, 81)
        oracle_best = min(
            lr_objective(X, y.astype(float), np.array([w]), b, 0.1) for w in grid for b in grid
        )
        assert engine_loss <= oracle_best + 1e-3

    def test_loss_never_increases_with_more_iterations(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        params = [LogisticParams(max_iter=k, standardization=False) for k in range(1, 9)]
        losses = []
        for p in params:
            m = train_logistic(X, y, p)
            losses.append(lr_objective(X, y.astype(float), m.weights, m.intercept, p.reg_param))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            reg = float(rng.random() * 0.5)

            def value_and_grad(theta):
                w, b = theta[:-1], theta[-1]
                loss, gw, gb = logistic_loss_and_grad(w, b, X, y, reg, True)
                return loss, np.append(gw, gb)

            theta = rng.normal(size=d + 1)
            assert grad_check(value_and_grad, theta) < 1e-5

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, size=50)
        model = train_logistic(X, y)
        lo = LogisticModel(model.weights, model.intercept, threshold=0.3).predictions(X)
        hi = LogisticModel(model.weights, model.intercept, threshold=0.7).predictions(X)
        # raising the threshold never converts a predicted 0 into a 1
        assert (hi <= lo).all()

    def test_standardization_maps_weights_back(self):
        rng = np.random.default_rng(4)
        X = rng.normal(loc=5.0, scale=3.0, size=(60, 3))
        y = (X[:, 0] > 5.0).astype(int)
        model = train_logistic(X, y, LogisticParams(standardization=True))
        mu, sd = X.mean(axis=0), X.std(axis=0)
        Xs = (X - mu) / sd
        model_s = train_logistic(Xs, y, LogisticParams(standardization=False))
        assert np.allclose(model.raw_scores(X), model_s.raw_scores(Xs), atol=1e-10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LogisticParams(max_iter=0)
        with pytest.raises(ValueError):
            LogisticParams(reg_param=-1.0)
        with pytest.raises(ValueError):
            LogisticParams(threshold=1.0)

    def test_tolerance_stop(self):
        # already-converged at w=0 when classes are perfectly balanced around 0
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_logistic(X, y, LogisticParams(max_iter=1000, tol=10.0, standardization=False))
        assert model.weights[0] == 0.0 and model.intercept == 0.0


class TestLinearSvm:
    def test_zero_margin_predicts_zero(self):
        model = LinearSvmModel(np.zeros(2), 0.0)
        X = np.zeros((3, 2))
        assert (model.raw_scores(X) == 0.0).all()
        assert (model.predictions(X) == 0).all()

    def test_probabilities_absent(self):
        model = LinearSvmModel(np.zeros(2), 0.0)
        assert model.probabilities(np.zeros((1, 2))) is None
        raw, prob = model.scores(np.zeros((1, 2)))
        assert prob is None and model.predictions_from_scores(raw, prob).tolist() == [0]

    def test_separable_pair_classified(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0, 1])
        model = train_linear_svm(X, y, LinearSvmParams(reg_param=0.01, standardization=False))
        margins = model.raw_scores(X)
        assert margins[0] < 0 < margins[1]

    def test_all_positive_labels(self):
        X = np.array([[0.5], [1.5], [2.5]])
        y = np.array([1, 1, 1])
        model = train_linear_svm(X, y)
        assert model.intercept > 0
        assert (model.predictions(X) == 1).all()

    def test_subgradient_check_away_from_kinks(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            ys = rng.choice([-1.0, 1.0], size=n)
            reg = float(rng.random() * 0.5)
            theta = rng.normal(size=d + 1)
            margins = X @ theta[:-1] + theta[-1]
            if np.min(np.abs(1.0 - ys * margins)) < 1e-3:
                continue  # too close to a hinge kink for finite differences

            def value_and_grad(t):
                loss, gw, gb = hinge_loss_and_grad(t[:-1], t[-1], X, ys, reg, True)
                return loss, np.append(gw, gb)

            assert grad_check(value_and_grad, theta) < 1e-5
            checked += 1

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LinearSvmParams(max_iter=0)
        with pytest.raises(ValueError):
            LinearSvmParams(reg_param=-0.1)


class TestSigmoid:
    def test_extremes_are_stable(self):
        z = np.array([-800.0, 0.0, 800.0])
        out = sigmoid(z)
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_matches_reference(self):
        z = np.linspace(-20, 20, 101)
        assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)


class TestPredictContract:
    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(2), 0.0, 0.5)
        with pytest.raises(ModelError):
            model.scores(np.array([[1.0]]))

    def test_pure_function(self):
        model = LogisticModel(np.array([0.3]), -0.1, 0.5)
        X = np.array([[2.0]])
        (raw1, prob1), (raw2, prob2) = model.scores(X), model.scores(X)
        assert raw1.tolist() == raw2.tolist() and prob1.tolist() == prob2.tolist()
        assert model.predictions(X).tolist() == model.predictions(X).tolist()
