import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverml.models.base import ModelError
from coverml.models.linear import (
    LinearSvmModel,
    LinearSvmParams,
    LogisticModel,
    LogisticParams,
    SVM_FIXED_STEP,
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


def masked_sigmoid(z):
    """The sigmoid as two masked branches, the form it had before it was
    computed from exp(-|z|)."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


#: Signed zeros, subnormals, the edges of exp's range and the infinities.
EDGE_Z = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, 36.7, -36.7, 709.8, -709.8,
          745.1, -745.1, 745.2, -745.2, 800.0, -800.0, 1.7976931348623157e308, -1.7976931348623157e308,
          math.inf, -math.inf]


class TestSigmoid:
    def test_edges_match_the_masked_form_bit_for_bit(self):
        z = np.array(EDGE_Z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(z)
        assert out.view(np.int64).tolist() == masked_sigmoid(z).view(np.int64).tolist()

    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_drawn_floats_match_the_masked_form_bit_for_bit(self, values):
        z = np.array(values)
        assert sigmoid(z).view(np.int64).tolist() == masked_sigmoid(z).view(np.int64).tolist()

    def test_nan_stays_nan_without_warning(self):
        z = np.array([math.nan, -math.nan, 0.0, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(z)
        assert np.isnan(out).tolist() == [True, True, False, True]
        assert out[2] == 0.5

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


# -- trainers against the loops they replace ----------------------------------


def reference_standardize(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd, mu, sd


def reference_logistic(X, y, p: LogisticParams) -> LogisticModel:
    """Armijo descent that evaluates the public loss and gradient at every
    trial point, as the trainer did before its steps computed only what
    they use."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    yf = y.astype(np.float64)
    if p.standardization:
        X, mu, sd = reference_standardize(X)
    w, b = np.zeros(X.shape[1]), 0.0
    loss, gw, gb = logistic_loss_and_grad(w, b, X, yf, p.reg_param, p.fit_intercept)
    for _ in range(p.max_iter):
        gnorm_sq = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm_sq) < p.tol:
            break
        step = 1.0
        for _ in range(60):
            w_new = w - step * gw
            b_new = b - step * gb if p.fit_intercept else b
            loss_new, gw_new, gb_new = logistic_loss_and_grad(w_new, b_new, X, yf, p.reg_param, p.fit_intercept)
            if np.isfinite(loss_new) and loss_new <= loss - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
    if p.standardization:
        w = w / sd
        b = b - float(w @ mu)
    return LogisticModel(w, b, p.threshold)


def reference_svm(X, y, p: LinearSvmParams) -> LinearSvmModel:
    """Subgradient descent through the public hinge loss and gradient, whose
    loss each step discards."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    ys = 2.0 * y.astype(np.float64) - 1.0
    if p.standardization:
        X, mu, sd = reference_standardize(X)
    w, b = np.zeros(X.shape[1]), 0.0
    for t in range(1, p.max_iter + 1):
        _, gw, gb = hinge_loss_and_grad(w, b, X, ys, p.reg_param, p.fit_intercept)
        if np.sqrt(float(gw @ gw) + gb * gb) < p.tol:
            break
        step = 1.0 / (p.reg_param * t) if p.reg_param > 0 else SVM_FIXED_STEP
        w = w - step * gw
        if p.fit_intercept:
            b = b - step * gb
    if p.standardization:
        w = w / sd
        b = b - float(w @ mu)
    return LinearSvmModel(w, b)


@st.composite
def training_data(draw, max_rows=30, max_cols=4, bound=50.0):
    """(X, y) with a column that may be constant, entries that include
    signed zeros, and labels that may all be one class."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-bound, bound, width=64))
    X = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(entry)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return X, y


#: A `tol` of 0.3 stops most fits after a few steps, 1e-6 almost none.
linear_settings = dict(
    reg_param=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    max_iter=st.integers(1, 40),
    tol=st.sampled_from([1e-6, 0.05, 0.3]),
    fit_intercept=st.booleans(),
    standardization=st.booleans(),
)

#: Two rows either side of zero plus a constant column.
PAIR = (np.array([[-1.0, 3.0], [2.0, 3.0]]), np.array([0, 1]))


class TestTrainerParity:
    """The trainers give the model files of the loops written over the
    public loss functions, bit for bit."""

    @given(training_data(), st.fixed_dictionaries(linear_settings))
    @example(PAIR, dict(reg_param=0.0, max_iter=20, tol=1e-6, fit_intercept=True, standardization=True))
    @example(PAIR, dict(reg_param=0.1, max_iter=20, tol=0.3, fit_intercept=False, standardization=False))
    @settings(max_examples=150, deadline=None)
    def test_logistic(self, data, kwargs):
        X, y = data
        params = LogisticParams(**kwargs)
        assert repr(train_logistic(X, y, params).to_dict()) == repr(reference_logistic(X, y, params).to_dict())

    @given(training_data(), st.fixed_dictionaries(linear_settings))
    @example(PAIR, dict(reg_param=0.0, max_iter=20, tol=1e-6, fit_intercept=True, standardization=True))
    @example(PAIR, dict(reg_param=0.1, max_iter=40, tol=0.3, fit_intercept=False, standardization=False))
    @settings(max_examples=150, deadline=None)
    def test_linear_svm(self, data, kwargs):
        X, y = data
        params = LinearSvmParams(**kwargs)
        assert repr(train_linear_svm(X, y, params).to_dict()) == repr(reference_svm(X, y, params).to_dict())

    def test_early_stop_is_reached(self):
        # The tol case above must stop before max_iter, or it checks nothing.
        X, y = PAIR
        full = reference_svm(X, y, LinearSvmParams(reg_param=0.1, max_iter=40, tol=1e-6, fit_intercept=False,
                                                   standardization=False))
        stopped = reference_svm(X, y, LinearSvmParams(reg_param=0.1, max_iter=40, tol=0.3, fit_intercept=False,
                                                      standardization=False))
        assert repr(full.to_dict()) != repr(stopped.to_dict())

    @given(training_data(max_rows=12), st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.1]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_loss_and_grad_keep_their_formulas(self, data, b, reg, fit_intercept):
        X, y = data
        rng = np.random.default_rng(len(y))
        w = rng.normal(size=X.shape[1])
        yf, ys = y.astype(np.float64), 2.0 * y - 1.0
        z = X @ w + b
        resid = masked_sigmoid(z) - yf
        coef = np.where(1.0 - ys * z > 0.0, -ys, 0.0)
        expect = {
            "lr": (float(np.mean(np.logaddexp(0.0, z) - yf * z)) + 0.5 * reg * float(w @ w),
                   X.T @ resid / len(y) + reg * w, float(np.mean(resid)) if fit_intercept else 0.0),
            "svm": (float(np.mean(np.maximum(0.0, 1.0 - ys * z))) + 0.5 * reg * float(w @ w),
                    X.T @ coef / len(y) + reg * w, float(np.mean(coef)) if fit_intercept else 0.0),
        }
        got = {
            "lr": logistic_loss_and_grad(w, b, X, yf, reg, fit_intercept),
            "svm": hinge_loss_and_grad(w, b, X, ys, reg, fit_intercept),
        }
        for family in expect:
            (loss, gw, gb), (loss2, gw2, gb2) = expect[family], got[family]
            assert (repr(loss), gw.tobytes(), repr(gb)) == (repr(loss2), gw2.tobytes(), repr(gb2)), family
            assert type(loss2) is float and type(gb2) is float
