import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverml.models.fm import FMModel, FMParams, fm_loss_and_grad, fm_raw_scores, train_fm
from coverml.models.linear import LogisticModel
from coverml.rng import derived_rng

from helpers import fm_pairwise_score, grad_check
from test_linear import masked_sigmoid, training_data


class TestScoreIdentity:
    def test_hand_case(self):
        # x=[1,1], w0=0, w=0, v1=v2=[1]: the single pairwise term is 1.0
        X = np.array([[1.0, 1.0]])
        V = np.ones((2, 1))
        score = fm_raw_scores(X, 0.0, np.zeros(2), V)
        assert score[0] == 1.0
        assert fm_pairwise_score(X[0], 0.0, np.zeros(2), V) == 1.0

    def test_identity_matches_pairwise_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            X = rng.normal(size=(6, d))
            w0 = float(rng.normal())
            w = rng.normal(size=d)
            V = rng.normal(size=(d, k))
            fast = fm_raw_scores(X, w0, w, V)
            slow = [fm_pairwise_score(x, w0, w, V) for x in X]
            assert np.allclose(fast, slow, atol=1e-9)


class TestReductionToLogistic:
    def test_zero_factors_share_score_path(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=4)
        b = float(rng.normal())
        X = rng.normal(size=(50, 4))
        fm = FMModel(b, w, np.zeros((4, 3)), threshold=0.5)
        lr = LogisticModel(w, b, threshold=0.5)
        assert np.array_equal(fm.raw_scores(X), lr.raw_scores(X))
        assert np.array_equal(fm.probabilities(X), lr.probabilities(X))
        assert np.array_equal(fm.predictions(X), lr.predictions(X))

    def test_zero_init_keeps_factors_at_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        model = train_fm(X, y, FMParams(init_std=0.0, max_iter=3))
        assert (model.V == 0.0).all()


class TestTraining:
    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 2, size=80)
        a = train_fm(X, y, FMParams(seed=5))
        b = train_fm(X, y, FMParams(seed=5))
        assert a.to_dict() == b.to_dict()
        c = train_fm(X, y, FMParams(seed=6))
        assert c.to_dict() != a.to_dict()

    def test_learns_separable_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = train_fm(X, y, FMParams(max_iter=30))
        assert (model.predictions(X) == y).mean() > 0.9

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        model = train_fm(X, y)
        probs = model.probabilities(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n, d, k = int(rng.integers(2, 10)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            ys = rng.choice([-1.0, 1.0], size=n)

            def value_and_grad(theta):
                w0 = theta[0]
                w = theta[1 : 1 + d]
                V = theta[1 + d :].reshape(d, k)
                loss, g0, gw, gV = fm_loss_and_grad(X, ys, w0, w, V)
                return loss, np.concatenate(([g0], gw, gV.ravel()))

            theta = rng.normal(size=1 + d + d * k) * 0.5
            assert grad_check(value_and_grad, theta) < 1e-5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FMParams(factor_dim=0)
        with pytest.raises(ValueError):
            FMParams(init_std=-1.0)
        with pytest.raises(ValueError):
            FMParams(step_size=0.0)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        model = train_fm(X, y, FMParams(max_iter=2))
        back = FMModel.from_dict(model.to_dict())
        assert np.array_equal(back.raw_scores(X), model.raw_scores(X))
        assert back.V.shape == model.V.shape


def reference_fm(X, y, p: FMParams) -> FMModel:
    """Mini-batch descent through the public loss and gradient, whose loss
    each batch discards, with copying updates."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    ys = 2.0 * y.astype(np.float64) - 1.0
    n, d = X.shape
    rng = derived_rng(p.seed, 29)
    w0, w = 0.0, np.zeros(d)
    V = rng.normal(0.0, p.init_std, size=(d, p.factor_dim)) if p.init_std > 0 else np.zeros((d, p.factor_dim))
    for _ in range(p.max_iter):
        order = rng.permutation(n)
        for start in range(0, n, p.batch_size):
            batch = order[start : start + p.batch_size]
            _, g_w0, g_w, g_V = fm_loss_and_grad(X[batch], ys[batch], w0, w, V)
            w0 = w0 - p.step_size * g_w0
            w = w - p.step_size * g_w
            V = V - p.step_size * g_V
    return FMModel(w0, w, V, p.threshold)


class TestTrainerParity:
    """train_fm gives the model file of the loop written over the public
    fm_loss_and_grad, bit for bit, and that function keeps its formulas."""

    @given(
        training_data(max_rows=40, bound=3.0),
        st.fixed_dictionaries(dict(
            factor_dim=st.integers(1, 4),
            init_std=st.sampled_from([0.0, 0.01, 0.3]),
            step_size=st.sampled_from([0.05, 0.1, 0.5]),
            max_iter=st.integers(1, 5),
            batch_size=st.sampled_from([1, 3, 8, 32]),
            seed=st.integers(0, 50),
        )),
    )
    @example((np.array([[-1.0, 2.0], [2.0, 2.0], [0.5, 2.0]]), np.array([0, 1, 1])),
             dict(factor_dim=2, init_std=0.01, step_size=0.1, max_iter=3, batch_size=2, seed=1))
    @settings(max_examples=120, deadline=None)
    def test_train_fm(self, data, kwargs):
        X, y = data
        params = FMParams(**kwargs)
        assert repr(train_fm(X, y, params).to_dict()) == repr(reference_fm(X, y, params).to_dict())

    @given(training_data(max_rows=12, bound=3.0), st.floats(-2.0, 2.0), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_loss_and_grad_keep_their_formulas(self, data, w0, k):
        X, y = data
        rng = np.random.default_rng(len(y))
        w, V = rng.normal(size=X.shape[1]), rng.normal(size=(X.shape[1], k))
        ys = 2.0 * y - 1.0
        n = X.shape[0]
        XV = X @ V
        scores = (X @ w + w0) + 0.5 * ((XV * XV).sum(axis=1) - ((X * X) @ (V * V)).sum(axis=1))
        g = -ys * masked_sigmoid(-ys * scores) / n
        expect = (
            float(np.mean(np.logaddexp(0.0, -ys * scores))),
            float(g.sum()),
            X.T @ g,
            X.T @ (g[:, None] * XV) - ((X * X).T @ g)[:, None] * V,
        )
        loss, g_w0, g_w, g_V = fm_loss_and_grad(X, ys, w0, w, V)
        assert (repr(loss), repr(g_w0)) == (repr(expect[0]), repr(expect[1]))
        assert type(loss) is float and type(g_w0) is float
        assert g_w.tobytes() == expect[2].tobytes() and g_V.tobytes() == expect[3].tobytes()
