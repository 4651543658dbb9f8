"""Unit tests for the from-scratch logistic regression."""

import numpy as np
import pytest

from repro.scoring.classifier import LogisticRegression


def separable_data(n: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
    return x, y


class TestLogisticRegression:
    def test_fits_separable_data(self):
        x, y = separable_data()
        clf = LogisticRegression(l2=0.1).fit(x, y)
        accuracy = (clf.predict(x) == y).mean()
        assert accuracy > 0.95

    def test_probabilities_in_range(self):
        x, y = separable_data()
        clf = LogisticRegression().fit(x, y)
        probs = clf.predict_proba(x)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_decision_sign_matches_prediction(self):
        x, y = separable_data()
        clf = LogisticRegression().fit(x, y)
        scores = clf.decision_function(x)
        assert np.array_equal(clf.predict(x), (scores > 0).astype(int))

    def test_decision_function_single_row(self):
        x, y = separable_data()
        clf = LogisticRegression().fit(x, y)
        [score] = clf.decision_function(np.array([[5.0, 5.0]]))
        assert score > 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().decision_function(np.zeros((1, 2)))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([0.5, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), np.zeros(2))

    def test_l2_shrinks_weights(self):
        x, y = separable_data()
        loose = LogisticRegression(l2=0.01).fit(x, y)
        tight = LogisticRegression(l2=100.0).fit(x, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_constant_labels_handled(self):
        x = np.random.default_rng(1).normal(size=(20, 2))
        clf = LogisticRegression().fit(x, np.ones(20))
        assert (clf.predict_proba(x) > 0.5).all()

    def test_converges_quickly_on_easy_data(self):
        x, y = separable_data()
        clf = LogisticRegression(l2=1.0).fit(x, y)
        assert clf.n_iter_ < 30

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1.0)
