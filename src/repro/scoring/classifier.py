"""Binary logistic regression, from scratch on NumPy.

The paper trains "a binary logistic classifier using standard string
similarity functions" on labeled duplicate pairs; its signed log-odds
output is the pairwise criterion P of Section 5 (positive = duplicate,
magnitude = confidence).  We implement L2-regularized logistic regression
with full-batch Newton–Raphson (IRLS), which converges in a handful of
iterations on these low-dimensional feature vectors.
"""

from __future__ import annotations

import numpy as np


class LogisticRegression:
    """L2-regularized binary logistic regression trained by IRLS.

    Attributes (after :meth:`fit`):
        coef_: Weight vector (n_features,).
        intercept_: Bias term.
        n_iter_: Newton iterations actually used.
    """

    def __init__(
        self,
        l2: float = 1.0,
        max_iter: int = 50,
        tol: float = 1e-8,
    ):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on features *x* (n, d) and binary labels *y* (n,) in {0, 1}."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"y shape {y.shape} does not match x rows {x.shape[0]}"
            )
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("labels must be 0 or 1")

        n, d = x.shape
        design = np.hstack([np.ones((n, 1)), x])
        weights = np.zeros(d + 1)
        # No regularization on the intercept.
        reg = np.full(d + 1, self.l2)
        reg[0] = 0.0

        for iteration in range(1, self.max_iter + 1):
            logits = design @ weights
            probs = _sigmoid(logits)
            gradient = design.T @ (probs - y) + reg * weights
            # IRLS Hessian with a floor on the variance terms for stability.
            variance = np.maximum(probs * (1.0 - probs), 1e-10)
            hessian = (design * variance[:, None]).T @ design + np.diag(reg)
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
            weights -= step
            self.n_iter_ = iteration
            if float(np.abs(step).max()) < self.tol:
                break

        self.intercept_ = float(weights[0])
        self.coef_ = weights[1:]
        return self

    def _require_fitted(self) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("classifier is not fitted")
        return self.coef_

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Return signed log-odds for rows of *x* (the paper's score P)."""
        coef = self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ coef + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Return P(duplicate) for rows of *x*."""
        return _sigmoid(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return hard 0/1 labels for rows of *x*."""
        return (self.decision_function(x) > 0.0).astype(int)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out
