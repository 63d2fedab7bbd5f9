"""Density-ratio weighting for conformal p-values under covariate shift.

A weight model estimates w(x) = dQ/dP between the test (target) and
calibration (source) covariate distributions; weighted rank counts then
restore marginal validity when the shift is purely in the covariates. Weights
are capped at a fixed multiple of the median calibration weight, computed
once at fit time, because a few very large weights make the weighted
calibration unstable; the cap is an explicit stability trade and is recorded
on the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataMatrix,
    DimensionMismatch,
    EmptyCalibration,
    InvalidHyperparameter,
    ShapeMismatch,
    _readonly,
    check_finite,
    check_real,
)
from .resampling import _median

WEIGHT_KINDS = ("logistic", "oracle", "uniform")

_L2 = 1e-4
_MAX_ITER = 10_000
_GRAD_TOL = 1e-6


def _sigmoid(z):
    # clamp keeps exp out of overflow territory
    z = np.clip(z, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class WeightModel:
    """Fitted density-ratio model.

    ``cap_value`` is the absolute weight cap derived at fit time from the
    calibration-side ratios; every later weight evaluation is clipped to it
    so calibration and test sides always see one consistent cap.
    """

    kind: str
    n_cal: int
    n_test: int
    cap_factor: float | None
    cap_value: float
    mu: np.ndarray | None = None
    sd: np.ndarray | None = None
    coef: np.ndarray | None = None
    intercept: float = 0.0
    ratio_function: object = None
    converged: bool = True
    n_iter: int = 0

    def __post_init__(self):
        for name in ("mu", "sd", "coef"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _readonly(np.asarray(v, dtype=np.float64)))


def _covariates(X):
    """Covariate values: a DataMatrix's own, or those of one built from ``X``,
    which checks them."""
    return (X if isinstance(X, DataMatrix) else DataMatrix(X)).values


def _fit_logistic(cal, test):
    mu = cal.mean(axis=0)
    sd = cal.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    Z = np.vstack([(cal - mu) / sd, (test - mu) / sd])
    y = np.concatenate([np.zeros(cal.shape[0]), np.ones(test.shape[0])])
    n = Z.shape[0]
    A = np.hstack([Z, np.ones((n, 1))])
    # fixed step 1/L from the logistic-loss Lipschitz bound; the intercept
    # column is left unpenalized
    lam = float(np.linalg.eigvalsh(A.T @ A / n)[-1])
    step = 1.0 / (0.25 * lam + _L2)
    beta = np.zeros(A.shape[1])
    penalized = np.ones_like(beta)
    penalized[-1] = 0.0
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        p = _sigmoid(A @ beta)
        grad = A.T @ (y - p) / n - _L2 * penalized * beta
        beta = beta + step * grad
        if float(np.linalg.norm(grad)) < _GRAD_TOL:
            converged = True
            break
    return mu, sd, beta[:-1], float(beta[-1]), converged, it


def _raw_ratios(kind, X, mu, sd, coef, intercept, ratio_function, n_cal, n_test):
    if kind == "uniform":
        return np.ones(X.shape[0])
    if kind == "logistic":
        z = (X - mu) / sd @ coef + intercept
        p = np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12)
        return p / (1.0 - p) * (n_cal / n_test)
    ratios = np.asarray(ratio_function(X), dtype=np.float64).reshape(-1)
    if ratios.shape[0] != X.shape[0]:
        raise ShapeMismatch(
            f"ratio function returned {ratios.shape[0]} values for {X.shape[0]} rows")
    if (check_finite(ratios, "oracle ratio") <= 0.0).any():
        raise InvalidHyperparameter("oracle ratios must be strictly positive")
    return ratios


def fit_weight_estimator(cal_X, test_X, kind="logistic", ratio_function=None,
                         cap_factor=20.0):
    """Fit a density-ratio weight model from calibration and test covariates.

    Parameters
    ----------
    cal_X, test_X : DataMatrix, or 2-D arrays that DataMatrix checks; of one width.
    kind : {'logistic', 'oracle', 'uniform'}
        'logistic' trains a probabilistic classifier (calibration = 0,
        test = 1) by full-batch gradient ascent on the L2-regularized
        log-likelihood, with features standardized by calibration statistics,
        and converts probabilities to ratios pi/(1-pi) * n_cal/n_test.
        'oracle' wraps a user-supplied ratio function; 'uniform' is all ones.
        The logistic fit is deterministic: it starts from zero.
    cap_factor : positive float or None
        Weights are capped at cap_factor times the median calibration-side
        ratio; None disables the cap.

    Returns
    -------
    WeightModel
        ``converged`` is False when the iteration cap was hit; the best
        iterate is still returned.
    """
    return _fit_weights(cal_X, test_X, kind, ratio_function, cap_factor)[0]


def _fit_weights(cal_X, test_X, kind="logistic", ratio_function=None, cap_factor=20.0):
    """``fit_weight_estimator``'s model and ``weights(model, cal_X)``, from
    the one evaluation of the calibration ratios that sets the cap."""
    cal, test = _covariates(cal_X), _covariates(test_X)
    if cal.shape[1] != test.shape[1]:
        raise DimensionMismatch(
            f"calibration has {cal.shape[1]} features, test has {test.shape[1]}")
    if kind not in WEIGHT_KINDS:
        raise InvalidHyperparameter(f"unknown weight kind {kind!r}")
    if cap_factor is not None:
        cap_factor = check_real("cap_factor", cap_factor, InvalidHyperparameter)
        if cap_factor <= 0.0:
            raise InvalidHyperparameter(f"cap_factor must be positive or None, got {cap_factor!r}")
    mu = sd = coef = None
    intercept = 0.0
    converged = True
    n_iter = 0
    if kind == "logistic":
        mu, sd, coef, intercept, converged, n_iter = _fit_logistic(cal, test)
    elif kind == "oracle":
        if ratio_function is None or not callable(ratio_function):
            raise InvalidHyperparameter("oracle weighting requires a ratio_function")
    raw_cal = _raw_ratios(kind, cal, mu, sd, coef, intercept, ratio_function,
                          cal.shape[0], test.shape[0])
    cap_value = float("inf") if cap_factor is None else float(cap_factor * _median(raw_cal))
    return WeightModel(kind=kind, n_cal=cal.shape[0], n_test=test.shape[0],
                       cap_factor=cap_factor,
                       cap_value=cap_value, mu=mu, sd=sd, coef=coef,
                       intercept=intercept, ratio_function=ratio_function,
                       converged=converged, n_iter=n_iter), np.minimum(raw_cal, cap_value)


def weights(model, X):
    """Evaluate capped density-ratio weights at the given covariates."""
    vals = _covariates(X)
    if model.kind == "logistic" and vals.shape[1] != model.mu.shape[0]:
        raise DimensionMismatch(
            f"weight model expects {model.mu.shape[0]} features, got {vals.shape[1]}")
    raw = _raw_ratios(model.kind, vals, model.mu, model.sd, model.coef,
                      model.intercept, model.ratio_function, model.n_cal, model.n_test)
    return np.minimum(raw, model.cap_value)


def weighted_p_values(cal_scores, cal_weights, test_scores, test_weights):
    """Weighted conformal p-values, one self-weight per test point:

    p = (sum of weights of calibration scores >= s_test + w_test)
        / (total calibration weight + w_test)

    Ties count toward the numerator, mirroring the unweighted rank rule, so
    unit weights reduce exactly to the empirical formula.
    """
    cal = np.asarray(cal_scores, dtype=np.float64).reshape(-1)
    w = np.asarray(cal_weights, dtype=np.float64).reshape(-1)
    t = np.asarray(test_scores, dtype=np.float64).reshape(-1)
    wt = np.asarray(test_weights, dtype=np.float64)
    if wt.ndim == 0:
        wt = np.full(t.shape[0], wt)
    if cal.shape[0] == 0:
        raise EmptyCalibration("no calibration scores")
    if w.shape[0] != cal.shape[0]:
        raise ShapeMismatch("calibration weights must match calibration scores")
    if wt.shape[0] != t.shape[0]:
        raise ShapeMismatch("test weights must match test scores")
    check_finite(cal, "calibration score")
    check_finite(w, "calibration weight")
    check_finite(t, "test score")
    check_finite(wt, "test weight")
    if (w <= 0.0).any() or (wt <= 0.0).any():
        raise InvalidHyperparameter("weights must be strictly positive")
    order = np.argsort(cal, kind="stable")
    sorted_scores = cal[order]
    # suffix sums of weights over scores >= threshold
    suffix = np.concatenate([np.cumsum(w[order][::-1])[::-1], [0.0]])
    pos = np.searchsorted(sorted_scores, t, side="left")
    numer = suffix[pos] + wt
    # the total from the same cumsum keeps numer <= denom exactly;
    # np.sum can differ from the last cumsum entry by an ulp
    denom = suffix[0] + wt
    return numer / denom
