"""Multiple-testing procedures over p-values and the metrics to judge them.

Batch anomaly detection tests many points at once, so flagging everything
with p <= alpha inflates the number of false alarms among the flags.  The
Benjamini-Hochberg step-up keeps the expected false-alarm fraction of the
flagged set (the false discovery rate) at or below alpha whenever the
p-values of the non-anomalous points are independent super-uniform, which
is what conformal p-values deliver for exchangeable calibration data.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DecisionSet,
    EmptyInput,
    NoAnomalies,
    PValueVector,
    ShapeMismatch,
    check_finite,
)

WEIGHTED_BH_CAVEAT = (
    "weighted_bh applies the BH step-up to weighted p-values; finite-sample "
    "FDR control is not guaranteed for this combination"
)


def _p_array(pvals):
    if isinstance(pvals, PValueVector):
        values = pvals.values
    else:
        values = np.asarray(pvals, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeMismatch("p-values must be 1-D")
    if values.shape[0] == 0:
        raise EmptyInput("no p-values to select from")
    return check_finite(values, "p-value")


def _alpha_float(alpha):
    return float(alpha)


def _bh_flags(values, alpha):
    """Step-up pass: largest k with p_(k) <= k*alpha/m, flag p <= p_(k*)."""
    m = values.shape[0]
    order = np.sort(values)
    passed = order <= alpha * np.arange(1, m + 1) / m
    if not passed.any():
        return np.zeros(m, dtype=np.int64), 0.0
    threshold = order[np.flatnonzero(passed)[-1]]
    return (values <= threshold).astype(np.int64), float(threshold)


def benjamini_hochberg(pvals, alpha) -> DecisionSet:
    """Select anomalies with BH false-discovery-rate control at ``alpha``."""
    values = _p_array(pvals)
    alpha = _alpha_float(alpha)
    flags, threshold = _bh_flags(values, alpha)
    return DecisionSet(
        flags=flags,
        procedure="bh",
        alpha=alpha,
        rejection_threshold=threshold,
    )


def fixed_threshold(pvals, alpha) -> DecisionSet:
    """Flag every point with p <= alpha (per-test level, no FDR control)."""
    values = _p_array(pvals)
    alpha = _alpha_float(alpha)
    return DecisionSet(
        flags=(values <= alpha).astype(np.int64),
        procedure="fixed_threshold",
        alpha=alpha,
        rejection_threshold=alpha,
    )


def weighted_false_discovery_control(weighted_pvals, alpha) -> DecisionSet:
    """BH step-up on weighted p-values.

    Weighted conformal p-values restore marginal validity under covariate
    shift, but the BH guarantee was proved for unweighted exchangeable
    p-values.  The returned notes carry that caveat; empirical FDR should
    be checked by simulation for the shift at hand.
    """
    values = _p_array(weighted_pvals)
    alpha = _alpha_float(alpha)
    flags, threshold = _bh_flags(values, alpha)
    return DecisionSet(
        flags=flags,
        procedure="weighted_bh",
        alpha=alpha,
        rejection_threshold=threshold,
        notes=(WEIGHTED_BH_CAVEAT,),
    )


def _flags_and_labels(labels, decisions):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeMismatch("labels must be 1-D")
    flags = decisions.flags if isinstance(decisions, DecisionSet) else np.asarray(decisions)
    if labels.shape[0] != flags.shape[0]:
        raise ShapeMismatch(
            f"labels have length {labels.shape[0]} but decisions have length {flags.shape[0]}"
        )
    return labels.astype(np.int64), flags.astype(np.int64)


def false_discovery_rate(labels, decisions) -> float:
    """Fraction of flags that point at label-0 rows; 0.0 when nothing is flagged."""
    labels, flags = _flags_and_labels(labels, decisions)
    n_flagged = int(flags.sum())
    if n_flagged == 0:
        return 0.0
    false_flags = int(((flags == 1) & (labels == 0)).sum())
    return false_flags / n_flagged


def statistical_power(labels, decisions) -> float:
    """Fraction of label-1 rows that were flagged."""
    labels, flags = _flags_and_labels(labels, decisions)
    n_anomalies = int((labels == 1).sum())
    if n_anomalies == 0:
        raise NoAnomalies("power is undefined without at least one label-1 row")
    hits = int(((flags == 1) & (labels == 1)).sum())
    return hits / n_anomalies
