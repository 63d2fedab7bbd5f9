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
    InvalidData,
    InvalidLabel,
    NoAnomalies,
    PValueVector,
    ShapeMismatch,
    _check_alpha,
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
    # NaN fails both comparisons
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise InvalidData(i, message=f"p-value at position {i} is {float(values[i])!r}; "
                                     "p-values must lie in [0, 1]")
    return values


def benjamini_hochberg(pvals, alpha) -> DecisionSet:
    """Select anomalies with BH false-discovery-rate control at ``alpha``:
    the largest k with p_(k) <= k alpha / m, flagging every p <= p_(k).

    Weighted p-values (a PValueVector whose ``weighting`` is set to other
    than 'uniform') get the same step-up under the procedure tag
    'weighted_bh'.  Weighted conformal p-values restore marginal validity
    under covariate shift, but the BH guarantee was proved for unweighted
    exchangeable p-values, so the decisions carry that caveat as a note;
    empirical FDR should be checked by simulation for the shift at hand.
    Unit weights give the plain conformal p-values, so 'uniform' ones are
    tagged 'bh' with no note.
    """
    alpha = _check_alpha(alpha)
    values = _p_array(pvals)
    m = values.shape[0]
    order = np.sort(values)
    passed = np.flatnonzero(order <= alpha * np.arange(1, m + 1) / m)
    # with no k passing, every p exceeds alpha / m > 0 and none is flagged
    threshold = float(order[passed[-1]]) if passed.size else 0.0
    weighted = isinstance(pvals, PValueVector) and pvals.weighting not in (None, "uniform")
    return DecisionSet(
        flags=values <= threshold,
        procedure="weighted_bh" if weighted else "bh",
        alpha=alpha,
        rejection_threshold=threshold,
        notes=(WEIGHTED_BH_CAVEAT,) if weighted else (),
    )


def fixed_threshold(pvals, alpha) -> DecisionSet:
    """Flag every point with p <= alpha (per-test level, no FDR control)."""
    alpha = _check_alpha(alpha)
    values = _p_array(pvals)
    return DecisionSet(
        flags=(values <= alpha).astype(np.int64),
        procedure="fixed_threshold",
        alpha=alpha,
        rejection_threshold=alpha,
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
    for name, v in (("label", labels), ("flag", flags)):
        bad = (v != 0) & (v != 1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InvalidLabel(f"{name} at position {i} is {v[i]}; {name}s must be 0 or 1")
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
