"""Reference computations the benchmark checks the program against.

Each function is written from the definition, by brute force where that is
affordable, and shares no code with the ``confanom`` package.  Distances are
computed by explicit differences, not by ``scipy.spatial``, so a score that
agrees here agrees with the mathematics rather than with the same library
call.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaln

# Element budget of one (rows x refs x features) difference block.
_BLOCK = 1 << 22

# The martingale module clips p-values into [P_FLOOR, 1].
P_FLOOR = 1e-12


def _row_chunks(n_rows, n_refs, n_features):
    step = max(1, _BLOCK // max(1, n_refs * n_features))
    for start in range(0, n_rows, step):
        yield slice(start, min(n_rows, start + step))


def distances(X, refs):
    """Euclidean distance matrix (len(X), len(refs)) by explicit differences."""
    X = np.asarray(X, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    out = np.empty((X.shape[0], refs.shape[0]))
    for rows in _row_chunks(X.shape[0], refs.shape[0], X.shape[1]):
        diff = X[rows, None, :] - refs[None, :, :]
        out[rows] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def kth_neighbour_distance(X, refs, k):
    """Distance from each row of X to its k-th nearest row of ``refs``."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    for rows in _row_chunks(X.shape[0], len(refs), X.shape[1]):
        d = distances(X[rows], refs)
        out[rows] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return out


def rank_count_p_values(cal_scores, test_scores):
    """Conformal p-values (1 + #{i : S_i >= s}) / (n + 1), counted pairwise."""
    cal = np.asarray(cal_scores, dtype=np.float64)
    test = np.asarray(test_scores, dtype=np.float64)
    n = cal.shape[0]
    ge = np.empty(test.shape[0], dtype=np.int64)
    step = max(1, _BLOCK // max(1, n))
    for start in range(0, test.shape[0], step):
        t = test[start:start + step]
        ge[start:start + step] = (cal[None, :] >= t[:, None]).sum(axis=1)
    return (ge + 1) / (n + 1)


def benjamini_hochberg(p_values, alpha):
    """BH step-up: reject the k* smallest p-values, k* the largest k with
    p_(k) <= k * alpha / m.  Returns 0/1 flags in input order."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.shape[0]
    order = np.argsort(p, kind="stable")
    below = p[order] <= alpha * np.arange(1, m + 1) / m
    flags = np.zeros(m, dtype=np.int64)
    if below.any():
        k_star = int(np.flatnonzero(below)[-1]) + 1
        # ties with p_(k*) sit inside the first k* positions: a tied value
        # after position k* would also pass, contradicting maximality
        flags[order[:k_star]] = 1
    return flags


def loo_knn_scores(train, k):
    """Leave-one-out calibration scores of jackknife+ with a k-NN scorer:
    row i's distance to its k-th nearest neighbour among the other rows."""
    d = distances(train, train)
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def loo_knn_rank_counts(train, test, k, rtol=1e-12):
    """Bounds on the jackknife+ rank counts of each test row.

    Entry i pairs the leave-one-out score R_i with the test row's score
    under the model trained without row i: its k-th nearest distance among
    the other rows, which is the (k+1)-th overall when row i is among its k
    nearest, else the k-th.  Returns ``(gt_low, ge_high)`` with

        gt_low  = #{i : R_i > s_{-i} (1 + rtol)}
        ge_high = #{i : R_i >= s_{-i} (1 - rtol)},

    so a smoothed p-value must lie in (gt_low / (n+1), (ge_high + 1) / (n+1)]
    even where the program's distances differ from these in the last bits.
    """
    R = loo_knn_scores(train, k)
    d = distances(test, train)
    order = np.argsort(d, axis=1, kind="stable")
    sorted_d = np.take_along_axis(d, order, axis=1)
    kth, next_kth = sorted_d[:, k - 1], sorted_d[:, k]
    among_k = np.zeros(d.shape, dtype=bool)
    np.put_along_axis(among_k, order[:, :k], True, axis=1)
    s = np.where(among_k, next_kth[:, None], kth[:, None])
    gt_low = (R[None, :] > s * (1.0 + rtol)).sum(axis=1)
    ge_high = (R[None, :] >= s * (1.0 - rtol)).sum(axis=1)
    return gt_low, ge_high


def _log_series(n, a):
    """log sum_{j>=0} a^j / ((n+2)(n+3)...(n+1+j)), for 0 <= a < n + 1."""
    total = np.ones_like(a)
    term = np.ones_like(a)
    j = 0
    while True:
        j += 1
        term = term * a / (n + 1 + j)
        total = total + term
        if not (term > 1e-17 * total).any():
            return np.log(total)


def log_mixture_martingale(p_values):
    """log M_n of the simple mixture martingale, n = 1..len(p), in closed form.

    M_n = int_0^1 prod_t eps p_t^(eps-1) d eps.  With a = -sum ln p_t,

        log M_n = a + ln Gamma(n+1) + ln P(n+1, a) - (n+1) ln a,

    P the regularised lower incomplete gamma.  Where P underflows (a well
    below n) the same quantity is evaluated as log(series) - ln(n+1) from
    the power series of P, which also covers a = 0 (every p equal to 1).
    """
    p = np.clip(np.asarray(p_values, dtype=np.float64), P_FLOOR, 1.0)
    a = -np.cumsum(np.log(p))
    n = np.arange(1, p.shape[0] + 1, dtype=np.float64)
    out = np.empty_like(a)
    with np.errstate(divide="ignore"):
        P = gammainc(n + 1.0, a)
        direct = (a >= n + 1.0) | (P > 1e-250)
        out[direct] = (a[direct] + gammaln(n[direct] + 1.0) + np.log(P[direct])
                       - (n[direct] + 1.0) * np.log(a[direct]))
    series = ~direct
    if series.any():
        out[series] = _log_series(n[series], a[series]) - np.log(n[series] + 1.0)
    return out
