"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest bench -q``.  The closed-form mixture is
checked against ``mpmath`` quadrature of its defining integral.
"""

import itertools
import math

import numpy as np
import pytest

import reference


def _loop_distance(x, r):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, r)))


def test_kth_neighbour_distance_matches_a_loop():
    rng = np.random.default_rng(0)
    X, refs = rng.normal(size=(7, 3)), rng.normal(size=(11, 3))
    got = reference.kth_neighbour_distance(X, refs, 4)
    for i, x in enumerate(X):
        want = sorted(_loop_distance(x, r) for r in refs)[3]
        assert got[i] == pytest.approx(want, rel=1e-14)


def test_distances_are_chunked_without_changing_values():
    rng = np.random.default_rng(1)
    X, refs = rng.normal(size=(300, 4)), rng.normal(size=(50, 4))
    whole = reference.distances(X, refs)
    old = reference._BLOCK
    reference._BLOCK = 64
    try:
        chunked = reference.distances(X, refs)
    finally:
        reference._BLOCK = old
    np.testing.assert_array_equal(whole, chunked)


def test_rank_count_p_values_count_ties_and_sit_on_the_grid():
    cal = np.array([0.1, 0.5, 0.5, 0.9])
    test = np.array([0.5, 0.95, 0.0, 0.9])
    p = reference.rank_count_p_values(cal, test)
    # ties count as "at least as large"
    np.testing.assert_array_equal(p, [(1 + 3) / 5, 1 / 5, 5 / 5, 2 / 5])
    rng = np.random.default_rng(2)
    p = reference.rank_count_p_values(rng.random(30), rng.random(200))
    grid = p * 31
    np.testing.assert_array_equal(grid, np.round(grid))
    assert p.min() >= 1 / 31 and p.max() <= 1.0


def _bh_by_definition(p, alpha):
    m = len(p)
    k_star = 0
    for k in range(1, m + 1):
        if sum(q <= k * alpha / m for q in p) >= k:
            k_star = k
    if k_star == 0:
        return [0] * m
    threshold = sorted(p)[k_star - 1]
    return [int(q <= threshold) for q in p]


@pytest.mark.parametrize("seed", range(20))
def test_bh_matches_the_definition_with_ties(seed):
    rng = np.random.default_rng(seed)
    # a coarse grid forces ties, as conformal p-values have
    p = np.ceil(rng.random(40) ** 3 * 21) / 21
    for alpha in (0.05, 0.1, 0.3):
        assert list(reference.benjamini_hochberg(p, alpha)) == \
            _bh_by_definition(list(p), alpha)


def test_bh_rejects_nothing_when_no_p_value_passes():
    assert reference.benjamini_hochberg(np.array([0.5, 0.9]), 0.1).sum() == 0


def test_loo_rank_counts_match_refitting_without_each_row():
    rng = np.random.default_rng(3)
    train, test = rng.normal(size=(25, 2)), rng.normal(size=(9, 2))
    k = 3
    R = reference.loo_knn_scores(train, k)
    gt, ge = reference.loo_knn_rank_counts(train, test, k, rtol=0.0)
    for j, x in enumerate(test):
        want_gt = want_ge = 0
        for i in range(len(train)):
            others = np.delete(train, i, axis=0)
            r_i = sorted(_loop_distance(train[i], o) for o in others)[k - 1]
            assert R[i] == pytest.approx(r_i, rel=1e-14)
            s = sorted(_loop_distance(x, o) for o in others)[k - 1]
            want_gt += r_i > s
            want_ge += r_i >= s
        assert (gt[j], ge[j]) == (want_gt, want_ge)


def _mp_log_mixture(n, a):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    n, a = mpmath.mpf(n), mpmath.mpf(a)

    def f(eps):
        return mpmath.exp(n * mpmath.log(eps) + a * (1 - eps)) if eps > 0 else 0

    # split at the integrand's peak and a few widths either side
    peak = min(mpmath.mpf(1), n / a) if a > 0 else mpmath.mpf(1)
    width = mpmath.sqrt(n) / max(a, n)
    pts = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {
        peak + c * width for c in (-40, -10, -3, 0, 3, 10)
        if 0 < peak + c * width < 1})
    return float(mpmath.log(mpmath.quad(f, pts)))


def _p_stream(n, a):
    # n equal p-values with -sum log p = a
    return np.full(n, math.exp(-a / n))


@pytest.mark.parametrize("n, a", list(itertools.product(
    (1, 2, 10, 1000, 20000, 200000),
    (0.0, 0.3, 0.7, 1.0, 1.3, 3.0))))
def test_mixture_closed_form_matches_quadrature(n, a):
    # a is given per step: the stream's -sum log p is a * n
    got = reference.log_mixture_martingale(_p_stream(n, a * n))[-1]
    want = _mp_log_mixture(n, a * n)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_mixture_of_all_floor_p_values_matches_quadrature():
    n = 5000
    got = reference.log_mixture_martingale(np.full(n, reference.P_FLOOR))[-1]
    want = _mp_log_mixture(n, -n * math.log(reference.P_FLOOR))
    assert got == pytest.approx(want, rel=1e-10)


def test_mixture_is_one_over_n_plus_one_when_every_p_is_one():
    got = reference.log_mixture_martingale(np.ones(100))
    np.testing.assert_allclose(got, -np.log(np.arange(2, 102)), rtol=1e-15)


def test_mixture_prefixes_match_a_recomputation_of_each_prefix():
    rng = np.random.default_rng(4)
    p = 1.0 - rng.random(300)
    p[150:] **= 4
    path = reference.log_mixture_martingale(p)
    for n in (1, 7, 149, 150, 151, 300):
        assert path[n - 1] == reference.log_mixture_martingale(p[:n])[-1]
        a = -np.log(p[:n]).sum()
        assert path[n - 1] == pytest.approx(_mp_log_mixture(n, a), rel=1e-10, abs=1e-10)
