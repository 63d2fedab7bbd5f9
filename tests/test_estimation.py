import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special, stats

from confanom import estimation
from confanom.core import (DataMatrix, EmptyCalibration, InvalidData,
                           InvalidDelta, InvalidHyperparameter, TableMismatch,
                           make_rng)
from confanom.detectors import wrap_detached
from confanom.estimation import (CONDITIONAL_METHODS, AdjustmentTable, EstimationSpec,
                                 build_adjustment,
                                 conditional_p_value,
                                 conditional_validity_oracle,
                                 conformal_p_values, empirical_p_value,
                                 probabilistic_p_value, silverman_bandwidth)
from confanom.resampling import calibrate_detached
from confanom.resampling import test_score_matrix as score_matrix

from conftest import gaussian_matrix


def identity_calibration(scores):
    """Calibration model whose entries are exactly the given scores."""
    data = DataMatrix(np.asarray(scores, dtype=float).reshape(-1, 1))
    scorer = wrap_detached(lambda X: X[:, 0], "higher_is_anomalous")
    return scorer, calibrate_detached(scorer, data)


class TestEstimationSpec:
    @pytest.mark.parametrize("delta", ["0.5", True, float("nan"), None, 0.0])
    def test_delta_must_be_a_real_number_in_range(self, delta):
        # a delta of "0.5" was once stored as the string
        with pytest.raises(InvalidDelta, match="delta"):
            EstimationSpec(regime="conditional_empirical", method="mc", delta=delta)

    @pytest.mark.parametrize("bandwidth", [float("inf"), float("nan"), "0.5", True, -1.0])
    def test_bandwidth_must_be_a_positive_real_number(self, bandwidth):
        # an infinite bandwidth once fell back to empirical p-values as if
        # the calibration scores were degenerate
        with pytest.raises(InvalidHyperparameter, match="bandwidth"):
            EstimationSpec(regime="probabilistic", bandwidth=bandwidth)

    def test_settings_keep_their_spelling(self):
        assert EstimationSpec(regime="probabilistic", bandwidth=2).bandwidth == 2
        assert EstimationSpec(regime="probabilistic").bandwidth == "silverman"
        assert EstimationSpec(regime="conditional_empirical", method="simes",
                              delta=np.float64(0.1)).delta == 0.1


class TestConformalPValues:
    def test_hand_rank_count(self):
        # entries [1,2,3,4], test 2.5: two entries at least as large,
        # p = (2+1)/5
        p = conformal_p_values([1.0, 2.0, 3.0, 4.0], [2.5])
        assert p.values[0] == pytest.approx(0.6, abs=0)

    def test_extremes(self):
        p = conformal_p_values([1.0, 2.0, 3.0, 4.0], [10.0, -10.0])
        assert p.values[0] == pytest.approx(1 / 5)
        assert p.values[1] == 1.0

    def test_tie_counts_as_greater_equal(self):
        p = conformal_p_values([1.0, 2.0, 3.0], [2.0])
        # entries >= 2.0 are {2, 3}, so p = 3/4
        assert p.values[0] == pytest.approx(3 / 4)

    def test_values_on_grid(self):
        rng = make_rng(1)
        cal = rng.normal(size=99)
        p = conformal_p_values(cal, rng.normal(size=50)).values
        k = np.rint(p * 100)
        np.testing.assert_array_equal(p, k / 100)

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibration):
            conformal_p_values([], [1.0])

    def test_non_finite_scores_fail_closed(self):
        # a NaN test score must not get the floor p-value
        with pytest.raises(InvalidData, match="test score at position 0") as err:
            conformal_p_values([1.0, 2.0, 3.0], [np.nan, 2.5])
        assert err.value.row == 0
        with pytest.raises(InvalidData, match="calibration score at position 2"):
            conformal_p_values([1.0, 2.0, np.inf], [2.5])

    def test_smoothed_requires_seed(self):
        with pytest.raises(InvalidHyperparameter):
            conformal_p_values([1.0, 2.0], [1.5], smoothed=True)

    def test_smoothed_interval(self):
        # with distinct entries and test score, smoothing draws inside
        # (gt/(n+1), (gt+1)/(n+1)]
        cal = np.arange(1.0, 11.0)
        p = conformal_p_values(cal, [5.5], smoothed=True, seed=3).values[0]
        assert 5 / 11 < p <= 6 / 11

    def test_smoothed_strictly_positive(self):
        cal = np.arange(1.0, 11.0)
        p = conformal_p_values(cal, [100.0] * 1000, smoothed=True, seed=4).values
        assert (p > 0.0).all() and (p <= 1 / 11).all()

    def test_smoothed_deterministic_in_seed(self):
        cal = np.arange(20.0)
        a = conformal_p_values(cal, [3.3, 7.7], smoothed=True, seed=9).values
        b = conformal_p_values(cal, [3.3, 7.7], smoothed=True, seed=9).values
        np.testing.assert_array_equal(a, b)

    def test_smoothed_exactly_uniform(self):
        # under continuous exchangeable scores the smoothed p-value is
        # Uniform(0, 1]; check with a KS test across independent trials
        rng = make_rng(11)
        ps = []
        for trial in range(2000):
            pool = rng.normal(size=21)
            ps.append(conformal_p_values(pool[:20], pool[20:],
                                         smoothed=True, seed=trial).values[0])
        assert stats.kstest(ps, "uniform").pvalue > 0.01

    def test_super_uniform_quick(self):
        rng = make_rng(12)
        hits = 0
        trials = 3000
        for trial in range(trials):
            pool = rng.normal(size=51)
            p = conformal_p_values(pool[:50], pool[50:]).values[0]
            hits += p <= 0.1
        assert hits / trials <= 0.1 + 3 * np.sqrt(0.1 * 0.9 / trials)


class TestEmpiricalPValue:
    def test_matches_core_primitive_for_split(self):
        scores = make_rng(2).normal(size=30)
        scorer, cm = identity_calibration(scores)
        test = gaussian_matrix(3, 10, d=1)
        ts = score_matrix(cm, test)
        got = empirical_p_value(cm, ts).values
        want = conformal_p_values(scores, test.values[:, 0]).values
        np.testing.assert_array_equal(got, want)


class TestAdjustmentTable:
    def test_must_dominate_grid(self):
        with pytest.raises(InvalidHyperparameter):
            AdjustmentTable(n=2, delta=0.1, method="asymptotic",
                            adjusted=np.array([0.1, 0.5, 1.0]))

    def test_must_be_monotone(self):
        with pytest.raises(InvalidHyperparameter):
            AdjustmentTable(n=2, delta=0.1, method="asymptotic",
                            adjusted=np.array([0.9, 0.8, 1.0]))

    def test_last_must_be_one(self):
        with pytest.raises(InvalidHyperparameter):
            AdjustmentTable(n=2, delta=0.1, method="asymptotic",
                            adjusted=np.array([0.5, 0.9, 0.99]))


class TestBuildAdjustment:
    def test_asymptotic_is_dkw(self):
        n, delta = 50, 0.1
        table = build_adjustment(n, delta, "asymptotic")
        r = np.arange(1, n + 1)
        dkw = r / n + np.sqrt(np.log(1 / delta) / (2 * n))
        expected = np.maximum.accumulate(
            np.minimum(np.maximum(dkw, r / (n + 1)), 1.0))
        np.testing.assert_allclose(table.adjusted[:n], expected, rtol=1e-12)
        assert table.adjusted[n] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 41, 1000])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
    def test_simes_band_matches_mpmath(self, n, delta):
        # b_{n+1-i} = 1 - (delta prod_{l<k} (i - l) / (n - l))^(1/k) for
        # i >= k = max(1, n // 2), and 1 below, evaluated at 50 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        k = max(1, n // 2)
        expected, product = np.ones(n), mpmath.mpf(1)  # the product at i = n
        for i in range(n, k - 1, -1):
            expected[n - i] = float(1 - (mpmath.mpf(delta) * product) ** (mpmath.mpf(1) / k))
            product *= mpmath.mpf(i - k) / i
        np.testing.assert_allclose(estimation._band_simes(n, delta), expected, rtol=1e-11)
        r = np.arange(1, n + 1)
        np.testing.assert_allclose(
            build_adjustment(n, delta, "simes").adjusted[:n],
            np.maximum.accumulate(np.minimum(np.maximum(expected, r / (n + 1)), 1.0)),
            rtol=1e-11)

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
    def test_simes_band_valid(self, n, delta):
        # the joint failure rate over fresh calibrations stays within three
        # standard errors of delta
        reps = 4000
        rate = conditional_validity_oracle(build_adjustment(n, delta, "simes"), n_reps=reps,
                                           seed=n)
        assert rate <= delta + 3 * np.sqrt(delta * (1 - delta) / reps)

    def test_simes_table_needs_no_scipy(self):
        code = ("import sys; from confanom.estimation import build_adjustment; "
                "build_adjustment(500, 0.1, 'simes'); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(estimation.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_mc_deterministic_in_seed(self):
        a = build_adjustment(50, 0.1, "mc", seed=7)
        b = build_adjustment(50, 0.1, "mc", seed=7)
        c = build_adjustment(50, 0.1, "mc", seed=8)
        np.testing.assert_array_equal(a.adjusted, b.adjusted)
        assert not np.array_equal(a.adjusted, c.adjusted)

    def test_mc_requires_seed(self):
        with pytest.raises(InvalidHyperparameter):
            build_adjustment(50, 0.1, "mc")

    def test_all_methods_dominate_marginal(self):
        for method in ("asymptotic", "simes", "mc"):
            table = build_adjustment(100, 0.1, method, seed=1)
            r = np.arange(1, 102)
            assert (table.adjusted >= r / 101 - 1e-12).all()

    @pytest.mark.parametrize("n", [2.7, "3", True])
    def test_count_refuses_non_integers(self, n):
        # 2.7 once built a table for 2
        with pytest.raises(InvalidHyperparameter, match="n must be an integer"):
            build_adjustment(n, 0.1, "asymptotic")

    @pytest.mark.parametrize("n_reps", [0, -1, 2.5])
    def test_oracle_refuses_bad_repetition_counts(self, n_reps):
        with pytest.raises(InvalidHyperparameter, match="n_reps"):
            conditional_validity_oracle(build_adjustment(10, 0.1, "asymptotic"), n_reps=n_reps)

    def test_delta_validated(self):
        for delta in (0.0, 1.0, "0.1", float("nan"), True):
            with pytest.raises(InvalidDelta):
                build_adjustment(10, delta, "asymptotic")

    def test_unknown_method(self):
        with pytest.raises(InvalidHyperparameter):
            build_adjustment(10, 0.1, "bonferroni")

    def test_validity_oracle_within_budget(self):
        # joint violation frequency over fresh uniform calibrations must
        # stay near or below delta for every method
        delta, reps = 0.1, 2000
        slack = 3 * np.sqrt(delta * (1 - delta) / reps)
        for method in ("asymptotic", "simes", "mc"):
            table = build_adjustment(100, delta, method, seed=5)
            rate = conditional_validity_oracle(table, n_reps=reps, seed=17)
            assert rate <= delta + slack, (method, rate)


class TestConditionalPValue:
    def test_dominates_marginal(self):
        scores = make_rng(4).normal(size=60)
        scorer, cm = identity_calibration(scores)
        test = gaussian_matrix(5, 25, d=1)
        ts = score_matrix(cm, test)
        table = build_adjustment(60, 0.1, "simes")
        cond = conditional_p_value(cm, ts, table).values
        marg = empirical_p_value(cm, ts).values
        assert (cond >= marg - 1e-12).all()

    def test_table_size_checked(self):
        scores = make_rng(6).normal(size=30)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, gaussian_matrix(7, 5, d=1))
        with pytest.raises(TableMismatch):
            conditional_p_value(cm, ts, build_adjustment(29, 0.1, "asymptotic"))

    def test_estimation_tag(self):
        scores = make_rng(8).normal(size=30)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, gaussian_matrix(9, 5, d=1))
        p = conditional_p_value(cm, ts, build_adjustment(30, 0.1, "asymptotic"))
        assert p.estimation == "conditional_empirical"


class TestSilverman:
    def test_reference_rule(self):
        s = make_rng(10).normal(size=400)
        sd = np.std(s, ddof=1)
        iqr = np.subtract(*np.percentile(s, [75, 25]))
        expected = 0.9 * min(sd, iqr / 1.34) * 400 ** (-0.2)
        assert silverman_bandwidth(s) == pytest.approx(expected, rel=1e-12)


class TestProbabilistic:
    def test_matches_quadrature(self):
        # independent oracle: numerically integrate the Gaussian KDE density
        # above the test score and compare the tail masses
        scores = make_rng(11).normal(size=80)
        scorer, cm = identity_calibration(scores)
        s0 = float(np.median(scores))
        test = np.array([[s0]])
        ts = score_matrix(cm, DataMatrix(test))
        h = silverman_bandwidth(scores)

        def density(x):
            return np.mean(stats.norm.pdf((x - scores) / h)) / h

        tail, _ = integrate.quad(density, s0, np.inf, limit=200)
        got = probabilistic_p_value(cm, ts).values[0]
        assert got == pytest.approx(tail, abs=1e-6)

    def test_explicit_bandwidth(self):
        scores = np.array([0.0, 1.0, 2.0, 3.0])
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, DataMatrix(np.array([[1.5]])))
        got = probabilistic_p_value(cm, ts, bandwidth=0.5).values[0]
        expected = np.mean(stats.norm.sf((1.5 - scores) / 0.5))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_not_conformal(self):
        scores = make_rng(12).normal(size=20)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, gaussian_matrix(13, 4, d=1))
        assert not probabilistic_p_value(cm, ts).conformal
        assert empirical_p_value(cm, ts).conformal

    def test_can_undershoot_conformal_floor(self):
        # continuous tail mass is not clamped to 1/(n+1)
        scores = make_rng(14).normal(size=20)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, DataMatrix(np.array([[50.0]])))
        p = probabilistic_p_value(cm, ts).values[0]
        assert 0.0 < p < 1 / 21

    def test_degenerate_scores_fall_back(self):
        scores = np.ones(10)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, DataMatrix(np.array([[1.0], [2.0]])))
        p = probabilistic_p_value(cm, ts)
        assert p.estimation == "empirical" and p.conformal
        assert p.notes and "degenerate" in p.notes[0]
        np.testing.assert_array_equal(p.values, [11 / 11, 1 / 11])

    def test_rejects_bad_bandwidth(self):
        scores = make_rng(15).normal(size=10)
        scorer, cm = identity_calibration(scores)
        ts = score_matrix(cm, gaussian_matrix(16, 2, d=1))
        for bandwidth in (-1.0, float("inf"), "0.5"):
            with pytest.raises(InvalidHyperparameter, match="bandwidth"):
                probabilistic_p_value(cm, ts, bandwidth=bandwidth)


@settings(max_examples=40)
@given(st.integers(1, 200), st.floats(1e-3, 0.999), st.sampled_from(CONDITIONAL_METHODS),
       st.integers(0, 2**32 - 1))
def test_adjusted_p_values_never_below_marginal(n, delta, method, seed):
    with mock.patch.object(estimation, "_MC_DRAWS", 200):
        table = build_adjustment(n, delta, method, seed=seed)
    ranks = np.arange(1, n + 2)
    assert (table.adjusted >= ranks / (n + 1)).all()
    # through the rank map too, on tied calibration and test scores
    rng = np.random.default_rng(seed)
    _, cm = identity_calibration(rng.integers(0, 4, size=n).astype(float))
    ts = score_matrix(cm, DataMatrix(rng.integers(-1, 5, size=(30, 1)).astype(float)))
    marginal = empirical_p_value(cm, ts).values
    assert (conditional_p_value(cm, ts, table).values >= marginal).all()


@settings(max_examples=60)
@given(n=st.integers(1, 120), draws=st.integers(1, 400), chunk=st.integers(1, 150),
       delta=st.floats(1e-4, 0.999), seed=st.integers(0, 2**32 - 1))
@example(n=50, draws=300, chunk=40, delta=1e-3, seed=3)  # floor(delta * draws) = 0
@example(n=200, draws=2000, chunk=500, delta=0.1, seed=5)
def test_band_mc_bit_identical_to_full_computation(n, draws, chunk, delta, seed):
    # the reference evaluates the Beta survival on every cell of the draws;
    # small chunks make small pilots, whose brackets miss and widen
    with mock.patch.object(estimation, "_MC_DRAWS", draws), \
            mock.patch.object(estimation, "_MC_CHUNK", chunk):
        band = estimation._band_mc(n, delta, seed)
    r = np.arange(1, n + 1)
    u = np.sort(make_rng(seed).random((draws, n)), axis=1)
    mins = np.sort(special.betainc(n - r + 1, r, 1.0 - u).min(axis=1))
    reference = special.betainccinv(r, n - r + 1, mins[int(np.floor(delta * draws))])
    assert band.tobytes() == reference.tobytes()


@given(st.lists(st.integers(0, 3), min_size=2, max_size=80))
def test_p_values_super_uniform_on_grid_under_ties(scores):
    # exchangeability: given the multiset of the n + 1 scores, the test
    # point is each of them with probability 1 / (n + 1), so the exact law
    # of its p-value is the spread of the leave-one-out p-values
    s = np.asarray(scores, dtype=float)
    size = s.shape[0]
    p = np.array([conformal_p_values(np.delete(s, j), s[j:j + 1]).values[0]
                  for j in range(size)])
    grid = p * size
    np.testing.assert_allclose(grid, np.round(grid), rtol=0, atol=1e-9)
    for k in range(1, size + 1):
        assert np.count_nonzero(np.round(grid) <= k) <= k
