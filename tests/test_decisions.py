import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from confanom.core import (EmptyInput, InvalidAlpha, InvalidData, InvalidLabel,
                           NoAnomalies, PValueVector, ShapeMismatch, make_rng)
from confanom.decisions import (WEIGHTED_BH_CAVEAT, benjamini_hochberg,
                                false_discovery_rate, fixed_threshold,
                                statistical_power)


def weighted(p, kind="logistic"):
    """p-values tagged as weighted, as the weighted pipeline produces them."""
    return PValueVector(np.asarray(p, dtype=float), estimation="empirical",
                        smoothed=False, calibration_size=10, weighting=kind)


def bh_bruteforce(p, alpha):
    """Literal step-up rule, quadratic and independent of the implementation."""
    p = np.asarray(p, dtype=float)
    m = p.shape[0]
    order = np.sort(p)
    k_star = 0
    for k in range(1, m + 1):
        if order[k - 1] <= k * alpha / m:
            k_star = k
    if k_star == 0:
        return np.zeros(m, dtype=int), 0.0
    thr = order[k_star - 1]
    return (p <= thr).astype(int), thr


class TestBenjaminiHochberg:
    def test_hand_example(self):
        # thresholds at alpha=0.1, m=4: 0.025, 0.05, 0.075, 0.1
        d = benjamini_hochberg(np.array([0.01, 0.02, 0.2, 0.6]), alpha=0.1)
        assert d.flags.tolist() == [1, 1, 0, 0]
        assert d.rejection_threshold == pytest.approx(0.02)
        assert d.procedure == "bh"

    def test_step_up_not_step_down(self):
        # p_(1) fails its own threshold but p_(2) passes; step-up flags both
        d = benjamini_hochberg(np.array([0.06, 0.1]), alpha=0.2)
        assert d.flags.tolist() == [1, 1]

    def test_no_discoveries(self):
        d = benjamini_hochberg(np.array([0.5, 0.9]), alpha=0.1)
        assert d.n_flagged == 0
        assert d.rejection_threshold == 0.0

    def test_ties_share_fate(self):
        p = np.array([0.02, 0.02, 0.02, 0.9])
        d = benjamini_hochberg(p, alpha=0.1)
        assert d.flags[:3].tolist() in ([1, 1, 1], [0, 0, 0])
        assert d.flags[:3].sum() in (0, 3)

    def test_matches_bruteforce_random(self):
        rng = make_rng(1)
        for trial in range(300):
            m = int(rng.integers(1, 40))
            p = rng.random(m) ** 2
            alpha = float(rng.uniform(0.01, 0.4))
            d = benjamini_hochberg(p, alpha)
            flags, thr = bh_bruteforce(p, alpha)
            np.testing.assert_array_equal(d.flags, flags, err_msg=f"trial {trial}")
            assert d.rejection_threshold == pytest.approx(thr)

    def test_matches_scipy_adjusted(self):
        rng = make_rng(2)
        for _ in range(50):
            p = rng.random(30)
            alpha = 0.1
            d = benjamini_hochberg(p, alpha)
            adjusted = stats.false_discovery_control(p, method="bh")
            np.testing.assert_array_equal(d.flags, (adjusted <= alpha).astype(int))

    def test_accepts_pvalue_vector(self):
        pv = PValueVector(np.array([1 / 11, 10 / 11]), estimation="empirical",
                          smoothed=False, calibration_size=10)
        d = benjamini_hochberg(pv, alpha=0.2)
        assert d.flags.tolist() == [1, 0]

    def test_alpha_validated(self):
        with pytest.raises(InvalidAlpha):
            benjamini_hochberg(np.array([0.5]), alpha=0.0)
        with pytest.raises(InvalidAlpha):
            benjamini_hochberg(np.array([0.5]), alpha=1.0)

    @pytest.mark.parametrize("alpha", ["abc", None, [0.1], float("nan"), "0.5", True])
    @pytest.mark.parametrize("procedure", [benjamini_hochberg, fixed_threshold])
    def test_malformed_alpha_refused(self, procedure, alpha):
        with pytest.raises(InvalidAlpha):
            procedure(np.array([0.01, 0.5]), alpha)

    def test_empty_refused(self):
        with pytest.raises(EmptyInput):
            benjamini_hochberg(np.array([]), alpha=0.1)

    def test_nan_refused_not_counted(self):
        # a NaN would count in m without ever being rejected
        with pytest.raises(InvalidData, match="p-value at position 0") as err:
            benjamini_hochberg([np.nan, 0.01, 0.5], 0.1)
        assert err.value.row == 0
        with pytest.raises(InvalidData, match="position 1"):
            benjamini_hochberg([0.01, np.inf], 0.1)

    @pytest.mark.parametrize("procedure, pvals, position", [
        (benjamini_hochberg, [0.01, 2.0], 1),
        (fixed_threshold, [-3.0, 7.0], 0),
        (benjamini_hochberg, [-1.0, 0.5], 0),
    ])
    def test_out_of_range_refused(self, procedure, pvals, position):
        with pytest.raises(InvalidData, match=f"p-value at position {position}") as err:
            procedure(pvals, 0.1)
        assert err.value.row == position

    def test_fdr_controlled_under_null(self):
        # all-null uniform p-values: expected FDR is at most alpha
        rng = make_rng(3)
        alpha, trials = 0.1, 2000
        total = 0.0
        for _ in range(trials):
            p = rng.random(50)
            d = benjamini_hochberg(p, alpha)
            total += d.n_flagged > 0  # every rejection is false here
        assert total / trials <= alpha + 3 * np.sqrt(alpha * (1 - alpha) / trials)


class TestFixedThreshold:
    def test_flags_at_or_below_alpha(self):
        d = fixed_threshold(np.array([0.05, 0.1, 0.11]), alpha=0.1)
        assert d.flags.tolist() == [1, 1, 0]
        assert d.rejection_threshold == 0.1
        assert d.procedure == "fixed_threshold"


class TestWeightedControl:
    # benjamini_hochberg tags p-values whose weighting is set, unit weights aside
    def test_same_rule_as_bh(self):
        d = benjamini_hochberg(weighted([0.01, 0.5]), alpha=0.1)
        assert d.flags.tolist() == [1, 0]
        assert d.procedure == "weighted_bh"

    def test_carries_caveat_note(self):
        for kind in ("logistic", "oracle"):
            d = benjamini_hochberg(weighted([0.01], kind), alpha=0.1)
            assert d.procedure == "weighted_bh" and d.notes == (WEIGHTED_BH_CAVEAT,)
        # unit weights give the plain conformal p-values, which BH covers
        uniform = benjamini_hochberg(weighted([0.01], "uniform"), alpha=0.1)
        assert uniform.procedure == "bh" and uniform.notes == ()
        plain = benjamini_hochberg(PValueVector(np.array([0.01]), estimation="empirical",
                                                smoothed=True, calibration_size=10), 0.1)
        assert plain.procedure == "bh" and plain.notes == ()

    def test_unit_weight_equivalence(self):
        rng = make_rng(4)
        p = rng.random(40)
        a = benjamini_hochberg(p, 0.15)
        b = benjamini_hochberg(weighted(p, "uniform"), 0.15)
        np.testing.assert_array_equal(a.flags, b.flags)
        assert a.rejection_threshold == b.rejection_threshold


class TestMetrics:
    def test_fdr_definition(self):
        labels = np.array([0, 0, 1, 1])
        flags = np.array([1, 0, 1, 0])
        assert false_discovery_rate(labels, flags) == pytest.approx(0.5)

    def test_fdr_zero_discoveries_is_zero(self):
        assert false_discovery_rate(np.array([0, 1]), np.array([0, 0])) == 0.0

    def test_power_definition(self):
        labels = np.array([0, 1, 1, 1, 1])
        flags = np.array([1, 1, 1, 0, 0])
        assert statistical_power(labels, flags) == pytest.approx(0.5)

    def test_power_needs_anomalies(self):
        with pytest.raises(NoAnomalies):
            statistical_power(np.array([0, 0]), np.array([0, 1]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            false_discovery_rate(np.array([0, 1]), np.array([1]))

    def test_accepts_decision_set(self):
        d = benjamini_hochberg(np.array([0.001, 0.9]), alpha=0.1)
        assert false_discovery_rate(np.array([1, 0]), d) == 0.0
        assert statistical_power(np.array([1, 0]), d) == 1.0

    def test_flag_outside_binary_refused(self):
        # a flag of 5 on the inlier must not read as no discovery
        with pytest.raises(InvalidLabel, match="flag at position 0"):
            false_discovery_rate([0, 1], [5, 0])

    @pytest.mark.parametrize("label", [2, 0.5, np.nan])
    @pytest.mark.parametrize("metric", [false_discovery_rate, statistical_power])
    def test_label_outside_binary_refused(self, metric, label):
        with pytest.raises(InvalidLabel, match="label at position 1"):
            metric(np.array([1, label, 0]), np.array([1, 0, 0]))


@given(st.lists(st.one_of(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.5, 1.0]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=60),
       st.floats(1e-4, 0.999), st.floats(1e-4, 0.999))
def test_bh_flags_monotone_in_alpha(p, a, b):
    # a larger level never unflags a point: flags at alpha are a subset of
    # the flags at any alpha' > alpha, ties among the p-values included
    lo, hi = sorted((a, b))
    flags_lo = benjamini_hochberg(p, lo).flags.astype(bool)
    flags_hi = benjamini_hochberg(p, hi).flags.astype(bool)
    assert not (flags_lo & ~flags_hi).any()

