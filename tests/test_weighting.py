import os
import subprocess
import sys

import numpy as np
import pytest

from confanom import weighting

from confanom.core import (DimensionMismatch, EmptyCalibration, EmptyInput,
                           InvalidData, InvalidHyperparameter, ShapeMismatch,
                           make_rng)
from confanom.estimation import conformal_p_values
from confanom.weighting import (WeightModel, fit_weight_estimator,
                                weighted_p_values, weights)


class TestWeightedPValue:
    def test_hand_example(self):
        # scores [1,2,3], weights [2,1,1], test 2.5 with self-weight 1:
        # numerator 1 + 1 (the score-3 entry plus the test point),
        # denominator 4 + 1
        p = weighted_p_values([1, 2, 3], [2, 1, 1], [2.5], [1.0])
        assert p.shape == (1,) and p[0] == pytest.approx(0.4)

    def test_tie_in_numerator(self):
        # entries >= are {2, 3} with weights 1 + 1
        p = weighted_p_values([1, 2, 3], [2, 1, 1], [2.0], [1.0])
        assert p.shape == (1,) and p[0] == pytest.approx(0.6)

    def test_unit_weights_reduce_to_empirical(self):
        rng = make_rng(1)
        cal = rng.normal(size=150)
        test = rng.normal(size=60)
        got = weighted_p_values(cal, np.ones(150), test, np.ones(60))
        want = conformal_p_values(cal, test).values
        np.testing.assert_array_equal(got, want)

    def test_never_exceeds_one(self):
        # adversarial weights: the suffix-sum numerator and the total must
        # come from the same accumulation or the ratio can exceed 1 by an ulp
        rng = make_rng(2)
        for trial in range(20):
            cal = rng.normal(size=500)
            w = rng.lognormal(mean=0.0, sigma=2.0, size=500)
            t = np.full(5, cal.min() - 1.0)
            p = weighted_p_values(cal, w, t, rng.lognormal(size=5))
            assert (p <= 1.0).all()
            assert (p > 0.0).all()

    def test_scalar_test_weight_broadcast(self):
        p = weighted_p_values([1.0, 2.0], [1.0, 1.0], [0.0, 3.0], 1.0)
        np.testing.assert_allclose(p, [1.0, 1 / 3])

    def test_positive_weights_required(self):
        with pytest.raises(InvalidHyperparameter):
            weighted_p_values([1.0], [0.0], [1.0], 1.0)
        with pytest.raises(InvalidHyperparameter):
            weighted_p_values([1.0], [1.0], [1.0], -1.0)

    @pytest.mark.parametrize("where, args", [
        ("calibration score at position 1", ([1.0, np.nan], [1.0, 1.0], [1.5], 1.0)),
        ("calibration weight at position 0", ([1.0, 2.0], [np.nan, 1.0], [1.5], 1.0)),
        ("test score at position 1", ([1.0, 2.0], [1.0, 1.0], [1.5, np.nan], 1.0)),
        ("test weight at position 0", ([1.0, 2.0], [1.0, 1.0], [1.5], np.inf)),
    ])
    def test_non_finite_inputs_fail_closed(self, where, args):
        with pytest.raises(InvalidData, match=where):
            weighted_p_values(*args)

    def test_shape_guards(self):
        with pytest.raises(ShapeMismatch):
            weighted_p_values([1.0, 2.0], [1.0], [1.0], 1.0)
        with pytest.raises(EmptyCalibration):
            weighted_p_values([], [], [1.0], 1.0)

    def test_heavier_calibration_tail_raises_p(self):
        # upweighting large calibration scores makes the same test score
        # less surprising
        cal = np.arange(10.0)
        t = [7.5]
        uniform = weighted_p_values(cal, np.ones(10), t, 1.0)[0]
        tilted_w = np.where(cal >= 8.0, 5.0, 1.0)
        tilted = weighted_p_values(cal, tilted_w, t, 1.0)[0]
        assert tilted > uniform


class TestFitWeightEstimator:
    def test_uniform_is_all_ones(self):
        rng = make_rng(3)
        cal, test = rng.normal(size=(50, 3)), rng.normal(size=(40, 3))
        model = fit_weight_estimator(cal, test, kind="uniform")
        np.testing.assert_array_equal(weights(model, cal), np.ones(50))

    def test_logistic_detects_shift_direction(self):
        # test batch shifted along the first coordinate: shifted region gets
        # larger weights on the calibration side
        rng = make_rng(4)
        cal = rng.normal(size=(400, 2))
        test = rng.normal(size=(400, 2)) + np.array([2.0, 0.0])
        model = fit_weight_estimator(cal, test, kind="logistic")
        w = weights(model, cal)
        upper = w[cal[:, 0] > 1.0].mean()
        lower = w[cal[:, 0] < -1.0].mean()
        assert upper > lower * 2

    def test_logistic_no_shift_weights_near_one(self):
        rng = make_rng(5)
        cal = rng.normal(size=(500, 3))
        test = rng.normal(size=(500, 3))
        model = fit_weight_estimator(cal, test, kind="logistic")
        w = weights(model, cal)
        assert 0.5 < w.mean() < 2.0

    def test_logistic_deterministic(self):
        rng = make_rng(6)
        cal = rng.normal(size=(100, 2))
        test = rng.normal(size=(100, 2)) + 0.5
        a = fit_weight_estimator(cal, test, kind="logistic")
        b = fit_weight_estimator(cal, test, kind="logistic")
        np.testing.assert_array_equal(a.coef, b.coef)
        assert a.intercept == b.intercept

    def test_cap_applies_to_later_evaluations(self):
        rng = make_rng(7)
        cal = rng.normal(size=(200, 1))
        test = rng.normal(size=(200, 1)) + 3.0
        model = fit_weight_estimator(cal, test, kind="logistic", cap_factor=2.0)
        extreme = np.array([[10.0]])
        assert weights(model, extreme)[0] <= model.cap_value
        uncapped = fit_weight_estimator(cal, test, kind="logistic", cap_factor=None)
        assert weights(uncapped, extreme)[0] > weights(model, extreme)[0]

    def test_cap_value_frozen_at_fit(self):
        rng = make_rng(8)
        cal = rng.normal(size=(100, 1))
        test = rng.normal(size=(100, 1)) + 1.0
        model = fit_weight_estimator(cal, test, kind="logistic", cap_factor=20.0)
        raw_med = np.median(weights(
            fit_weight_estimator(cal, test, kind="logistic", cap_factor=None), cal))
        assert model.cap_value == pytest.approx(20.0 * raw_med, rel=1e-9)

    def test_cap_without_numpy_ma(self):
        # np.median imports numpy.ma on first use; the cap takes the same
        # median, bit for bit, without it
        src = os.path.dirname(os.path.dirname(weighting.__file__))
        script = (
            "import sys, numpy as np\n"
            "from confanom.weighting import fit_weight_estimator, weights\n"
            "rng = np.random.default_rng(12)\n"
            "fits = []\n"
            "for n_cal in (100, 101):\n"
            "    cal, test = rng.normal(size=(n_cal, 2)), rng.normal(size=(80, 2)) + 0.5\n"
            "    fits.append((cal, test, fit_weight_estimator(cal, test, kind='logistic')))\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "for cal, test, model in fits:\n"
            "    raw = weights(fit_weight_estimator(cal, test, kind='logistic',\n"
            "                                       cap_factor=None), cal)\n"
            "    assert model.cap_value == float(20.0 * np.median(raw))\n"
            "print('ok')\n")
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_oracle_requires_callable(self):
        rng = make_rng(9)
        cal, test = rng.normal(size=(10, 1)), rng.normal(size=(10, 1))
        with pytest.raises(InvalidHyperparameter):
            fit_weight_estimator(cal, test, kind="oracle")

    def test_oracle_evaluates_supplied_ratio(self):
        rng = make_rng(10)
        cal, test = rng.normal(size=(50, 1)), rng.normal(size=(50, 1))
        model = fit_weight_estimator(cal, test, kind="oracle",
                                     ratio_function=lambda X: np.exp(X[:, 0]),
                                     cap_factor=None)
        np.testing.assert_allclose(weights(model, cal), np.exp(cal[:, 0]))

    def test_unknown_kind(self):
        rng = make_rng(11)
        with pytest.raises(InvalidHyperparameter):
            fit_weight_estimator(rng.normal(size=(5, 1)),
                                 rng.normal(size=(5, 1)), kind="forest")

    def test_empty_refused(self):
        rng = make_rng(12)
        with pytest.raises(EmptyInput):
            fit_weight_estimator(np.empty((0, 2)), rng.normal(size=(5, 2)))

    def test_non_finite_covariate_names_its_position(self):
        # one NaN once reached the logistic fit and raised numpy's LinAlgError
        rng = make_rng(12)
        cal, test = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        test[7, 2] = np.nan
        with pytest.raises(InvalidData, match="row 7, column 2") as err:
            fit_weight_estimator(cal, test)
        assert (err.value.row, err.value.col) == (7, 2)
        model = fit_weight_estimator(cal, cal)
        with pytest.raises(InvalidData, match="row 7, column 2"):
            weights(model, test)

    def test_oracle_ratios_checked(self):
        rng = make_rng(12)
        cal = rng.normal(size=(20, 1))
        with pytest.raises(InvalidData, match="non-finite oracle ratio at position 3"):
            fit_weight_estimator(cal, cal, kind="oracle",
                                 ratio_function=lambda X: np.where(np.arange(20) == 3, np.inf, 1.0))
        with pytest.raises(InvalidHyperparameter, match="strictly positive"):
            fit_weight_estimator(cal, cal, kind="oracle", ratio_function=lambda X: np.zeros(20))

    def test_cap_factor_must_be_a_positive_real_number(self):
        rng = make_rng(12)
        cal = rng.normal(size=(20, 3))
        for cap in (0.0, "20", True, float("inf"), float("nan")):
            with pytest.raises(InvalidHyperparameter, match="cap_factor"):
                fit_weight_estimator(cal, cal, cap_factor=cap)

    def test_width_mismatch(self):
        rng = make_rng(13)
        with pytest.raises(DimensionMismatch):
            fit_weight_estimator(rng.normal(size=(5, 2)),
                                 rng.normal(size=(5, 3)))

    def test_weight_eval_width_checked(self):
        rng = make_rng(14)
        model = fit_weight_estimator(rng.normal(size=(30, 2)),
                                     rng.normal(size=(30, 2)), kind="logistic")
        with pytest.raises(DimensionMismatch):
            weights(model, rng.normal(size=(4, 3)))


class TestWeightedSuperUniformity:
    def test_oracle_weights_restore_validity_under_shift(self):
        # shifted test covariates break plain conformal p-values; weighting
        # by the true density ratio restores P(p <= t) <= t (approximately,
        # checked with Monte Carlo slack)
        rng = make_rng(15)
        trials = 800
        t0 = 0.1
        hits_weighted = 0
        for _ in range(trials):
            cal_x = rng.normal(size=200)
            # target distribution N(1, 1): ratio q/p = exp(x - 1/2)
            test_x = rng.normal(loc=1.0, size=1)
            w_cal = np.exp(cal_x - 0.5)
            w_test = np.exp(test_x - 0.5)
            # the anomaly score is x itself
            p_w = weighted_p_values(cal_x, w_cal, test_x, w_test)[0]
            hits_weighted += p_w <= t0
        slack = 3 * np.sqrt(t0 * (1 - t0) / trials)
        assert hits_weighted / trials <= t0 + slack
