import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confanom import resampling

from confanom.core import (CalibrationTooLarge, DataMatrix,
                           DimensionMismatch, InvalidHyperparameter,
                           KOutOfRange, ShapeMismatch, make_rng)
from confanom.detectors import ScorerSpec, wrap_detached
from confanom.resampling import StrategySpec, aggregate_test_scores, calibrate
from confanom.resampling import calibrate_detached, cross_validation, jackknife
from confanom.resampling import jackknife_bootstrap, paired_rank_counts, split
from confanom.resampling import test_score_matrix as score_matrix

from conftest import gaussian_matrix

KNN = ScorerSpec(kind="knn_distance", k=3)


class TestStrategySpec:
    def test_split_requires_n_calib(self):
        with pytest.raises(InvalidHyperparameter):
            StrategySpec(kind="split")

    def test_split_rejects_foreign_params(self):
        with pytest.raises(InvalidHyperparameter):
            StrategySpec(kind="split", n_calib=10, k=5)

    def test_fraction_bounds(self):
        with pytest.raises(InvalidHyperparameter):
            split(0.0)
        with pytest.raises(InvalidHyperparameter):
            split(1.0)
        assert split(0.5).n_calib == 0.5
        # a numpy fraction is a fraction too, not a count to refuse
        for fraction in (np.float32(0.5), np.float64(0.5)):
            assert type(split(fraction).n_calib) is float and split(fraction).n_calib == 0.5

    def test_cv_needs_k(self):
        with pytest.raises(InvalidHyperparameter):
            StrategySpec(kind="cross_validation", mode="plus")
        with pytest.raises(InvalidHyperparameter):
            cross_validation(k=1)

    def test_mode_required_for_resampling(self):
        with pytest.raises(InvalidHyperparameter):
            StrategySpec(kind="jackknife")

    def test_bootstrap_count(self):
        with pytest.raises(InvalidHyperparameter):
            jackknife_bootstrap(n_bootstraps=0)

    def test_counts_are_integers(self):
        # k = 2.5 would fit 2 folds and n_bootstraps = True one bootstrap;
        # counts are refused unless they are integers, and numpy integers
        # are stored as plain ints
        for bad in (2.5, "3", True):
            with pytest.raises(InvalidHyperparameter, match="k must be an integer"):
                cross_validation(bad)
            with pytest.raises(InvalidHyperparameter, match="n_bootstraps must be an integer"):
                jackknife_bootstrap(bad)
        with pytest.raises(InvalidHyperparameter, match="n_calib must be an integer"):
            split(True)
        for spec, field in ((cross_validation(np.int64(3)), "k"),
                            (jackknife_bootstrap(np.int32(3)), "n_bootstraps"),
                            (split(np.int16(3)), "n_calib")):
            assert type(getattr(spec, field)) is int and getattr(spec, field) == 3

    def test_one_entry_maps_each_strategy_to_its_plan(self):
        # one model per fold, per row or per bootstrap; split fits one
        data = gaussian_matrix(31, 12)
        for strategy, n_models in ((split(4), 1), (cross_validation(3), 3), (jackknife(), 12),
                                   (jackknife_bootstrap(5), 5)):
            cm = calibrate(KNN, data, strategy, seed=2)
            assert cm.strategy is strategy and cm.n_models == n_models
            plan = resampling.strategy_plan(strategy, 12, 2)
            np.testing.assert_array_equal(cm.train_counts, plan.train_counts)
            np.testing.assert_array_equal(cm.entry_rows, plan.entry_rows)
        with pytest.raises(KOutOfRange, match="jackknife requires at least 2 rows"):
            calibrate(KNN, gaussian_matrix(32, 1), jackknife(), seed=0)

    def test_kept_plan_drawn_again(self):
        # a snapshot load calls kept_plan without the strategy's plan: it
        # draws the plan where it needs one, and a CV or jackknife
        # single_model plan, every row in row order under one refit, from
        # the row count alone, with the refit stream 1 + k
        for strategy, stream in ((split(4), 1), (cross_validation(3), 1), (jackknife(), 1),
                                 (jackknife_bootstrap(5), 2),
                                 (cross_validation(3, "single_model"), 4),
                                 (jackknife("single_model"), 13),
                                 (jackknife_bootstrap(5, "single_model"), 0)):
            plan = resampling.strategy_plan(strategy, 12, 2)
            given, drawn = (resampling.kept_plan(strategy, 12, 2, p) for p in (plan, None))
            assert given.streams == drawn.streams and drawn.streams[0] == stream
            for name in ("train_counts", "entry_rows", "oob"):
                np.testing.assert_array_equal(getattr(given, name), getattr(drawn, name))
        for strategy in (cross_validation(13, "single_model"), jackknife("single_model")):
            with pytest.raises(KOutOfRange):
                resampling.kept_plan(strategy, 12 if strategy.kind != "jackknife" else 1, 0)

    def test_factories(self):
        assert cross_validation(5).kind == "cross_validation"
        assert jackknife().mode == "plus"
        assert jackknife_bootstrap(10, mode="single_model").n_bootstraps == 10


class TestSplit:
    def test_partition_sizes(self):
        data = gaussian_matrix(1, 40)
        cm = calibrate(KNN, data, split(0.25), seed=7)
        assert cm.n_entries == 10
        assert len(set(cm.model_train_indices[0])) == 30
        assert cm.cal_rows.shape == (10, 4)

    def test_count_and_fraction_agree(self):
        data = gaussian_matrix(2, 40)
        a = calibrate(KNN, data, split(10), seed=7)
        b = calibrate(KNN, data, split(0.25), seed=7)
        np.testing.assert_array_equal(a.entry_scores, b.entry_scores)

    def test_calibration_cannot_swallow_training(self):
        data = gaussian_matrix(3, 10)
        with pytest.raises(CalibrationTooLarge):
            calibrate(KNN, data, split(10), seed=0)
        with pytest.raises(CalibrationTooLarge):
            calibrate(KNN, data, split(11), seed=0)

    def test_entries_are_out_of_sample(self):
        # every calibration row must be absent from the fit subset
        data = gaussian_matrix(4, 30)
        cm = calibrate(KNN, data, split(0.5), seed=3)
        fit_rows = data.values[list(cm.model_train_indices[0])]
        for row in cm.cal_rows:
            assert not (fit_rows == row).all(axis=1).any()

    def test_deterministic(self):
        data = gaussian_matrix(5, 30)
        a = calibrate(KNN, data, split(0.5), seed=3)
        b = calibrate(KNN, data, split(0.5), seed=3)
        c = calibrate(KNN, data, split(0.5), seed=4)
        np.testing.assert_array_equal(a.entry_scores, b.entry_scores)
        assert not np.array_equal(a.entry_scores, c.entry_scores)


class TestDetached:
    def test_scores_are_function_outputs(self):
        calib = gaussian_matrix(6, 20, d=2)
        scorer = wrap_detached(lambda X: X[:, 0], "higher_is_anomalous")
        cm = calibrate_detached(scorer, calib)
        np.testing.assert_array_equal(cm.entry_scores, calib.values[:, 0])
        # the wrapped scorer trained on none of the held-out rows
        assert cm.n_models == 1 and not cm.train_counts.any()


class TestCrossValidation:
    def test_every_row_becomes_an_entry(self):
        data = gaussian_matrix(7, 33)
        cm = calibrate(KNN, data, cross_validation(5, "plus"), seed=1)
        assert cm.n_entries == 33
        assert len(cm.models) == 5

    def test_fold_sizes_balanced(self):
        data = gaussian_matrix(8, 33)
        cm = calibrate(KNN, data, cross_validation(5, "plus"), seed=1)
        sizes = [len(idx) for idx in cm.model_train_indices]
        # 33 rows in 5 folds: three folds of 7 and two of 6
        assert sorted(33 - s for s in sizes) == [6, 6, 7, 7, 7]

    def test_entry_pairs_with_out_of_fold_model(self):
        data = gaussian_matrix(9, 20)
        cm = calibrate(KNN, data, cross_validation(4, "plus"), seed=2)
        for entry_idx, models in enumerate(cm.entry_models):
            assert len(models) == 1
            rows = cm.model_train_indices[models[0]]
            row = cm.cal_rows[entry_idx]
            in_fit = (data.values[list(rows)] == row).all(axis=1).any()
            assert not in_fit

    def test_single_model_refits_once(self):
        data = gaussian_matrix(10, 20)
        cm = calibrate(KNN, data, cross_validation(4, "single_model"), seed=2)
        assert len(cm.models) == 1
        assert len(cm.model_train_indices[0]) == 20
        assert all(m == (0,) for m in cm.entry_models)

    def test_k_out_of_range(self):
        data = gaussian_matrix(11, 6)
        with pytest.raises(KOutOfRange):
            calibrate(KNN, data, cross_validation(7, "plus"), seed=0)


class TestJackknife:
    def test_equals_cv_with_k_equal_n(self):
        # leave-one-out is exactly n-fold cross-validation
        data = gaussian_matrix(12, 12)
        jk = calibrate(KNN, data, jackknife("plus"), seed=5)
        cv = calibrate(KNN, data, cross_validation(12, "plus"), seed=5)
        np.testing.assert_array_equal(jk.entry_scores, cv.entry_scores)
        assert jk.entry_models == cv.entry_models
        test = gaussian_matrix(13, 6)
        np.testing.assert_array_equal(score_matrix(jk, test).values,
                                      score_matrix(cv, test).values)


class TestBootstrap:
    def test_oob_fraction_near_e_inverse(self):
        # P(row out of bag) = (1 - 1/n)^n -> 1/e; one bootstrap, n = 10000
        data = gaussian_matrix(14, 10000, d=1)
        forest = ScorerSpec(kind="isolation_forest", n_trees=5)
        cm = calibrate(forest, data, jackknife_bootstrap(1, "plus"), seed=42)
        oob_fraction = cm.n_entries / 10000
        assert abs(oob_fraction - np.exp(-1)) < 0.03

    def test_dropped_rows_accounted(self):
        data = gaussian_matrix(15, 50, d=2)
        cm = calibrate(KNN, data, jackknife_bootstrap(2, "plus"), seed=3)
        assert cm.n_entries + cm.dropped_rows == 50

    def test_entry_models_are_oob_sets(self):
        data = gaussian_matrix(16, 40, d=2)
        cm = calibrate(KNN, data, jackknife_bootstrap(5, "plus"), seed=9)
        for entry_idx, mset in enumerate(cm.entry_models):
            assert len(mset) >= 1
            row = cm.cal_rows[entry_idx]
            for m in mset:
                in_bag = (data.values[list(cm.model_train_indices[m])] == row) \
                    .all(axis=1).any()
                assert not in_bag

    def test_single_model_keeps_oob_entries(self):
        data = gaussian_matrix(17, 60, d=2)
        plus = calibrate(KNN, data, jackknife_bootstrap(4, "plus"), seed=1)
        single = calibrate(KNN, data, jackknife_bootstrap(4, "single_model"), seed=1)
        assert single.n_entries == plus.n_entries
        assert len(single.models) == 1


class TestPairedRankCounts:
    def test_single_model_counts_match_bruteforce(self):
        data = gaussian_matrix(18, 25)
        cm = calibrate(KNN, data, split(0.4), seed=1)
        test = gaussian_matrix(19, 7)
        ts = score_matrix(cm, test)
        assert ts.values.shape == (7, 1)
        ge, gt = paired_rank_counts(cm, ts)
        for j in range(7):
            assert ge[j] == int((cm.entry_scores >= ts.values[j, 0]).sum())
            assert gt[j] == int((cm.entry_scores > ts.values[j, 0]).sum())
            assert ge[j] - gt[j] == int((cm.entry_scores == ts.values[j, 0]).sum())

    def test_plus_mode_counts_match_bruteforce(self):
        data = gaussian_matrix(20, 18)
        cm = calibrate(KNN, data, cross_validation(3, "plus"), seed=4)
        test = gaussian_matrix(21, 5)
        ts = score_matrix(cm, test)
        ge, gt = paired_rank_counts(cm, ts)
        expected_ge = np.zeros(5, dtype=int)
        expected_gt = np.zeros(5, dtype=int)
        for i, mset in enumerate(cm.entry_models):
            paired = np.median(ts.values[:, list(mset)], axis=1)
            expected_ge += cm.entry_scores[i] >= paired
            expected_gt += cm.entry_scores[i] > paired
        np.testing.assert_array_equal(ge, expected_ge)
        np.testing.assert_array_equal(gt, expected_gt)

    def test_mean_pooled_counts_match_bruteforce(self):
        # JaB+ sets of several models, pooled by the mean, not the median
        data = gaussian_matrix(29, 30, d=2)
        cm = calibrate(KNN, data, jackknife_bootstrap(8, "plus", "mean"), seed=3)
        ts = score_matrix(cm, gaussian_matrix(30, 10, d=2))
        assert max(len(m) for m in cm.entry_models) > 1
        paired = np.column_stack([ts.values[:, list(m)].mean(axis=1) for m in cm.entry_models])
        ge, gt = paired_rank_counts(cm, ts)
        np.testing.assert_array_equal(ge, (cm.entry_scores >= paired).sum(axis=1))
        np.testing.assert_array_equal(gt, (cm.entry_scores > paired).sum(axis=1))

    def test_pairing_guard(self):
        data = gaussian_matrix(22, 20)
        cm_a = calibrate(KNN, data, split(0.5), seed=1)
        cm_b = calibrate(KNN, data, cross_validation(4, "plus"), seed=1)
        ts_b = score_matrix(cm_b, gaussian_matrix(23, 4))
        with pytest.raises(DimensionMismatch):
            paired_rank_counts(cm_a, ts_b)

    def test_aggregate_scores_pool_all_models(self):
        data = gaussian_matrix(24, 21)
        cm = calibrate(KNN, data, cross_validation(3, "plus"), seed=2)
        test = gaussian_matrix(25, 6)
        ts = score_matrix(cm, test)
        agg = aggregate_test_scores(cm, ts)
        np.testing.assert_allclose(agg, np.median(ts.values, axis=1))


STRATEGIES = {
    "split": lambda data: calibrate(KNN, data, split(0.4), seed=1),
    "detached": lambda data: calibrate_detached(
        wrap_detached(lambda X: X[:, 0], "lower_is_anomalous"), data),
    "cv_plus": lambda data: calibrate(KNN, data, cross_validation(3, "plus"), seed=1),
    "cv_single_model": lambda data: calibrate(KNN, data, cross_validation(3, "single_model"),
                                              seed=1),
    "jackknife_plus": lambda data: calibrate(KNN, data, jackknife("plus"), seed=1),
    "jackknife_single_model": lambda data: calibrate(KNN, data, jackknife("single_model"),
                                                     seed=1),
    "jab_plus": lambda data: calibrate(KNN, data, jackknife_bootstrap(6, "plus"), seed=1),
    "jab_single_model": lambda data: calibrate(KNN, data, jackknife_bootstrap(6, "single_model"),
                                               seed=1),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_score_table_has_a_column_per_model(strategy):
    # a single-model calibration is a one-model plan: one column, not 1-D
    cm = STRATEGIES[strategy](gaussian_matrix(27, 24))
    ts = score_matrix(cm, gaussian_matrix(28, 5))
    assert ts.values.ndim == 2
    assert ts.values.shape == (5, cm.n_models)
    assert (cm.n_models == 1) == (cm.strategy.mode != "plus")
    with pytest.raises(ShapeMismatch):
        resampling.TestScores(n_entries=cm.n_entries, values=ts.values[:, 0])


@st.composite
def single_model_cases(draw):
    """Split, detached, CV and JaB single_model calibrations on coarse rows,
    so that entries tie with each other and with test scores."""
    n = draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 4))
    rows = rng.integers(0, levels, size=(n, 2)).astype(float)
    test = np.vstack([rng.integers(0, levels, size=(draw(st.integers(1, 8)), 2)), rows[:3]])
    kind = draw(st.sampled_from(["split", "detached", "cross_validation",
                                 "jackknife_bootstrap"]))
    seed = draw(st.integers(0, 99))
    spec = ScorerSpec(kind="knn_distance", k=1)
    data = DataMatrix(rows)
    if kind == "split":
        cm = calibrate(spec, data, split(draw(st.integers(1, n - 3))), seed)
    elif kind == "detached":
        polarity = draw(st.sampled_from(["higher_is_anomalous", "lower_is_anomalous"]))
        cm = calibrate_detached(wrap_detached(lambda X: X.sum(axis=1), polarity), data)
    elif kind == "cross_validation":
        cm = calibrate(spec, data, cross_validation(
            draw(st.integers(2, 4)), "single_model",
            draw(st.sampled_from(resampling.AGGREGATIONS))), seed)
    else:
        cm = calibrate(spec, data, jackknife_bootstrap(
            draw(st.integers(2, 6)), "single_model",
            draw(st.sampled_from(resampling.AGGREGATIONS))), seed)
    return cm, DataMatrix(test)


@settings(max_examples=150)
@given(single_model_cases())
def test_single_model_rank_counts_match_bruteforce(case):
    cm, test = case
    ts = score_matrix(cm, test)
    ge, gt = paired_rank_counts(cm, ts)
    t = ts.values[:, 0][:, None]
    np.testing.assert_array_equal(ge, (cm.entry_scores >= t).sum(axis=1))
    np.testing.assert_array_equal(gt, (cm.entry_scores > t).sum(axis=1))
    assert ge.dtype == gt.dtype == np.int64


class TestRowOrderInvariance:
    def test_shuffled_input_still_partitions_out_of_sample(self):
        data = gaussian_matrix(26, 30)
        perm = make_rng(0).permutation(30)
        shuffled = DataMatrix(data.values[perm])
        cm = calibrate(KNN, shuffled, split(0.5), seed=8)
        fit_rows = shuffled.values[list(cm.model_train_indices[0])]
        for row in cm.cal_rows:
            assert not (fit_rows == row).all(axis=1).any()


MEDIAN_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324, 0.5]))


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 9).flatmap(
    lambda n: st.lists(MEDIAN_VALUES, min_size=rows * n, max_size=rows * n).map(
        lambda v: np.array(v, dtype=np.float64).reshape(rows, n)))))
def test_median_matches_numpy(values):
    # odd and even counts, ties, signed zeros and sums that overflow
    with np.errstate(over="ignore"):
        got = resampling._median(values)
        expected = np.median(values, axis=1)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
