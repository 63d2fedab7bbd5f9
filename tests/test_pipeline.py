import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confanom import resampling
from confanom.core import (InvalidAlpha, InvalidHyperparameter, InvalidSpec,
                           make_rng)
from confanom.detectors import ScorerSpec
from confanom.estimation import EstimationSpec
from confanom.pipeline import (FittedPipeline, PipelineConfig, compute_p_values,
                               fit, fit_detached, score_samples, select,
                               stream_p_values)
from confanom.resampling import (cross_validation, jackknife, jackknife_bootstrap,
                                  split)
from confanom.weighting import fit_weight_estimator, weighted_p_values, weights

from conftest import gaussian_matrix, labeled_batch

KNN = ScorerSpec(kind="knn_distance", k=5)
SPLIT = split(n_calib=0.5)


def knn_split(seed=0, **kwargs):
    return PipelineConfig(scorer=KNN, strategy=SPLIT, seed=seed, **kwargs)


class TestConfigValidation:
    def test_minimal_config(self):
        config = knn_split()
        assert config.weighting is None
        assert config.estimation.regime == "empirical"

    def test_rejects_bare_dicts(self):
        with pytest.raises(InvalidSpec):
            PipelineConfig(scorer={"kind": "knn_distance"}, strategy=SPLIT, seed=0)
        with pytest.raises(InvalidSpec):
            PipelineConfig(scorer=KNN, strategy="split", seed=0)

    def test_unknown_weighting(self):
        with pytest.raises(InvalidSpec):
            knn_split(weighting="isotonic")

    def test_oracle_needs_ratio_function(self):
        with pytest.raises(InvalidSpec, match="ratio_function"):
            knn_split(weighting="oracle")

    def test_ratio_function_only_with_oracle(self):
        with pytest.raises(InvalidSpec, match="oracle"):
            knn_split(weighting="logistic", ratio_function=lambda X: np.ones(len(X)))

    def test_weighting_excludes_conditional(self):
        with pytest.raises(InvalidSpec, match="conditional"):
            knn_split(weighting="logistic",
                      estimation=EstimationSpec(regime="conditional_empirical",
                                                method="asymptotic", delta=0.1))

    def test_weighting_excludes_probabilistic(self):
        with pytest.raises(InvalidSpec, match="rank-based"):
            knn_split(weighting="logistic",
                      estimation=EstimationSpec(regime="probabilistic"))

    def test_weighting_excludes_smoothing(self):
        with pytest.raises(InvalidSpec, match="smooth"):
            knn_split(weighting="logistic",
                      estimation=EstimationSpec(smoothed=True))

    def test_weighting_excludes_plus_mode(self):
        with pytest.raises(InvalidSpec, match="plus"):
            PipelineConfig(scorer=KNN,
                           strategy=cross_validation(k=5, mode="plus"),
                           seed=0, weighting="logistic")

    def test_weighting_allows_single_model_refit(self):
        config = PipelineConfig(scorer=KNN,
                                strategy=cross_validation(k=5, mode="single_model"),
                                seed=0, weighting="logistic")
        assert config.weighting == "logistic"

    def test_seed_validated(self):
        with pytest.raises(InvalidHyperparameter):
            knn_split(seed=-3)


class TestFit:
    def test_fit_produces_frozen_pipeline(self):
        fp = fit(knn_split(seed=11), gaussian_matrix(0, 80))
        assert isinstance(fp, FittedPipeline)
        assert fp.n_entries == 40
        assert fp.table is None
        with pytest.raises(AttributeError):
            fp.config = None

    def test_calibration_holds_the_configured_strategy(self):
        # the strategy is stated once: fit hands the config's own spec on
        for strategy in (SPLIT, cross_validation(3), jackknife("single_model"),
                         resampling.jackknife_bootstrap(4)):
            fp = fit(PipelineConfig(scorer=KNN, strategy=strategy, seed=2),
                     gaussian_matrix(0, 30))
            assert fp.config.strategy is fp.calibration.strategy is strategy

    def test_fit_rejects_plain_spec(self):
        with pytest.raises(InvalidSpec):
            fit(KNN, gaussian_matrix(0, 40))

    def test_fit_accepts_raw_arrays(self):
        raw = make_rng(1).normal(size=(60, 4))
        fp = fit(knn_split(), raw)
        assert fp.n_entries == 30

    def test_conditional_regime_attaches_table(self):
        config = knn_split(estimation=EstimationSpec(
            regime="conditional_empirical", method="asymptotic", delta=0.1))
        fp = fit(config, gaussian_matrix(2, 100))
        assert fp.table is not None
        assert fp.table.n == 50

    def test_table_seed_is_reserved_stream(self):
        # the mc table must not collide with strategy streams 0..k+1
        config = knn_split(estimation=EstimationSpec(
            regime="conditional_empirical", method="mc", delta=0.2))
        fp1 = fit(config, gaussian_matrix(3, 60))
        fp2 = fit(config, gaussian_matrix(3, 60))
        np.testing.assert_array_equal(fp1.table.adjusted, fp2.table.adjusted)


class TestComputePValues:
    def test_deterministic_across_calls(self):
        fp = fit(knn_split(seed=5), gaussian_matrix(4, 100))
        X = gaussian_matrix(5, 30)
        first = compute_p_values(fp, X)
        second = compute_p_values(fp, X)
        np.testing.assert_array_equal(first.values, second.values)

    def test_smoothed_deterministic_without_seed(self):
        config = knn_split(seed=5, estimation=EstimationSpec(smoothed=True))
        fp = fit(config, gaussian_matrix(4, 100))
        X = gaussian_matrix(5, 30)
        first = compute_p_values(fp, X)
        second = compute_p_values(fp, X)
        np.testing.assert_array_equal(first.values, second.values)
        assert first.smoothed

    def test_smoothed_seed_override(self):
        config = knn_split(seed=5, estimation=EstimationSpec(smoothed=True))
        fp = fit(config, gaussian_matrix(4, 100))
        X = gaussian_matrix(5, 30)
        a = compute_p_values(fp, X, seed=1)
        b = compute_p_values(fp, X, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_anomalies_get_smaller_p(self):
        fp = fit(knn_split(seed=7), gaussian_matrix(6, 200))
        batch = labeled_batch(8, n_inliers=50, n_anomalies=10)
        pvals = compute_p_values(fp, batch)
        anom = pvals.values[batch.labels == 1]
        inlier = pvals.values[batch.labels == 0]
        assert np.median(anom) < np.median(inlier)

    def test_regime_dispatch_tags(self):
        train = gaussian_matrix(9, 120)
        X = gaussian_matrix(10, 15)
        for regime, method in [("empirical", None),
                               ("conditional_empirical", "asymptotic"),
                               ("probabilistic", None)]:
            kwargs = {"regime": regime}
            if method:
                kwargs["method"] = method
                kwargs["delta"] = 0.1
            fp = fit(knn_split(estimation=EstimationSpec(**kwargs)), train)
            pvals = compute_p_values(fp, X)
            assert pvals.estimation == regime
            assert pvals.values.shape == (15,)

    def test_weighted_path_sets_tag(self):
        fp = fit(knn_split(weighting="logistic"), gaussian_matrix(11, 120))
        pvals = compute_p_values(fp, gaussian_matrix(12, 40))
        assert pvals.weighting == "logistic"
        assert np.all(pvals.values > 0) and np.all(pvals.values <= 1)

    def test_oracle_weighting_runs(self):
        config = knn_split(weighting="oracle",
                           ratio_function=lambda X: np.exp(X[:, 0] - 0.5))
        fp = fit(config, gaussian_matrix(13, 120))
        pvals = compute_p_values(fp, gaussian_matrix(14, 25))
        assert pvals.weighting == "oracle"

    def test_oracle_called_once_per_side(self):
        # the calibration ratios that set the cap are the ones capped into
        # weights: per batch the oracle sees the calibration rows once and
        # the batch once, and the p-values are those of weights evaluated
        # from the fitted model on each side
        calls = []

        def ratio(X):
            calls.append(X.shape[0])
            return np.exp(X[:, 0] - 0.5)

        fp = fit(knn_split(weighting="oracle", ratio_function=ratio), gaussian_matrix(13, 120))
        cm, X = fp.calibration, gaussian_matrix(14, 25)
        for _ in range(2):
            calls.clear()
            pvals = compute_p_values(fp, X)
            assert calls == [cm.n_entries, 25]
        model = fit_weight_estimator(cm.cal_rows, X, kind="oracle", ratio_function=ratio)
        expected = weighted_p_values(cm.entry_scores, weights(model, cm.cal_rows),
                                     score_samples(fp, X).scores, weights(model, X))
        assert pvals.values.tobytes() == expected.tobytes()

    def test_rejects_unfitted_argument(self):
        with pytest.raises(InvalidSpec):
            compute_p_values(knn_split(), gaussian_matrix(0, 10))


class TestSelect:
    def test_alpha_validation(self):
        fp = fit(knn_split(), gaussian_matrix(15, 80))
        X = gaussian_matrix(16, 10)
        for bad in (0.0, 1.0, -0.1, "ten", None):
            with pytest.raises(InvalidAlpha):
                select(fp, X, bad)

    def test_flags_shifted_points(self):
        fp = fit(knn_split(seed=3), gaussian_matrix(17, 400))
        batch = labeled_batch(18, n_inliers=95, n_anomalies=5, shift=4.0)
        decision = select(fp, batch, alpha=0.2)
        assert decision.flags[batch.labels == 1].sum() >= 4
        assert decision.alpha == 0.2

    def test_weighted_dispatch(self):
        fp = fit(knn_split(weighting="logistic"), gaussian_matrix(19, 150))
        decision = select(fp, gaussian_matrix(20, 40), alpha=0.1)
        assert "weighted" in decision.procedure


class TestScoreSamples:
    def test_scores_match_strategy_aggregation(self):
        fp = fit(knn_split(seed=21), gaussian_matrix(22, 100))
        scores = score_samples(fp, gaussian_matrix(23, 12))
        assert scores.scores.shape == (12,)
        assert scores.polarity_normalized

    def test_far_point_scores_higher(self):
        fp = fit(knn_split(seed=24), gaussian_matrix(25, 100))
        near = np.zeros((1, 4))
        far = np.full((1, 4), 6.0)
        s = score_samples(fp, np.vstack([near, far]))
        assert s.scores[1] > s.scores[0]


class TestStreamPValues:
    def test_matches_per_row_processing(self):
        # a stream consumed row by row, each row passing its step as start,
        # must agree bit for bit with the same stream consumed as one batch
        config = knn_split(seed=31, estimation=EstimationSpec(smoothed=True))
        fp = fit(config, gaussian_matrix(26, 100))
        stream = gaussian_matrix(27, 40)
        batch = stream_p_values(fp, stream)
        singles = [stream_p_values(fp, stream.values[t:t + 1], start=t).values[0]
                   for t in range(stream.n_rows)]
        np.testing.assert_array_equal(batch.values, np.array(singles))

    def test_pieces_match_batch(self):
        fp = fit(knn_split(seed=40), gaussian_matrix(41, 100))
        stream = gaussian_matrix(42, 25)
        batch = stream_p_values(fp, stream, seed=7, start=3).values
        for cut in range(1, stream.n_rows):
            head = stream_p_values(fp, stream.values[:cut], seed=7, start=3)
            tail = stream_p_values(fp, stream.values[cut:], seed=7, start=3 + cut)
            np.testing.assert_array_equal(np.concatenate([head.values, tail.values]), batch)

    @pytest.mark.parametrize("scorer", [
        KNN, ScorerSpec(kind="isolation_forest", n_trees=8, subsample_size=16)],
        ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("strategy", [
        SPLIT, cross_validation(k=3, mode="plus"), cross_validation(k=3, mode="single_model"),
        jackknife(mode="plus"), jackknife(mode="single_model"),
        jackknife_bootstrap(n_bootstraps=6, mode="plus"),
        jackknife_bootstrap(n_bootstraps=6, mode="single_model")],
        ids=lambda spec: spec.kind + (f"-{spec.mode}" if spec.mode else ""))
    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
    def test_batch_is_stream_from_step_zero(self, scorer, strategy, seed, m, data):
        # a smoothed batch and a stream starting at step 0 draw the same
        # tie-breakers, so they agree bit for bit, as does a two-piece feed
        config = PipelineConfig(scorer=scorer, strategy=strategy, seed=seed,
                                estimation=EstimationSpec(smoothed=True))
        fp = fit(config, gaussian_matrix(seed % 1000, 24))
        X = gaussian_matrix(seed % 1000 + 1, m)
        cut = data.draw(st.integers(1, m - 1))
        for smooth_seed in (None, data.draw(st.integers(0, 2**64 - 1))):
            batch = compute_p_values(fp, X, seed=smooth_seed).values
            np.testing.assert_array_equal(stream_p_values(fp, X, seed=smooth_seed).values,
                                          batch)
            head = stream_p_values(fp, X.values[:cut], seed=smooth_seed)
            tail = stream_p_values(fp, X.values[cut:], seed=smooth_seed, start=cut)
            np.testing.assert_array_equal(np.concatenate([head.values, tail.values]), batch)

    def test_draws_are_counter_blocks(self):
        # step t smooths with the first double of Philox counter block t
        fp = fit(knn_split(seed=43), gaussian_matrix(44, 100))
        stream = gaussian_matrix(45, 12)
        pvals = stream_p_values(fp, stream, seed=5, start=2).values
        ts = resampling.test_score_matrix(fp.calibration, stream)
        ge, gt = resampling.paired_rank_counts(fp.calibration, ts)
        u = np.array([1.0 - np.random.Generator(np.random.Philox(key=5, counter=t)).random()
                      for t in range(2, 14)])
        np.testing.assert_array_equal(pvals, (gt + u * (ge - gt + 1)) / (fp.n_entries + 1))

    @pytest.mark.parametrize("start", [-1, 1.0, True, "3", 2**64])
    def test_bad_start_rejected(self, start):
        fp = fit(knn_split(seed=46), gaussian_matrix(47, 100))
        with pytest.raises(InvalidHyperparameter, match="start"):
            stream_p_values(fp, gaussian_matrix(48, 5), start=start)

    def test_always_smoothed_in_empirical_regime(self):
        # the config's smoothed flag has no off switch here: streams
        # always smooth so the martingale sees exactly uniform nulls
        fp = fit(knn_split(seed=32), gaussian_matrix(28, 100))
        pvals = stream_p_values(fp, gaussian_matrix(29, 20))
        assert pvals.smoothed

    def test_explicit_seed_changes_draws(self):
        fp = fit(knn_split(seed=33), gaussian_matrix(30, 100))
        stream = gaussian_matrix(31, 20)
        a = stream_p_values(fp, stream, seed=100)
        b = stream_p_values(fp, stream, seed=101)
        assert not np.array_equal(a.values, b.values)

    def test_refuses_weighting(self):
        fp = fit(knn_split(weighting="logistic"), gaussian_matrix(34, 100))
        with pytest.raises(InvalidSpec, match="weight"):
            stream_p_values(fp, gaussian_matrix(35, 10))

    def test_conditional_passthrough(self):
        config = knn_split(estimation=EstimationSpec(
            regime="conditional_empirical", method="asymptotic", delta=0.1))
        fp = fit(config, gaussian_matrix(36, 100))
        stream = gaussian_matrix(37, 15)
        streamed = stream_p_values(fp, stream)
        batched = compute_p_values(fp, stream)
        np.testing.assert_array_equal(streamed.values, batched.values)


class TestFitDetached:
    def test_detached_scorer_round_trip(self):
        fp = fit_detached(lambda X: np.abs(X).sum(axis=1),
                          gaussian_matrix(38, 60), polarity="higher_is_anomalous", seed=0)
        assert fp.config.scorer.kind == "external"
        assert fp.n_entries == 60
        pvals = compute_p_values(fp, gaussian_matrix(39, 10))
        assert pvals.values.shape == (10,)

    def test_lower_polarity_negated(self):
        calib = gaussian_matrix(40, 60)
        hi = fit_detached(lambda X: X[:, 0], calib, polarity="higher_is_anomalous", seed=0)
        lo = fit_detached(lambda X: -X[:, 0], calib, polarity="lower_is_anomalous", seed=0)
        X = gaussian_matrix(41, 10)
        np.testing.assert_allclose(compute_p_values(hi, X).values,
                                   compute_p_values(lo, X).values)

    def test_detached_supports_weighting(self):
        fp = fit_detached(lambda X: np.abs(X).sum(axis=1),
                          gaussian_matrix(42, 80), polarity="higher_is_anomalous", seed=0,
                          weighting_kind="logistic")
        pvals = compute_p_values(fp, gaussian_matrix(43, 30))
        assert pvals.weighting == "logistic"


class TestJackknifeThroughFacade:
    def test_jackknife_pipeline_runs(self):
        config = PipelineConfig(scorer=KNN,
                                strategy=jackknife(mode="plus"),
                                seed=1)
        fp = fit(config, gaussian_matrix(44, 30))
        assert fp.n_entries == 30
        pvals = compute_p_values(fp, gaussian_matrix(45, 8))
        assert pvals.values.shape == (8,)
