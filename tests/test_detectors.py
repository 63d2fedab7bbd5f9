import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confanom import detectors
from confanom.core import (AmbiguousPolarity, DataMatrix, DimensionMismatch,
                           EmptyTrainingSet, InvalidHyperparameter, KTooLarge,
                           make_rng)
from confanom.detectors import (ScorerSpec, average_path_length, fit,
                                normalize_polarity, score, wrap_detached)
from confanom.pipeline import PipelineConfig, score_samples
from confanom.pipeline import fit as fit_pipeline
from confanom.resampling import split
from confanom.snapshot import snapshot_load, snapshot_save

from conftest import gaussian_matrix, labeled_batch


class TestScorerSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidHyperparameter):
            ScorerSpec(kind="autoencoder")

    def test_knn_bounds(self):
        with pytest.raises(InvalidHyperparameter):
            ScorerSpec(kind="knn_distance", k=0)
        with pytest.raises(InvalidHyperparameter):
            ScorerSpec(kind="knn_distance", aggregation="max")

    def test_forest_bounds(self):
        with pytest.raises(InvalidHyperparameter):
            ScorerSpec(kind="isolation_forest", n_trees=0)
        with pytest.raises(InvalidHyperparameter):
            ScorerSpec(kind="isolation_forest", subsample_size=1)


class TestAveragePathLength:
    def test_small_values(self):
        # c(2) = 2 H(1) - 2 (1/2) = 1; c(1) and c(0) are 0 by convention
        assert average_path_length(0) == 0.0
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == pytest.approx(1.0)

    def test_matches_formula(self):
        m = 256
        harmonic = np.sum(1.0 / np.arange(1, m))
        expected = 2.0 * harmonic - 2.0 * (m - 1) / m
        assert average_path_length(m) == pytest.approx(expected, rel=1e-12)

    def test_monotone(self):
        vals = [average_path_length(m) for m in range(2, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestKnn:
    def test_kth_distance_matches_bruteforce(self):
        train = gaussian_matrix(1, 60, d=3)
        test = gaussian_matrix(2, 15, d=3)
        scorer = fit(ScorerSpec(kind="knn_distance", k=4), train, seed=0)
        got = score(scorer, test).scores
        diffs = test.values[:, None, :] - train.values[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        expected = np.sort(dist, axis=1)[:, 3]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_mean_aggregation_matches_bruteforce(self):
        train = gaussian_matrix(3, 40, d=2)
        test = gaussian_matrix(4, 10, d=2)
        scorer = fit(ScorerSpec(kind="knn_distance", k=5, aggregation="mean"),
                     train, seed=0)
        got = score(scorer, test).scores
        diffs = test.values[:, None, :] - train.values[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        expected = np.sort(dist, axis=1)[:, :5].mean(axis=1)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_training_point_excludes_nothing(self):
        # scoring a training row counts the zero self-distance among the k
        train = gaussian_matrix(5, 30, d=2)
        scorer = fit(ScorerSpec(kind="knn_distance", k=1), train, seed=0)
        got = score(scorer, train).scores
        assert (got == 0.0).all()

    def test_k_too_large(self):
        train = gaussian_matrix(6, 5, d=2)
        with pytest.raises(KTooLarge):
            fit(ScorerSpec(kind="knn_distance", k=5), train, seed=0)

    def test_separates_outliers(self):
        train = gaussian_matrix(7, 200, d=4)
        batch = labeled_batch(8, 50, 10, d=4, shift=4.0)
        scorer = fit(ScorerSpec(kind="knn_distance", k=5), train, seed=0)
        s = score(scorer, batch).scores
        assert s[batch.labels == 1].min() > s[batch.labels == 0].mean()


class TestIsolationForest:
    def test_outliers_score_higher(self):
        train = gaussian_matrix(9, 400, d=4)
        batch = labeled_batch(10, 100, 20, d=4, shift=4.0)
        spec = ScorerSpec(kind="isolation_forest", n_trees=100)
        scorer = fit(spec, train, seed=11)
        s = score(scorer, batch).scores
        assert np.median(s[batch.labels == 1]) > np.median(s[batch.labels == 0])

    def test_score_range(self):
        train = gaussian_matrix(12, 300, d=3)
        spec = ScorerSpec(kind="isolation_forest", n_trees=50)
        scorer = fit(spec, train, seed=1)
        s = score(scorer, train).scores
        assert (s > 0.0).all() and (s < 1.0).all()

    def test_deterministic_in_seed(self):
        train = gaussian_matrix(13, 120, d=3)
        spec = ScorerSpec(kind="isolation_forest", n_trees=20)
        a = score(fit(spec, train, seed=5), train).scores
        b = score(fit(spec, train, seed=5), train).scores
        c = score(fit(spec, train, seed=6), train).scores
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_row_order_invariant(self):
        # subsampling happens over content-sorted rows, so shuffling the
        # training matrix cannot change the fitted forest
        train = gaussian_matrix(14, 150, d=3)
        perm = make_rng(99).permutation(train.n_rows)
        shuffled = gaussian_matrix(14, 150, d=3).values[perm]
        spec = ScorerSpec(kind="isolation_forest", n_trees=25)
        test = gaussian_matrix(15, 20, d=3)
        a = score(fit(spec, train, seed=3), test).scores
        b = score(fit(spec, DataMatrix(shuffled), seed=3), test).scores
        np.testing.assert_array_equal(a, b)

    def test_subsample_capped_at_n(self):
        train = gaussian_matrix(16, 40, d=2)
        spec = ScorerSpec(kind="isolation_forest", n_trees=10, subsample_size=256)
        scorer = fit(spec, train, seed=0)
        assert scorer.psi == 40


def path_lengths(feature, threshold, left, size, X, c_table):
    """Path lengths through one tree, walked level by level for the rows
    still on an inner node: the per-tree reference for the forest kernel."""
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.float64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        cur = node[active]
        go_left = X[active, feature[cur]] < threshold[cur]
        node[active] = np.where(go_left, left[cur], left[cur] + 1)
        depth[active] += 1.0
        active = active[feature[node[active]] >= 0]
    return depth + c_table[size[node]]


def reference_scores(scorer, X):
    c_table = np.array([average_path_length(m) for m in range(scorer.psi + 1)])
    paths = np.zeros(X.shape[0], dtype=np.float64)
    for lo, hi in zip(scorer.offsets[:-1], scorer.offsets[1:]):
        paths += path_lengths(*(a[lo:hi] for a in (scorer.feature, scorer.threshold,
                                                   scorer.left, scorer.size)),
                              X, c_table)
    return np.power(2.0, -(paths / scorer.n_trees) / average_path_length(scorer.psi))


@st.composite
def forests(draw):
    d = draw(st.sampled_from([1, 2, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rounded, repeated rows give equal values and leaves that end early
    distinct = np.round(rng.normal(size=(draw(st.integers(1, 30)), d)), draw(st.integers(0, 2)))
    train = distinct[rng.integers(distinct.shape[0], size=draw(st.integers(2, 90)))]
    test = np.vstack([train, np.round(rng.normal(scale=2.0, size=(draw(st.integers(1, 40)), d)),
                                      1)])
    psi = draw(st.integers(2, 64))
    depth = draw(st.sampled_from([1, None, int(np.ceil(np.log2(psi))) + 3, 40]))
    spec = ScorerSpec(kind="isolation_forest", n_trees=draw(st.integers(1, 12)),
                      subsample_size=psi, max_depth=depth)
    return spec, DataMatrix(train), DataMatrix(test), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60)
@given(forests())
def test_forest_kernel_matches_tree_walks(case):
    spec, train, test, seed = case
    scorer = fit(spec, train, seed)
    # rows that sit exactly on split thresholds go right
    on_split = scorer.threshold[scorer.feature >= 0][:40]
    test = DataMatrix(np.vstack([test.values,
                                 np.repeat(on_split[:, None], test.n_cols, axis=1)]))
    expected = reference_scores(scorer, test.values)
    np.testing.assert_array_equal(score(scorer, test).scores, expected)
    # one row per chunk puts every row on a chunk edge
    with mock.patch.object(detectors, "_FOREST_BLOCK", 1):
        np.testing.assert_array_equal(score(scorer, test).scores, expected)
    if train.n_rows >= 4:
        fitted = fit_pipeline(PipelineConfig(scorer=spec, strategy=split(0.5), seed=seed),
                              train)
        with tempfile.TemporaryDirectory() as tmp:
            snapshot_save(fitted, Path(tmp) / "forest.snap")
            loaded = snapshot_load(Path(tmp) / "forest.snap")
        np.testing.assert_array_equal(score_samples(loaded, test).scores,
                                      score_samples(fitted, test).scores)
        model = fitted.calibration.models[0]
        np.testing.assert_array_equal(score_samples(fitted, test).scores,
                                      reference_scores(model, test.values))


class TestFitValidation:
    def test_needs_two_rows(self):
        with pytest.raises(EmptyTrainingSet):
            fit(ScorerSpec(kind="knn_distance", k=1), gaussian_matrix(0, 1), seed=0)

    def test_external_not_fittable(self):
        spec = ScorerSpec(kind="external", polarity="higher_is_anomalous")
        with pytest.raises(InvalidHyperparameter):
            fit(spec, gaussian_matrix(0, 10), seed=0)

    def test_feature_count_checked_at_score_time(self):
        scorer = fit(ScorerSpec(kind="knn_distance", k=2),
                     gaussian_matrix(1, 10, d=3), seed=0)
        with pytest.raises(DimensionMismatch):
            score(scorer, gaussian_matrix(2, 5, d=2))


class TestPolarity:
    def test_lower_is_anomalous_negated(self):
        raw = np.array([1.0, -2.0, 3.0])
        out = normalize_polarity(raw, "lower_is_anomalous")
        np.testing.assert_array_equal(out.scores, -raw)
        assert out.polarity_normalized

    def test_auto_resolves_for_builtins(self):
        out = normalize_polarity(np.array([1.0]), "auto", kind="knn_distance")
        np.testing.assert_array_equal(out.scores, [1.0])

    def test_auto_ambiguous_for_external(self):
        with pytest.raises(AmbiguousPolarity):
            normalize_polarity(np.array([1.0]), "auto", kind="external")


class TestWrapDetached:
    def test_wraps_and_scores(self):
        scorer = wrap_detached(lambda X: X[:, 0], "higher_is_anomalous")
        batch = gaussian_matrix(17, 8, d=2)
        np.testing.assert_array_equal(score(scorer, batch).scores,
                                      batch.values[:, 0])

    def test_lower_polarity_negates(self):
        scorer = wrap_detached(lambda X: X[:, 0], "lower_is_anomalous")
        batch = gaussian_matrix(18, 8, d=2)
        np.testing.assert_array_equal(score(scorer, batch).scores,
                                      -batch.values[:, 0])

    def test_auto_refused(self):
        with pytest.raises(AmbiguousPolarity):
            wrap_detached(lambda X: X[:, 0], "auto")

    def test_non_callable_refused(self):
        with pytest.raises(InvalidHyperparameter):
            wrap_detached(3.0, "higher_is_anomalous")
