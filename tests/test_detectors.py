import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confanom import detectors
from confanom.core import (AmbiguousPolarity, DataMatrix, DimensionMismatch,
                           EmptyTrainingSet, InvalidHyperparameter, KTooLarge,
                           make_rng, split_seed)
from confanom.detectors import (ScorerSpec, average_path_length, fit,
                                normalize_polarity, score, wrap_detached)
from confanom.pipeline import PipelineConfig, compute_p_values, score_samples
from confanom.pipeline import fit as fit_pipeline
from confanom.resampling import cross_validation, jackknife, jackknife_bootstrap, split
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


def trees_of(plan, b):
    """The node arrays of each tree of model b, in tree order."""
    cuts = plan.offsets[b * plan.n_trees:(b + 1) * plan.n_trees + 1]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield tuple(a[lo:hi] for a in (plan.feature, plan.threshold, plan.left, plan.size))


def reference_scores(plan, X):
    """(rows, models) scores from one walk per tree, summed in tree order."""
    c_table = np.array([average_path_length(m) for m in range(int(plan.psi.max()) + 1)])
    out = np.empty((X.shape[0], plan.n_models))
    for b in range(plan.n_models):
        paths = np.zeros(X.shape[0], dtype=np.float64)
        for tree in trees_of(plan, b):
            paths += path_lengths(*tree, X, c_table)
        out[:, b] = np.power(2.0, -(paths / plan.n_trees) / average_path_length(plan.psi[b]))
    return out


def reference_subsample(rows, counts, key, t, psi):
    """Tree t's subsample: a partial Fisher-Yates shuffle of the model's
    content-sorted multiset, with the uniforms of Philox key (key, t) from
    counter block 0 of stream 1 on."""
    order = np.lexsort(rows.T[::-1])
    multiset = np.repeat(order, counts[order])
    u = np.random.Generator(np.random.Philox(key=key + (t << 64), counter=1 << 64)).random(psi)
    perm = list(range(multiset.size))
    for j in range(psi):
        pick = j + min(int(u[j] * (multiset.size - j)), multiset.size - j - 1)
        perm[j], perm[pick] = perm[pick], perm[j]
    return multiset[perm[:psi]]


def check_tree_law(tree, rows, key, t, cap):
    """Route the subsample through the tree and check every node: its size
    counts its rows; an inner node splits below the cap on a feature that
    varies on its rows, at a threshold in that feature's range, both drawn
    from counter block ``node``; a leaf sits at the cap, on one row or on
    equal rows."""
    feature, threshold, left, size = tree
    todo = [(0, rows, 0)]
    seen = 0
    while todo:
        node, sub, depth = todo.pop()
        seen += 1
        assert size[node] == sub.shape[0]
        varied = np.flatnonzero(sub.max(axis=0) > sub.min(axis=0)) if sub.size else []
        if feature[node] < 0:
            assert depth >= cap or sub.shape[0] <= 1 or len(varied) == 0
            continue
        assert depth < cap and sub.shape[0] >= 2
        u = np.random.Generator(np.random.Philox(key=key + (t << 64), counter=node)).random(2)
        q = varied[min(int(u[0] * len(varied)), len(varied) - 1)]
        lo, hi = sub[:, q].min(), sub[:, q].max()
        assert feature[node] == q
        assert lo <= threshold[node] <= hi
        assert threshold[node] == np.clip(lo * (1.0 - u[1]) + hi * u[1], lo, hi)
        below = sub[:, q] < threshold[node]
        assert left[node] > node
        assert size[left[node]] + size[left[node] + 1] == size[node]
        todo += [(left[node], sub[below], depth + 1), (left[node] + 1, sub[~below], depth + 1)]
    assert seen == feature.shape[0]


@st.composite
def forest_plans(draw, max_trees=8):
    d = draw(st.sampled_from([1, 2, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rounded, repeated rows give equal values and leaves that end early
    distinct = np.round(rng.normal(size=(draw(st.integers(1, 30)), d)), draw(st.integers(0, 2)))
    rows = distinct[rng.integers(distinct.shape[0], size=draw(st.integers(2, 60)))]
    if draw(st.booleans()):
        # neighbouring doubles: a threshold between them rounds onto one
        rows = np.where(rng.random(rows.shape) < 0.5, rows, np.nextafter(rows, np.inf))
    counts = rng.integers(0, draw(st.integers(1, 3)) + 1,
                          size=(draw(st.integers(1, 5)), rows.shape[0])).astype(np.uint16)
    counts[:, :2] = np.maximum(counts[:, :2], 1)
    test = np.vstack([rows, np.round(rng.normal(scale=2.0, size=(draw(st.integers(1, 30)), d)),
                                     1)])
    psi = draw(st.integers(2, 64))
    depth = draw(st.sampled_from([1, None, int(np.ceil(np.log2(psi))) + 3, 40]))
    spec = ScorerSpec(kind="isolation_forest", n_trees=draw(st.integers(1, max_trees)),
                      subsample_size=psi, max_depth=depth)
    return spec, rows, counts, test, draw(st.integers(0, 2**64 - 1))


def fit_forest_plan(spec, rows, counts, seed):
    streams = tuple(range(3, 3 + counts.shape[0]))
    return detectors.fit_plan(spec, rows, counts, seed, streams), streams


@settings(max_examples=40)
@given(forest_plans())
def test_forest_plan_follows_tree_law(case):
    spec, rows, counts, _, seed = case
    plan, streams = fit_forest_plan(spec, rows, counts, seed)
    for b, stream in enumerate(streams):
        key, n_b = split_seed(seed, stream), int(counts[b].sum())
        psi = min(spec.subsample_size, n_b)
        assert plan.psi[b] == psi
        cap = spec.max_depth or int(np.ceil(np.log2(psi)))
        for t, tree in enumerate(trees_of(plan, b)):
            sub = rows[reference_subsample(rows, counts[b], key, t, psi)]
            check_tree_law(tree, sub, key, t, cap)
    # a tree depends only on its key: growing one tree per chunk, or a few,
    # gives the same node table
    for block in (1, 7):
        with mock.patch.object(detectors, "_FIT_BLOCK", block):
            chunked, _ = fit_forest_plan(spec, rows, counts, seed)
        for field in ("feature", "threshold", "left", "size", "offsets"):
            np.testing.assert_array_equal(getattr(chunked, field), getattr(plan, field))


@settings(max_examples=60)
@given(forest_plans(max_trees=12))
def test_forest_kernel_matches_tree_walks(case):
    spec, rows, counts, test, seed = case
    plan, _ = fit_forest_plan(spec, rows, counts, seed)
    # rows that sit exactly on split thresholds go right
    on_split = plan.threshold[plan.feature >= 0][:40]
    test = DataMatrix(np.vstack([test, np.repeat(on_split[:, None], test.shape[1], axis=1)]))
    expected = reference_scores(plan, test.values)
    mask = np.random.default_rng(seed % 2**32).random(expected.shape) < 0.3
    for block in (detectors._FOREST_BLOCK, 1):
        # one cell per chunk puts every cell on a chunk edge
        with mock.patch.object(detectors, "_FOREST_BLOCK", block):
            np.testing.assert_array_equal(detectors.score_plan(plan, test), expected)
            np.testing.assert_array_equal(detectors.score_plan(plan, test, mask),
                                          np.where(mask, expected, 0.0))
    alone = fit(spec, DataMatrix(rows[np.repeat(np.arange(rows.shape[0]), counts[0])]),
                split_seed(seed, 3))
    np.testing.assert_array_equal(score(alone, test).scores, expected[:, 0])


@settings(max_examples=15)
@given(forest_plans(), st.sampled_from([split(0.5), cross_validation(3), jackknife(),
                                        jackknife_bootstrap(4)]))
def test_forest_snapshot_p_values_equal_fresh_fit(case, strategy):
    spec, rows, _, test, seed = case
    if rows.shape[0] < 6:
        rows = np.vstack([rows, rows + 1.0, rows + 2.0])
    fitted = fit_pipeline(PipelineConfig(scorer=spec, strategy=strategy, seed=seed % 2**63),
                          DataMatrix(rows))
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_save(fitted, Path(tmp) / "forest.snap")
        loaded = snapshot_load(Path(tmp) / "forest.snap")
    test = DataMatrix(test)
    np.testing.assert_array_equal(compute_p_values(loaded, test).values,
                                  compute_p_values(fitted, test).values)
    np.testing.assert_array_equal(score_samples(loaded, test).scores,
                                  score_samples(fitted, test).scores)


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
