"""Property tests of the resampling plans against one model fitted per plan row.

A resampled model is the multiset of rows it trained on, so a plan's scores
must equal, bit for bit, the k-th nearest (or mean of the k nearest)
``scipy.spatial.distance.cdist`` distance to
``rows[np.repeat(arange(n), counts[b])]``, whatever the chunk and block
sizes of the filtered path.  A chunk of c rows is reached through the
filter budget: c times the plan's ref count (``filter_budget``).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from confanom import detectors, resampling
from confanom.core import DataMatrix
from confanom.detectors import ScorerSpec
from confanom.resampling import paired_rank_counts
from confanom.resampling import test_score_matrix as score_matrix

@st.composite
def cases(draw):
    n = draw(st.integers(8, 40))
    kind = draw(st.sampled_from(sorted(resampling.STRATEGY_KINDS)))
    mode = draw(st.sampled_from(resampling.MODES))
    aggregation = draw(st.sampled_from(resampling.AGGREGATIONS))
    if kind == "split":
        strategy = resampling.split(draw(st.integers(1, n - 4)))
    elif kind == "cross_validation":
        strategy = resampling.cross_validation(draw(st.integers(2, 6)), mode, aggregation)
    elif kind == "jackknife":
        strategy = resampling.jackknife(mode, aggregation)
    else:
        strategy = resampling.jackknife_bootstrap(draw(st.integers(1, 12)), mode, aggregation)
    spec = ScorerSpec(kind="knn_distance", k=draw(st.integers(1, 3)),
                      aggregation=draw(st.sampled_from(["kth", "mean"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        # coarse values give tied distances and duplicated rows
        rows = np.round(rows, 0)
    test = np.vstack([rng.normal(size=(7, rows.shape[1])), rows[:3]])
    chunk = draw(st.sampled_from([1, 3, None]))
    block = draw(st.sampled_from([1, 50, detectors._KNN_BLOCK]))
    seed = draw(st.integers(0, 99))
    return spec, strategy, DataMatrix(rows), DataMatrix(test), seed, chunk, block


def filter_budget(chunk, counts):
    """The ``_KNN_FILTER`` budget under which a plan over ``counts`` scores
    ``chunk`` rows per filter pass (fewer where ``_KNN_BLOCK`` binds), or
    the default budget when ``chunk`` is None."""
    if chunk is None:
        return detectors._KNN_FILTER
    return chunk * int(counts.any(axis=0).sum())


def expanded_scores(spec, rows, counts, X):
    """Reference: per plan row, every cdist distance to its expanded
    multiset, reduced by np.partition."""
    index = np.arange(rows.shape[0])
    columns = []
    for c in counts:
        part = np.partition(cdist(X, rows[np.repeat(index, c)]), spec.k - 1, axis=1)
        columns.append(part[:, spec.k - 1] if spec.aggregation == "kth"
                       else np.sort(part[:, :spec.k], axis=1).mean(axis=1))
    return np.column_stack(columns)


def reference_entries(spec, rows, plan, aggregation):
    """Each entry's out-of-bag scores, pooled one entry at a time."""
    scores = expanded_scores(spec, rows, plan.train_counts, rows[plan.entry_rows])
    pool = np.median if aggregation == "median" else np.mean
    return np.array([pool(np.asarray(scores[e, np.flatnonzero(m)]))
                     for e, m in enumerate(plan.oob)])


@given(cases())
def test_plan_scores_equal_expanded_models(case):
    spec, strategy, data, test, seed, chunk, block = case
    # calibrate scores its entries under the plan, a test batch is scored
    # under the kept plan
    plan = resampling.strategy_plan(strategy, data.n_rows, seed)
    kept = resampling.kept_plan(strategy, data.n_rows, seed, plan)
    with mock.patch.object(detectors, "_KNN_FILTER", filter_budget(chunk, plan.train_counts)), \
            mock.patch.object(detectors, "_KNN_BLOCK", block):
        scorer = detectors.fit_plan(spec, data.values, plan.train_counts, seed, plan.streams)
        np.testing.assert_array_equal(
            detectors.score_plan(scorer, test),
            expanded_scores(spec, data.values, plan.train_counts, test.values))
        cm = resampling.calibrate(spec, data, strategy, seed)
    with mock.patch.object(detectors, "_KNN_FILTER", filter_budget(chunk, kept.train_counts)), \
            mock.patch.object(detectors, "_KNN_BLOCK", block):
        ts = score_matrix(cm, test)
    np.testing.assert_array_equal(
        cm.entry_scores, reference_entries(spec, data.values, plan, strategy.aggregation))
    np.testing.assert_array_equal(
        ts.values, expanded_scores(spec, data.values, cm.train_counts, test.values))


@st.composite
def knn_plans(draw):
    """Count matrices of 1-130 models on up to 10 features, with ties,
    duplicated rows, a large common offset under a small spread, or
    subnormal squares, where the filter's rounding margin decides which
    refs are candidates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n_models, n = draw(st.integers(1, 10)), draw(st.integers(1, 130)), draw(st.integers(3, 40))
    counts = rng.integers(1, 3, size=(n_models, n)) * (rng.random((n_models, n))
                                                       < draw(st.floats(0.3, 1.0)))
    counts[:, :2] = np.maximum(counts[:, :2], 1)
    k = draw(st.integers(1, int(counts.sum(axis=1).min()) - 1))
    spec = ScorerSpec(kind="knn_distance", k=k,
                      aggregation=draw(st.sampled_from(["kth", "mean"])))
    rows, test = rng.normal(size=(n, d)), rng.normal(size=(draw(st.integers(1, 20)), d))
    shape = draw(st.sampled_from(["plain", "tied", "duplicated", "offset", "underflow"]))
    if shape == "tied":
        rows, test = np.round(rows), np.round(test)
    elif shape == "duplicated":
        rows[n // 2:] = rows[:n - n // 2]
        test[:min(3, test.shape[0])] = rows[:min(3, test.shape[0])]
    elif shape == "offset":
        offset = 10.0 ** draw(st.floats(2, 5))
        spread = 10.0 ** draw(st.floats(-4, -1))
        rows, test = offset + spread * rows, offset + spread * test
    elif shape == "underflow":
        # squared differences fall below the normal range
        rows, test = 1e-160 * rows, 1e-160 * test
    chunk = draw(st.sampled_from([1, None]))
    return spec, rows, counts.astype(np.uint16), test, chunk


@settings(max_examples=150)
@given(knn_plans())
def test_knn_plan_matches_cdist(case):
    spec, rows, counts, test, chunk = case
    plan = detectors.fit_plan(spec, rows, counts, 0, np.arange(counts.shape[0]))
    with mock.patch.object(detectors, "_KNN_FILTER", filter_budget(chunk, counts)):
        scores = detectors.score_plan(plan, DataMatrix(test))
    np.testing.assert_array_equal(scores, expanded_scores(spec, rows, counts, test))


@given(cases())
def test_out_of_sample_audit(case):
    # every model bound to an entry has count 0 on that entry's row
    spec, strategy, data, _, seed, _, _ = case
    plan = resampling.strategy_plan(strategy, data.n_rows, seed)
    assert plan.oob.any(axis=1).all()
    assert not (plan.train_counts[:, plan.entry_rows].T.astype(bool) & plan.oob).any()
    cm = resampling.calibrate(spec, data, strategy, seed)
    np.testing.assert_array_equal(cm.entry_rows, plan.entry_rows)
    if cm.strategy.mode == "plus" or strategy.kind == "split":
        assert not (cm.train_counts[:, cm.entry_rows].T.astype(bool) & cm.oob).any()
        trained_on = cm.model_train_indices
        for row, models in zip(cm.entry_rows, cm.entry_models):
            assert all(row not in trained_on[m] for m in models)
    assert cm.n_entries + cm.dropped_rows == (data.n_rows if strategy.kind != "split"
                                              else strategy.n_calib)


@given(cases())
def test_rank_counts_match_entry_loop(case):
    spec, strategy, data, test, seed, _, _ = case
    cm = resampling.calibrate(spec, data, strategy, seed)
    ts = score_matrix(cm, test)
    ge, gt = paired_rank_counts(cm, ts)
    pool = np.median if strategy.aggregation == "median" else np.mean
    paired = np.column_stack([pool(ts.values[:, list(m)], axis=1) for m in cm.entry_models])
    np.testing.assert_array_equal(ge, (cm.entry_scores >= paired).sum(axis=1))
    np.testing.assert_array_equal(gt, (cm.entry_scores > paired).sum(axis=1))


def test_forest_plan_fits_each_model_on_its_rows():
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.normal(size=(40, 2)))
    test = DataMatrix(rng.normal(size=(9, 2)))
    spec = ScorerSpec(kind="isolation_forest", n_trees=6, subsample_size=16)
    plan = resampling.bootstrap_plan(40, 5, seed=3)
    models = detectors.fit_plan(spec, data.values, plan.train_counts, 3, plan.streams)
    index = np.arange(40)
    for b, counts in enumerate(plan.train_counts):
        alone = detectors.fit_plan(spec, data.values[np.repeat(index, counts)],
                                   np.ones((1, int(counts.sum())), dtype=np.uint16), 3,
                                   (plan.streams[b],))
        np.testing.assert_array_equal(detectors.score_plan(models, test)[:, b],
                                      detectors.score_plan(alone, test)[:, 0])


@st.composite
def tied_tables(draw):
    """Median-pooled plus-mode tables with many models, coarse scores and
    mostly even out-of-bag sets, so that entries often sit exactly on a
    test score or on the midpoint of two."""
    n_models = draw(st.integers(50, 140))
    n, n_test = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 6))
    entries = rng.integers(0, 2 * levels, size=n) / 4.0
    values = rng.integers(0, levels, size=(n_test, n_models)) / 2.0
    oob = rng.random((n, n_models)) < draw(st.floats(0.01, 0.6))
    oob[np.arange(n), rng.integers(0, n_models, size=n)] = True
    for e in np.flatnonzero((oob.sum(axis=1) % 2 == 1) & (rng.random(n) < 0.8)):
        # toggle one model to make the set even
        flip = np.flatnonzero(~oob[e]) if not oob[e].all() else np.flatnonzero(oob[e])
        oob[e, flip[rng.integers(flip.size)]] ^= True
    return entries, oob, values, draw(st.sampled_from([1, 300, resampling._RANK_BLOCK]))


@given(tied_tables())
def test_median_rank_counts_match_entry_loop(table):
    entries, oob, values, block = table
    n, n_models = oob.shape
    cm = resampling.CalibrationModel(
        entry_scores=entries, entry_rows=np.arange(n), oob=oob, rows=np.zeros((n, 1)),
        train_counts=np.zeros((n_models, n), dtype=np.uint16), scorer=None,
        strategy=resampling.jackknife_bootstrap(n_models))
    ts = resampling.TestScores(n_entries=n, values=values)
    with mock.patch.object(resampling, "_RANK_BLOCK", block):
        ge, gt = paired_rank_counts(cm, ts)
    paired = np.column_stack([np.median(values[:, m], axis=1) for m in oob])
    np.testing.assert_array_equal(ge, (entries >= paired).sum(axis=1))
    np.testing.assert_array_equal(gt, (entries > paired).sum(axis=1))
