import dataclasses
import functools
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confanom import detectors, snapshot
from confanom.core import (AmbiguousPolarity, DataMatrix, DimensionMismatch,
                           EmptyTrainingSet, InvalidHyperparameter, KTooLarge,
                           make_rng, philox_block, philox_uniform, split_seed)
from confanom.detectors import (ForestPlan, ScorerSpec, average_path_length, fit_plan,
                                score_plan, wrap_detached)
from confanom.pipeline import PipelineConfig, compute_p_values, fit_detached, score_samples
from confanom.pipeline import fit as fit_pipeline
from confanom.resampling import (cross_validation, jackknife, jackknife_bootstrap, kept_plan,
                                  score_entries, split)
from confanom.snapshot import snapshot_load, snapshot_save

from conftest import gaussian_matrix, labeled_batch


def node_uniforms(key, t, node):
    """The two uniforms of counter block (node, 0) of the Philox key
    (key, t): a tree node's feature and threshold draws."""
    return np.random.Generator(np.random.Philox(key=key + (t << 64), counter=node)).random(2)


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
        assert ScorerSpec(kind="isolation_forest", max_depth=64).max_depth == 64
        with pytest.raises(InvalidHyperparameter, match="max_depth must be at most 64"):
            ScorerSpec(kind="isolation_forest", max_depth=65)

    @pytest.mark.parametrize("field", ["n_trees", "subsample_size", "max_depth", "k"])
    def test_counts_are_integers(self, field):
        # counts are refused, not truncated, unless they are integers, and
        # numpy integers are stored as plain ints; each count is a setting
        # of one kind only
        kind = "knn_distance" if field == "k" else "isolation_forest"
        for bad in (2.5, "3", True):
            with pytest.raises(InvalidHyperparameter, match=f"{field} must be an integer"):
                ScorerSpec(kind=kind, **{field: bad})
        value = getattr(ScorerSpec(kind=kind, **{field: np.int64(3)}), field)
        assert type(value) is int and value == 3


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


def fit_one(spec, train, seed):
    """A one-model plan on every row of ``train``."""
    return fit_plan(spec, train.values, np.ones((1, train.n_rows), dtype=np.uint16), seed, (0,))


class TestKnn:
    def test_kth_distance_matches_bruteforce(self):
        train = gaussian_matrix(1, 60, d=3)
        test = gaussian_matrix(2, 15, d=3)
        scorer = fit_one(ScorerSpec(kind="knn_distance", k=4), train, seed=0)
        got = score_plan(scorer, test)[:, 0]
        diffs = test.values[:, None, :] - train.values[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        expected = np.sort(dist, axis=1)[:, 3]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_mean_aggregation_matches_bruteforce(self):
        train = gaussian_matrix(3, 40, d=2)
        test = gaussian_matrix(4, 10, d=2)
        scorer = fit_one(ScorerSpec(kind="knn_distance", k=5, aggregation="mean"),
                         train, seed=0)
        got = score_plan(scorer, test)[:, 0]
        diffs = test.values[:, None, :] - train.values[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        expected = np.sort(dist, axis=1)[:, :5].mean(axis=1)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_training_point_excludes_nothing(self):
        # scoring a training row counts the zero self-distance among the k
        train = gaussian_matrix(5, 30, d=2)
        scorer = fit_one(ScorerSpec(kind="knn_distance", k=1), train, seed=0)
        got = score_plan(scorer, train)[:, 0]
        assert (got == 0.0).all()

    def test_k_too_large(self):
        train = gaussian_matrix(6, 5, d=2)
        with pytest.raises(KTooLarge):
            fit_one(ScorerSpec(kind="knn_distance", k=5), train, seed=0)

    def test_separates_outliers(self):
        train = gaussian_matrix(7, 200, d=4)
        batch = labeled_batch(8, 50, 10, d=4, shift=4.0)
        scorer = fit_one(ScorerSpec(kind="knn_distance", k=5), train, seed=0)
        s = score_plan(scorer, batch)[:, 0]
        assert s[batch.labels == 1].min() > s[batch.labels == 0].mean()


class TestIsolationForest:
    def test_outliers_score_higher(self):
        train = gaussian_matrix(9, 400, d=4)
        batch = labeled_batch(10, 100, 20, d=4, shift=4.0)
        spec = ScorerSpec(kind="isolation_forest", n_trees=100)
        scorer = fit_one(spec, train, seed=11)
        s = score_plan(scorer, batch)[:, 0]
        assert np.median(s[batch.labels == 1]) > np.median(s[batch.labels == 0])

    def test_score_range(self):
        train = gaussian_matrix(12, 300, d=3)
        spec = ScorerSpec(kind="isolation_forest", n_trees=50)
        scorer = fit_one(spec, train, seed=1)
        s = score_plan(scorer, train)[:, 0]
        assert (s > 0.0).all() and (s < 1.0).all()

    def test_deterministic_in_seed(self):
        train = gaussian_matrix(13, 120, d=3)
        spec = ScorerSpec(kind="isolation_forest", n_trees=20)
        a = score_plan(fit_one(spec, train, seed=5), train)[:, 0]
        b = score_plan(fit_one(spec, train, seed=5), train)[:, 0]
        c = score_plan(fit_one(spec, train, seed=6), train)[:, 0]
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
        a = score_plan(fit_one(spec, train, seed=3), test)[:, 0]
        b = score_plan(fit_one(spec, DataMatrix(shuffled), seed=3), test)[:, 0]
        np.testing.assert_array_equal(a, b)

    def test_subsample_capped_at_n(self):
        train = gaussian_matrix(16, 40, d=2)
        spec = ScorerSpec(kind="isolation_forest", n_trees=10, subsample_size=256)
        scorer = fit_one(spec, train, seed=0)
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


def level_order_tree(feature, threshold, leaf_size):
    """Per-node feature, threshold, left child and size of one tree stored
    by its level-order shape.  Numbering nodes level by level, each inner
    node in turn takes the next two ids for its children, and takes the
    next threshold; each leaf takes the next leaf size."""
    n = feature.shape[0]
    split, left, size = np.full(n, np.nan), np.full(n, -1), np.full(n, -1)
    next_id, n_inner = 1, 0
    for node in range(n):
        if feature[node] >= 0:
            split[node], left[node] = threshold[n_inner], next_id
            next_id, n_inner = next_id + 2, n_inner + 1
        else:
            size[node] = leaf_size[node - n_inner]
    assert next_id == n and n_inner == threshold.shape[0]
    return feature, split, left, size


def trees_of(plan, b):
    """Each tree of model b, in tree order, as per-node arrays."""
    cuts = plan.offsets[b * plan.n_trees:(b + 1) * plan.n_trees + 1]
    inner = np.concatenate([[0], np.cumsum(plan.feature >= 0)])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield level_order_tree(plan.feature[lo:hi], plan.threshold[inner[lo]:inner[hi]],
                               plan.leaf_size[lo - inner[lo]:hi - inner[hi]])


def depths_of(plan, b):
    """Each tree of model b's node depths, in tree order."""
    cuts = plan.offsets[b * plan.n_trees:(b + 1) * plan.n_trees + 1]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield plan.depth[lo:hi]


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


def check_tree_law(tree, depths, rows, index, key, t, cap):
    """Route the subsample, rows ``index`` of ``rows``, through the tree and
    check every node: an inner node splits below the cap on a feature that
    varies on its rows, at a threshold in that feature's range (its rows'
    least and greatest value there), both drawn from counter block
    ``node``; a leaf's size counts its rows, and it sits at the cap, on one
    row or on equal rows; every node's depth is the walk's."""
    feature, threshold, left, size = tree
    todo = [(0, index, 0)]
    seen = 0
    while todo:
        node, index, depth = todo.pop()
        sub = rows[index]
        seen += 1
        assert depths[node] == depth
        varied = np.flatnonzero(sub.max(axis=0) > sub.min(axis=0)) if sub.size else []
        if feature[node] < 0:
            assert size[node] == sub.shape[0]
            assert depth >= cap or sub.shape[0] <= 1 or len(varied) == 0
            continue
        assert depth < cap and sub.shape[0] >= 2
        u = node_uniforms(key, t, node)
        q = varied[min(int(u[0] * len(varied)), len(varied) - 1)]
        lo, hi = sub[:, q].min(), sub[:, q].max()
        assert feature[node] == q
        assert lo < hi and lo <= threshold[node] <= hi
        assert threshold[node] == np.clip(lo * (1.0 - u[1]) + hi * u[1], lo, hi)
        below = sub[:, q] < threshold[node]
        assert left[node] > node
        todo += [(left[node], index[below], depth + 1), (left[node] + 1, index[~below], depth + 1)]
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
        for t, (tree, depths) in enumerate(zip(trees_of(plan, b), depths_of(plan, b))):
            index = reference_subsample(rows, counts[b], key, t, psi)
            check_tree_law(tree, depths, rows, index, key, t, cap)
    # a tree depends only on its key: growing one tree per chunk, one
    # model's multiset per layout group, or chunks of n_trees + 1 trees in
    # one group, so that a chunk spans two models of their own row counts,
    # gives the same node table
    sizes = counts.sum(axis=1, dtype=np.int64)
    unit = int(plan.psi.max()) * rows.shape[1]
    for block in (1, int(sizes.max()), max(unit * (spec.n_trees + 1), int(sizes.sum()))):
        with mock.patch.object(detectors, "_FIT_BLOCK", block):
            chunked, _ = fit_forest_plan(spec, rows, counts, seed)
        for field in ("feature", "threshold", "leaf_size", "depth", "offsets"):
            np.testing.assert_array_equal(getattr(chunked, field), getattr(plan, field))
    # the plan's roots cut its node array into models x n_trees trees
    assert plan.offsets.shape == (counts.shape[0] * spec.n_trees + 1,)


def philox_rows(tweak, n, d):
    """n x d doubles from the Philox stream keyed by (20, tweak), whose bits,
    unlike numpy's Generator streams (NEP 19), no numpy version changes."""
    return philox_uniform(philox_words(tweak, n * d)).reshape(n, d)


def philox_words(tweak, n):
    blocks = (n + 3) // 4
    words = philox_block(np.full(blocks, 20, np.uint64), np.full(blocks, tweak, np.uint64),
                         np.arange(blocks), 0)
    return words.T.reshape(-1)[:n]


def pinned_cases():
    rows, one = philox_rows(1, 500, 2), np.ones((1, 500), np.uint16)
    two = np.ones((2, 129), np.uint16)
    two[0, 7] = 0
    repeats = (philox_uniform(philox_words(4, 900)) * 4).astype(np.uint16).reshape(3, 300)
    forest = functools.partial(ScorerSpec, "isolation_forest")
    return [
        ("one-model", forest(n_trees=200), rows, one,
         "1c0de5edd7cd4b2c95680b2795feda75987ef9f9b53d35a54b202b7ef65dff47"),
        ("psi-16", forest(n_trees=50, subsample_size=16), philox_rows(2, 1000, 3),
         np.ones((1, 1000), np.uint16),
         "726ccf863e42a7ed18bd7ff9c2d274a7fb9322bd968b48b79ccb6e4a26b59d92"),
        ("psi-all-rows", forest(n_trees=20, subsample_size=500), rows, one,
         "2fb6ebc44694071593003064b8e142379048e523d61210225a96944154b73816"),
        ("models-128-129", forest(n_trees=30), philox_rows(3, 129, 2), two,
         "86d9525225c6e9661e5af2de924afdea4ec103e7b16590b221d15d418b1f945a"),
        ("repeats", forest(n_trees=40, subsample_size=64), philox_rows(5, 300, 2), repeats,
         "8985ea48bf225be56f657061c0be85b13121be79c0f350d56aaa65dfd17232f6"),
    ]


@pytest.mark.parametrize("block", [detectors._FIT_BLOCK, 1], ids=["default", "tree-per-chunk"])
@pytest.mark.parametrize("name, spec, rows, counts, digest", pinned_cases(),
                         ids=[case[0] for case in pinned_cases()])
def test_forest_digests_pinned(name, spec, rows, counts, digest, block):
    # forests a snapshot stores by digest alone: changing how a fit draws
    # or grows them must not move one bit, whatever its chunks
    with mock.patch.object(detectors, "_FIT_BLOCK", block):
        plan = fit_plan(spec, rows, counts, 77, tuple(range(counts.shape[0])))
    assert detectors.forest_digest(plan.feature, plan.threshold, plan.leaf_size).hex() == digest


def test_large_constant_model_fits_quickly():
    # 2,621 trees of psi = 256 over 2^21 constant rows pass every snapshot
    # bound; their draw touches the slots it picks, and the multiset is
    # laid out once, so the fit, and a load, take well under a second
    spec = ScorerSpec(kind="isolation_forest", n_trees=2621)
    rows, counts = np.zeros((1 << 21, 1)), np.ones((1, 1 << 21), np.uint16)
    snapshot._check_forest_size(spec, counts, 1)
    began = time.perf_counter()
    plan = fit_plan(spec, rows, counts, 3, (0,))
    assert time.perf_counter() - began < 1.0
    assert plan.offsets.shape == (2622,) and (plan.leaf_size == 256).all()


def test_layout_groups_hold_fit_block_rows():
    # consecutive models are laid out together while their multisets fit
    # in _FIT_BLOCK rows; a model larger than that is laid out alone
    with mock.patch.object(detectors, "_FIT_BLOCK", 10):
        groups = detectors._layout_groups(np.array([4, 5, 2, 12, 3, 3, 3, 1]))
    assert groups == [(0, 2), (2, 3), (3, 4), (4, 8)]


COSTED_STRATEGIES = [split(0.5), cross_validation(3), cross_validation(5), jackknife(),
                     jackknife_bootstrap(4)]
COSTED_STRATEGIES += [dataclasses.replace(s, mode="single_model") for s in COSTED_STRATEGIES[1:]]


@st.composite
def costed_fits(draw):
    d = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.round(rng.normal(size=(draw(st.integers(8, 70)), d)), draw(st.integers(0, 2)))
    psi = draw(st.integers(2, 80))
    spec = ScorerSpec(kind="isolation_forest", n_trees=draw(st.integers(1, 10)),
                      subsample_size=psi, max_depth=draw(st.sampled_from([None, 1, 3, 40])))
    return (spec, rows, draw(st.sampled_from(COSTED_STRATEGIES)), draw(st.integers(0, 2**32)),
            draw(st.sampled_from([1, 7, 64, 1000, detectors._FIT_BLOCK])))


def walk_spy(handed):
    """``ForestPlan._score_chunks`` with the plan's child table swapped for
    one that adds to ``handed["steps"]`` the node steps the kernel takes:
    one per element of every node matrix it is read with, one read a
    level."""
    score, lock = ForestPlan._score_chunks, threading.Lock()

    class CountedTable(np.ndarray):
        def __getitem__(self, node):
            with lock:
                handed["steps"] += np.size(node)
            return np.asarray(self)[node]

    def spy_score(self, *args):
        if not isinstance(self._next, CountedTable):
            self._next = self._next.view(CountedTable)
        return score(self, *args)
    return spy_score


@settings(max_examples=60)
@given(costed_fits())
# CV+ over 41 rows trains models of 32 and 33 rows, under caps of 5 and 6
@example((ScorerSpec(kind="isolation_forest", n_trees=8, subsample_size=64),
          np.random.default_rng(2).normal(size=(41, 2)), cross_validation(5), 4,
          detectors._FIT_BLOCK))
def test_fit_cost_bounds_the_kernels(case):
    # every unit of work a fit and its entry scoring hand to philox_choice,
    # _grow and _score_chunks, added up call by call, is charged by fit_cost
    spec, rows, strategy, seed, block = case
    plan = kept_plan(strategy, rows.shape[0], seed)
    oob = None if strategy.mode == "single_model" else plan.oob
    handed = {"rows": 0, "shuffle_steps": 0, "cells": 0, "steps": 0}
    choice, grow = detectors.philox_choice, detectors._grow

    def spy_choice(key, tweak, sizes, counts, stream):
        handed["rows"] += int(counts.sum())
        handed["shuffle_steps"] += int(counts.max())
        return choice(key, tweak, sizes, counts, stream)

    def spy_grow(rows, sub, keys, model, tree, caps, psi):
        # each level down to its model's cap reads a subsample row's d
        # features and moves it, a move counted as 8 cells
        handed["cells"] += int(psi @ caps[model]) * (rows.shape[1] + 8)
        return grow(rows, sub, keys, model, tree, caps, psi)

    with mock.patch.object(detectors, "_FIT_BLOCK", block), \
            mock.patch.object(detectors, "philox_choice", spy_choice), \
            mock.patch.object(detectors, "_grow", spy_grow), \
            mock.patch.object(ForestPlan, "_score_chunks", walk_spy(handed)):
        cost = detectors.fit_cost(spec, plan.train_counts, rows.shape[1], oob)
        forest = fit_plan(spec, rows, plan.train_counts, seed, plan.streams)
        if oob is not None:
            score_entries(forest, rows, plan, strategy.aggregation)
        entry_steps, handed["steps"] = handed["steps"], 0
        score_plan(forest, DataMatrix(rows[:5]))
    for term in ("rows", "shuffle_steps", "cells"):
        # the draws and the growth are charged exactly what they are handed
        assert handed[term] == cost[term]
    assert handed["steps"] <= 5 * cost["walk"] and entry_steps <= cost["entry_steps"]


def test_chunks_walk_to_their_models_depth():
    # CV+ over 161 rows trains one model of 128 rows under a cap of 7 and
    # four of 129 under a cap of 8: fit_cost charges 50 trees x 5 models x 8
    # = 2,000 node steps per scored row, and a chunk of one model's cells
    # walks only to that model's deepest level, 1,950 steps a row in all
    spec, rows = ScorerSpec(kind="isolation_forest", n_trees=50), gaussian_matrix(5, 161, d=2)
    plan = kept_plan(cross_validation(5), 161, 5)
    forest = fit_plan(spec, rows.values, plan.train_counts, 5, plan.streams)
    assert detectors.fit_cost(spec, plan.train_counts, 2)["walk"] == 2000
    expected = score_plan(forest, rows)
    handed = {"steps": 0}
    with mock.patch.object(detectors, "_FOREST_BLOCK", 50 * 161), \
            mock.patch.object(ForestPlan, "_score_chunks", walk_spy(handed)):
        np.testing.assert_array_equal(score_plan(forest, rows), expected)
    assert handed["steps"] == 161 * 1950


@settings(max_examples=60)
@given(forest_plans(max_trees=12))
def test_forest_kernel_matches_tree_walks(case):
    spec, rows, counts, test, seed = case
    plan, _ = fit_forest_plan(spec, rows, counts, seed)
    # rows that sit exactly on split thresholds go right
    on_split = plan.threshold[:40]
    test = DataMatrix(np.vstack([test, np.repeat(on_split[:, None], test.shape[1], axis=1)]))
    expected = reference_scores(plan, test.values)
    mask = np.random.default_rng(seed % 2**32).random(expected.shape) < 0.3
    # one cell per chunk puts every cell on a chunk edge, and 1 to 3
    # threads share the chunks out
    for block, cpus in [(detectors._FOREST_BLOCK, detectors._cpus()), (1, 1), (1, 2), (1, 3)]:
        with mock.patch.object(detectors, "_FOREST_BLOCK", block), \
                mock.patch.object(detectors, "_cpus", lambda: cpus):
            np.testing.assert_array_equal(detectors.score_plan(plan, test), expected)
            np.testing.assert_array_equal(detectors.score_plan(plan, test, mask),
                                          np.where(mask, expected, 0.0))
    # model 0 alone, from the same key split_seed(seed, 3)
    alone = fit_plan(spec, rows[np.repeat(np.arange(rows.shape[0]), counts[0])],
                     np.ones((1, int(counts[0].sum())), dtype=np.uint16), seed, (3,))
    np.testing.assert_array_equal(score_plan(alone, test)[:, 0], expected[:, 0])


def test_forest_threads_bounded_and_joined():
    """No more threads than min(CPUs, chunks) start; a chunk's error reaches
    the caller after every thread has been joined."""
    plan, _ = fit_forest_plan(ScorerSpec(kind="isolation_forest", n_trees=4, subsample_size=8),
                              gaussian_matrix(0, 20, d=2).values,
                              np.ones((2, 20), dtype=np.uint16), 5)
    test = gaussian_matrix(1, 6, d=2)
    expected = reference_scores(plan, test.values)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    score_chunks = detectors.ForestPlan._score_chunks

    def failing(self, *args, bad):
        *head, starts, out = args

        def chunks():
            for lo in starts:
                if lo == bad:
                    raise ValueError(f"chunk {lo}")
                yield lo
        return score_chunks(self, *head, chunks(), out)

    before = threading.active_count()
    # with block 4, each chunk is one cell of 4 trees: 12 chunks
    for block, cpus, threads in [(4, 1, 0), (4, 2, 1), (4, 3, 2), (4, 64, 11), (1 << 15, 3, 0)]:
        with mock.patch.object(detectors, "_FOREST_BLOCK", block), \
                mock.patch.object(detectors, "_cpus", lambda: cpus), \
                mock.patch.object(detectors.threading, "Thread", Counted):
            started.clear()
            np.testing.assert_array_equal(detectors.score_plan(plan, test), expected)
            assert len(started) == threads
            # chunk 0 runs in the caller, chunk 1 on the first thread if any
            for bad in (0, 1, 11) if block == 4 else (0,):
                with mock.patch.object(detectors.ForestPlan, "_score_chunks",
                                       functools.partialmethod(failing, bad=bad)):
                    with pytest.raises(ValueError, match=f"chunk {bad}"):
                        detectors.score_plan(plan, test)
                assert threading.active_count() == before
                assert not any(t.is_alive() for t in started)


@settings(max_examples=20)
@given(forest_plans(max_trees=12), st.sampled_from([split(0.5), cross_validation(3),
                                                    jackknife(), jackknife_bootstrap(4)]))
def test_forest_snapshot_p_values_equal_fresh_fit(case, strategy):
    """A saved forest plan, stored by its digest alone, grows again at load
    with the same node arrays, thresholds included, and gives every model's
    score, and every p-value, bit for bit."""
    spec, rows, _, test, seed = case
    if rows.shape[0] < 6:
        rows = np.vstack([rows, rows + 1.0, rows + 2.0])
    fitted = fit_pipeline(PipelineConfig(scorer=spec, strategy=strategy, seed=seed % 2**63),
                          DataMatrix(rows))
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_save(fitted, Path(tmp) / "forest.snap")
        loaded = snapshot_load(Path(tmp) / "forest.snap")
    test = DataMatrix(test)
    plan, reloaded = fitted.calibration.scorer, loaded.calibration.scorer
    for field in ("feature", "leaf_size", "depth", "offsets", "psi"):
        np.testing.assert_array_equal(getattr(reloaded, field), getattr(plan, field))
    assert reloaded.threshold.view(np.uint64).tobytes() == plan.threshold.view(np.uint64).tobytes()
    np.testing.assert_array_equal(score_plan(reloaded, test).view(np.uint64),
                                  score_plan(plan, test).view(np.uint64))
    np.testing.assert_array_equal(compute_p_values(loaded, test).values,
                                  compute_p_values(fitted, test).values)
    np.testing.assert_array_equal(score_samples(loaded, test).scores,
                                  score_samples(fitted, test).scores)


class TestFitValidation:
    def test_needs_two_rows(self):
        with pytest.raises(EmptyTrainingSet):
            fit_one(ScorerSpec(kind="knn_distance", k=1), gaussian_matrix(0, 1), seed=0)

    def test_external_not_fittable(self):
        spec = ScorerSpec(kind="external")
        with pytest.raises(InvalidHyperparameter):
            fit_one(spec, gaussian_matrix(0, 10), seed=0)

    def test_feature_count_checked_at_score_time(self):
        scorer = fit_one(ScorerSpec(kind="knn_distance", k=2),
                         gaussian_matrix(1, 10, d=3), seed=0)
        with pytest.raises(DimensionMismatch):
            score_plan(scorer, gaussian_matrix(2, 5, d=2))


class TestPolarity:
    def test_lower_is_anomalous_negated(self):
        raw = np.array([1.0, -2.0, 3.0])
        fp = fit_detached(lambda X: X[:, 0], gaussian_matrix(3, 20), "lower_is_anomalous", 0)
        out = score_samples(fp, DataMatrix(raw[:, None]))
        np.testing.assert_array_equal(out.scores, -raw)
        assert out.polarity_normalized

    def test_auto_ambiguous_for_external(self):
        with pytest.raises(AmbiguousPolarity):
            wrap_detached(lambda X: X[:, 0], "auto")
        with pytest.raises(AmbiguousPolarity):
            fit_detached(lambda X: X[:, 0], gaussian_matrix(6, 20), "auto", 0)


class TestWrapDetached:
    def test_wraps_and_scores(self):
        scorer = wrap_detached(lambda X: X[:, 0], "higher_is_anomalous")
        batch = gaussian_matrix(17, 8, d=2)
        np.testing.assert_array_equal(score_plan(scorer, batch)[:, 0],
                                      batch.values[:, 0])

    def test_lower_polarity_negates(self):
        scorer = wrap_detached(lambda X: X[:, 0], "lower_is_anomalous")
        batch = gaussian_matrix(18, 8, d=2)
        np.testing.assert_array_equal(score_plan(scorer, batch)[:, 0],
                                      -batch.values[:, 0])

    def test_auto_refused(self):
        with pytest.raises(AmbiguousPolarity):
            wrap_detached(lambda X: X[:, 0], "auto")

    def test_non_callable_refused(self):
        with pytest.raises(InvalidHyperparameter):
            wrap_detached(3.0, "higher_is_anomalous")
