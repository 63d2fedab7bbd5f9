"""Conformalization strategies: split, cross-validation, jackknife, and
jackknife-after-bootstrap calibration.

Every strategy is a :class:`Plan`, a matrix of how many times each
resampled model trains on each row plus the out-of-bag mask of the models
that score each entry, and one generic calibration turns any plan into a
:class:`CalibrationModel`: calibration-score entries, each bound to the model
(or out-of-bag model set) that produced it, under the out-of-sample
discipline that no entry was scored by a model whose training multiset
contains that entry's row. The number of entries fixes the p-value floor
1/(n_entries + 1) downstream.

A plus-mode test point is compared with each entry through the median of
its test scores under the entry's out-of-bag models.  Where those sets
hold more than one model (JaB+), rank counting counts instead of taking
medians: with c models, h = c // 2 and le of their scores at most the
entry's score E, E >= median exactly when le > h, and only an even set with
le == h needs the midpoint of its two middle scores (see
``paired_rank_counts``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CalibrationTooLarge,
    DataMatrix,
    DimensionMismatch,
    EmptyCalibration,
    InvalidHyperparameter,
    KOutOfRange,
    NoOutOfBagRows,
    ShapeMismatch,
    _readonly,
    check_seed,
    make_rng,
    split_seed,
)
from . import detectors

STRATEGY_KINDS = ("split", "cross_validation", "jackknife", "jackknife_bootstrap")
MODES = ("plus", "single_model")
AGGREGATIONS = ("median", "mean")

# word budget of one block of median rank counting, the larger of its
# (test rows x entries x mask words) masks and (test rows x models) search
# positions; bounds peak memory
_RANK_BLOCK = 1 << 18


@dataclass(frozen=True)
class StrategySpec:
    """Configuration of a conformalization strategy.

    ``n_calib`` (split only) is an absolute count or a fraction in (0, 1) of
    the rows. ``mode`` applies to the resampling kinds: 'plus' keeps every
    fold/bootstrap model for paired test scoring, 'single_model' refits one
    scorer on all rows and keeps only that. ``aggregation`` is how plus-mode
    entries and test scores are pooled across out-of-bag models.
    """

    kind: str
    n_calib: int | float | None = None
    k: int | None = None
    n_bootstraps: int | None = None
    mode: str | None = None
    aggregation: str = "median"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise InvalidHyperparameter(f"unknown strategy kind {self.kind!r}")
        if self.aggregation not in AGGREGATIONS:
            raise InvalidHyperparameter(f"unknown aggregation {self.aggregation!r}")
        if self.kind == "split":
            if self.n_calib is None:
                raise InvalidHyperparameter("split requires n_calib")
            self._check_n_calib()
            if self.k is not None or self.n_bootstraps is not None or self.mode is not None:
                raise InvalidHyperparameter("split takes only n_calib")
            return
        if self.n_calib is not None:
            raise InvalidHyperparameter(f"{self.kind} does not take n_calib")
        if self.mode not in MODES:
            raise InvalidHyperparameter(
                f"{self.kind} requires mode 'plus' or 'single_model'")
        if self.kind == "cross_validation":
            if self.k is None or int(self.k) < 2:
                raise InvalidHyperparameter("cross_validation requires k >= 2")
        elif self.k is not None:
            raise InvalidHyperparameter(f"{self.kind} does not take k")
        if self.kind == "jackknife_bootstrap":
            if self.n_bootstraps is None or int(self.n_bootstraps) < 1:
                raise InvalidHyperparameter(
                    "jackknife_bootstrap requires n_bootstraps >= 1")
        elif self.n_bootstraps is not None:
            raise InvalidHyperparameter(f"{self.kind} does not take n_bootstraps")

    def _check_n_calib(self):
        v = self.n_calib
        if isinstance(v, bool):
            raise InvalidHyperparameter("n_calib must be a count or fraction")
        if isinstance(v, (int, np.integer)):
            if v < 1:
                raise InvalidHyperparameter("n_calib count must be positive")
        elif isinstance(v, float):
            if not 0.0 < v < 1.0:
                raise InvalidHyperparameter("n_calib fraction must be inside (0, 1)")
        else:
            raise InvalidHyperparameter("n_calib must be a count or fraction")


def split(n_calib):
    return StrategySpec(kind="split", n_calib=n_calib)


def cross_validation(k, mode="plus", aggregation="median"):
    return StrategySpec(kind="cross_validation", k=k, mode=mode, aggregation=aggregation)


def jackknife(mode="plus", aggregation="median"):
    return StrategySpec(kind="jackknife", mode=mode, aggregation=aggregation)


def jackknife_bootstrap(n_bootstraps, mode="plus", aggregation="median"):
    return StrategySpec(kind="jackknife_bootstrap", n_bootstraps=n_bootstraps,
                        mode=mode, aggregation=aggregation)


@dataclass(frozen=True)
class CalibrationModel:
    """Calibration entries plus the retained models that score tests.

    A resampled model is defined by the multiset of rows it trained on, so
    the rows are stored once and each model is a row of counts.

    Fields
    ------
    entry_scores : (n_entries,) float array, polarity normalized.
    entry_rows : (n_entries,) index into ``rows`` of each entry's row.
    oob : (n_entries, n_models) bool, the retained models each entry is
        paired with: its fold model or out-of-bag set in plus mode, model 0
        in single_model mode.
    rows : (n_rows, n_features) the data passed to calibration (the
        held-out set of a detached calibration).
    train_counts : (n_models, n_rows) uint16, how many times each retained
        model trained on each row.
    scorer : the retained models scored together: a ``detectors.KnnPlan``
        or ``detectors.ForestPlan`` over ``rows`` and ``train_counts``, or
        the wrapped scorer of a detached calibration.
    """

    entry_scores: np.ndarray
    entry_rows: np.ndarray
    oob: np.ndarray
    rows: np.ndarray
    train_counts: np.ndarray
    scorer: object
    mode: str
    strategy: StrategySpec
    detached: bool = False

    def __post_init__(self):
        for name, dtype in (("entry_scores", np.float64), ("entry_rows", np.int64), ("oob", bool),
                            ("rows", np.float64), ("train_counts", np.uint16)):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype)))
        n = self.entry_scores.shape[0]
        if n == 0:
            raise EmptyCalibration("calibration produced no entries")
        if self.mode not in MODES:
            raise InvalidHyperparameter(f"unknown mode {self.mode!r}")
        if (self.entry_rows.shape != (n,) or self.oob.shape != (n, self.n_models)
                or self.train_counts.shape[1:] != self.rows.shape[:1]):
            raise ShapeMismatch("calibration arrays disagree in shape")
        if self.mode == "single_model" and (self.n_models != 1 or not self.oob.all()):
            raise InvalidHyperparameter(
                "single_model calibration must bind every entry to model 0")

    @property
    def n_entries(self):
        return self.entry_scores.shape[0]

    @property
    def n_features(self):
        return self.rows.shape[1]

    @property
    def n_models(self):
        return self.train_counts.shape[0]

    @property
    def cal_rows(self):
        """The covariate rows behind the entries, in entry order."""
        return _readonly(self.rows[self.entry_rows])

    @property
    def models(self):
        """The retained k-NN scorers, one per model."""
        return self.scorer.models

    @property
    def entry_models(self):
        """Per entry, the tuple of model indices it is paired with."""
        return tuple(tuple(np.flatnonzero(m).tolist()) for m in self.oob)

    @property
    def model_train_indices(self):
        """Per model, the sorted multiset of row indices it trained on."""
        index = np.arange(self.rows.shape[0])
        return tuple(tuple(np.repeat(index, c).tolist()) for c in self.train_counts)

    @property
    def dropped_rows(self):
        """Rows that were in-bag in every bootstrap and produced no entry."""
        return 0 if self.strategy.kind == "split" else self.rows.shape[0] - self.n_entries


@dataclass(frozen=True)
class Plan:
    """A strategy's resampled models, each defined by the rows it trains on.

    ``train_counts[b, j]`` is how many times model b trains on row j, and
    model b is fitted from seed stream ``streams[b]``.  Entry e is row
    ``entry_rows[e]``, scored by the models ``oob[e]`` marks; each of them
    has count 0 on that row.  A single_model strategy refits one model on
    every row from ``refit_stream``.
    """

    train_counts: np.ndarray
    streams: tuple[int, ...]
    entry_rows: np.ndarray
    oob: np.ndarray
    refit_stream: int | None = None


def _resolve_n_calib(n_calib, n_rows):
    if isinstance(n_calib, float) and not isinstance(n_calib, bool):
        # round half away from zero; 0.2 of 1000 must be exactly 200
        resolved = int(np.floor(n_calib * n_rows + 0.5))
    else:
        resolved = int(n_calib)
    if resolved < 1:
        raise CalibrationTooLarge(
            f"n_calib={n_calib} resolves to {resolved}, need at least 1 entry")
    if resolved >= n_rows:
        raise CalibrationTooLarge(
            f"n_calib={n_calib} resolves to {resolved} of {n_rows} rows, "
            "leaving no training data")
    return resolved


def split_plan(n, n_calib, seed):
    """One model on a uniformly random D_train; entries are the rest.

    Stream 0 draws the partition and stream 1 fits the model, so the same
    seed always yields the same split.
    """
    n_cal = _resolve_n_calib(n_calib, n)
    cal_idx = np.sort(make_rng(split_seed(seed, 0)).permutation(n)[:n_cal])
    counts = np.ones((1, n), dtype=np.uint16)
    counts[0, cal_idx] = 0
    return Plan(counts, (1,), cal_idx, np.ones((n_cal, 1), dtype=bool))


def cv_plan(n, k, seed):
    """K folds from a seeded permutation; fold f's model trains on the other
    folds from stream 1 + f and scores fold f's rows.  Entries cover every
    row once, in row order; the single_model refit uses stream 1 + k."""
    if not 2 <= k <= n:
        raise KOutOfRange(f"k must be in [2, {n}], got {k}")
    perm = make_rng(split_seed(seed, 0)).permutation(n)
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    fold = np.empty(n, dtype=np.int64)
    fold[perm] = np.repeat(np.arange(k), sizes)
    oob = fold[:, None] == np.arange(k)
    return Plan((~oob.T).astype(np.uint16), tuple(range(1, k + 1)), np.arange(n),
                oob, refit_stream=1 + k)


def bootstrap_plan(n, n_bootstraps, seed):
    """Bootstrap b draws n rows with replacement from stream 1 + 2b and fits
    from stream 2 + 2b.  Rows in-bag in every bootstrap give no entry; the
    single_model refit uses stream 0."""
    counts = np.empty((n_bootstraps, n), dtype=np.uint16)
    for b in range(n_bootstraps):
        draw = make_rng(split_seed(seed, 1 + 2 * b)).integers(0, n, size=n)
        counts[b] = np.bincount(draw, minlength=n)
    oob = (counts == 0).T
    kept = np.flatnonzero(oob.any(axis=1))
    if not kept.size:
        raise NoOutOfBagRows(
            f"every row was in-bag in all {n_bootstraps} bootstraps; "
            "increase n_bootstraps")
    return Plan(counts, tuple(range(2, 2 * n_bootstraps + 2, 2)), kept, oob[kept],
                refit_stream=0)


def _aggregate(values, aggregation, axis=-1):
    if aggregation == "median":
        return np.median(values, axis=axis)
    return np.mean(values, axis=axis)


def _pool(scores, oob, aggregation):
    """Each entry's aggregate over its out-of-bag models.  Entries with the
    same number of models form one block, each row in model order, so the
    mean rounds as it does over the entry's scores alone."""
    per_entry = oob.sum(axis=1)
    pooled = np.empty(oob.shape[0], dtype=np.float64)
    for c in np.unique(per_entry):
        sel = per_entry == c
        pooled[sel] = _aggregate(scores[sel][oob[sel]].reshape(-1, c), aggregation, axis=1)
    return pooled


def _calibrate(spec, data, strategy, plan, seed):
    """Fit a plan's models, score each entry under its out-of-bag models and
    pool.  In single_model mode the plan's models only produce the entries;
    one model refitted on every row is retained."""
    rows = data.values
    scorer = detectors.fit_plan(spec, rows, plan.train_counts, seed, plan.streams)
    scores = detectors.score_plan(scorer, DataMatrix(rows[plan.entry_rows]), plan.oob)
    entries = _pool(scores, plan.oob, strategy.aggregation)
    counts, oob = plan.train_counts, plan.oob
    if strategy.mode == "single_model":
        counts = np.ones((1, rows.shape[0]), dtype=np.uint16)
        oob = np.ones((entries.shape[0], 1), dtype=bool)
        scorer = detectors.fit_plan(spec, rows, counts, seed, (plan.refit_stream,))
    return CalibrationModel(
        entry_scores=entries, entry_rows=plan.entry_rows, oob=oob, rows=rows,
        train_counts=counts, scorer=scorer,
        mode="plus" if strategy.mode == "plus" else "single_model",
        strategy=strategy)


def calibrate_split(spec, data, n_calib, seed):
    """Disjoint-split calibration: one scorer on D_train, entries on D_cal."""
    seed = check_seed(seed)
    return _calibrate(spec, data, split(n_calib),
                      split_plan(data.n_rows, n_calib, seed), seed)


def calibrate_detached(scorer, calib):
    """Calibrate a pre-fitted scorer directly on a held-out inlier set."""
    if not isinstance(calib, DataMatrix):
        raise InvalidHyperparameter("calib must be a DataMatrix")
    n = calib.n_rows
    return CalibrationModel(
        entry_scores=detectors.score_plan(scorer, calib)[:, 0], entry_rows=np.arange(n),
        oob=np.ones((n, 1), dtype=bool), rows=calib.values,
        train_counts=np.zeros((1, n), dtype=np.uint16), scorer=scorer,
        mode="single_model", strategy=split(n), detached=True)


def calibrate_cv(spec, data, k, mode, seed, aggregation="median"):
    """K-fold cross-conformal calibration.

    Each fold's rows are scored by the model trained on the other k-1 folds.
    'plus' keeps the k fold models; 'single_model' refits on all rows and
    rebinds every entry to that one model.
    """
    seed = check_seed(seed)
    plan = cv_plan(data.n_rows, int(k), seed)
    return _calibrate(spec, data, cross_validation(int(k), mode, aggregation), plan, seed)


def calibrate_jackknife(spec, data, mode, seed, aggregation="median"):
    """Leave-one-out calibration: the cross-validation plan with k = n_rows."""
    if data.n_rows < 2:
        raise KOutOfRange("jackknife requires at least 2 rows")
    seed = check_seed(seed)
    return _calibrate(spec, data, jackknife(mode, aggregation),
                      cv_plan(data.n_rows, data.n_rows, seed), seed)


def calibrate_bootstrap(spec, data, n_bootstraps, mode, seed, aggregation="median"):
    """Jackknife-after-bootstrap calibration.

    Each bootstrap resamples the rows with replacement and fits one scorer;
    a row's entry is the aggregate (default median) of its scores under the
    models for which it is out-of-bag. Rows that are in-bag everywhere are
    dropped and counted in ``dropped_rows`` rather than erred: they vanish
    for any realistic number of bootstraps.
    """
    seed = check_seed(seed)
    strategy = jackknife_bootstrap(int(n_bootstraps), mode, aggregation)
    return _calibrate(spec, data, strategy,
                      bootstrap_plan(data.n_rows, strategy.n_bootstraps, seed), seed)


@dataclass(frozen=True)
class TestScores:
    """Per-test-point scores produced against a CalibrationModel.

    ``values`` is (n_test,) in single_model mode and (n_test, n_models) in
    plus mode, one column per retained model.
    """

    mode: str
    n_entries: int
    values: np.ndarray
    aggregation: str = "median"

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _readonly(np.asarray(self.values, dtype=np.float64)))

    @property
    def n_test(self):
        return self.values.shape[0]


def test_score_matrix(cm, X):
    """Score test points under every model retained by the calibration.

    single_model: one score per test point. plus: a (n_test, n_models) table
    so estimation can compare each entry against the test score produced by
    the entry's own fold or out-of-bag models.
    """
    values = detectors.score_plan(cm.scorer, X)
    if cm.mode == "single_model":
        values = values[:, 0]
    return TestScores(mode=cm.mode, n_entries=cm.n_entries, values=values,
                      aggregation=cm.strategy.aggregation)


def _check_pairing(cm, ts):
    if ts.n_entries != cm.n_entries or ts.mode != cm.mode:
        raise DimensionMismatch(
            "test scores were not produced from this calibration model")
    if cm.mode == "plus" and ts.values.shape[1] != cm.n_models:
        raise DimensionMismatch(
            "test score table has the wrong number of model columns")


def paired_rank_counts(cm, ts):
    """Count calibration entries at least as large as each test point's
    paired score.

    Returns (ge, gt, eq) int arrays of length n_test, where the comparison
    for an entry uses the test score under that entry's bound model in plus
    mode (aggregated over the entry's out-of-bag set) and the single test
    score otherwise.

    Plus mode with median aggregation and some out-of-bag set of more than
    one model (JaB+) counts instead of taking medians.  For an entry with
    score E whose set's test scores are S, c = |S| and h = c // 2,
    E >= median(S) exactly when le = #{s in S : s <= E} > h, except when c
    is even and le == h: then E lies between the two middle scores and is
    compared with their midpoint, computed as ``np.median`` computes it.
    The same rule with lt = #{s < E} decides E > median(S).  The counts
    come from bit-packed masks, so no set's median is ever taken, and they
    equal those of the per-set medians whenever the midpoint of two scores
    does not overflow (k-NN distances of finite rows stay below 1e155 and
    forest scores lie in (0, 1]).  Other plus-mode calibrations loop over
    the distinct out-of-bag sets.
    """
    _check_pairing(cm, ts)
    n_test = ts.n_test
    if cm.mode == "single_model":
        entries = np.sort(cm.entry_scores)
        t = ts.values
        ge = cm.n_entries - np.searchsorted(entries, t, side="left")
        gt = cm.n_entries - np.searchsorted(entries, t, side="right")
        return ge.astype(np.int64), gt.astype(np.int64), (ge - gt).astype(np.int64)
    # where every set is one model (CV+, jackknife+) the loop below is
    # 1.7-3.5 times faster than counting, so only JaB+ sets go to the kernel
    if cm.strategy.aggregation == "median" and cm.oob.sum(axis=1).max() > 1:
        ge, gt = _median_rank_counts(cm.entry_scores, cm.oob, ts.values)
        return ge, gt, ge - gt
    ge = np.zeros(n_test, dtype=np.int64)
    gt = np.zeros(n_test, dtype=np.int64)
    # entries sharing an out-of-bag set share the paired test score
    groups, inverse = np.unique(cm.oob, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(inverse))])
    for g, mask in enumerate(groups):
        paired_t = _aggregate(ts.values[:, np.flatnonzero(mask)],
                              cm.strategy.aggregation, axis=1)
        group_scores = np.sort(cm.entry_scores[order[bounds[g]:bounds[g + 1]]])
        size = group_scores.shape[0]
        ge += size - np.searchsorted(group_scores, paired_t, side="left")
        gt += size - np.searchsorted(group_scores, paired_t, side="right")
    return ge, gt, ge - gt


def _median_rank_counts(entries, oob, t):
    """(ge, gt) of plus-mode median pairing by counting, as described in
    ``paired_rank_counts``.

    Entries are sorted by score.  Model b's test score t_b is at most the
    entry at sorted position p for every p from ``searchsorted(t_b)`` on, so
    setting bit b there and OR-accumulating along positions gives each
    position a mask of the models scoring at most its entry; its popcount
    against the entry's out-of-bag bits is le (lt with side='right').
    """
    order = np.argsort(entries, kind="stable")
    e, members = entries[order], oob[order]
    n, n_models = members.shape
    words = (n_models + 63) // 64
    packed = np.zeros((n, words * 8), dtype=np.uint8)
    packed[:, :(n_models + 7) // 8] = np.packbits(members, axis=1, bitorder="little")
    bits = packed.view("<u8").astype(np.uint64)
    size = members.sum(axis=1)
    # a count never exceeds n_models, so the narrowest type holding it will do
    half = (size // 2).astype(np.min_scalar_type(n_models))
    even = np.flatnonzero(size % 2 == 0)
    model = np.arange(n_models)
    word, bit = model // 64, np.left_shift(np.uint64(1), (model % 64).astype(np.uint64))
    ge, gt = np.zeros(t.shape[0], dtype=np.int64), np.zeros(t.shape[0], dtype=np.int64)
    step = max(1, _RANK_BLOCK // max((n + 1) * words, n_models))
    for lo in range(0, t.shape[0], step):
        block = t[lo:lo + step]
        rows = np.arange(block.shape[0])[:, None]
        for out, side in ((ge, "left"), (gt, "right")):
            masks = np.zeros((block.shape[0], n + 1, words), dtype=np.uint64)
            cell = (rows * (n + 1) + np.searchsorted(e, block, side=side)) * words + word
            np.bitwise_or.at(masks.reshape(-1), cell.reshape(-1),
                             np.broadcast_to(bit, cell.shape).reshape(-1))
            np.bitwise_or.accumulate(masks, axis=1, out=masks)
            below = np.zeros((block.shape[0], n), dtype=half.dtype)
            for w in range(words):
                below += np.bitwise_count(masks[:, :n, w] & bits[:, w])
            out[lo:lo + step] += np.count_nonzero(below > half, axis=1)
            i, p = np.nonzero(below[:, even] == half[even])
            out[lo:lo + step] += _midpoint_hits(block, i, e, members, even[p], side == "right")
    return ge, gt


def _midpoint_hits(block, i, e, members, p, strict):
    """Per row of ``block``, how many of the pairs (test row i[j], sorted
    entry p[j]) have the entry's score at least (``strict``: above) the
    midpoint of the two middle test scores of its out-of-bag set.  Each
    pair's set is even and has exactly half its scores at most (``strict``:
    below) the entry's score."""
    hits = np.zeros(block.shape[0], dtype=np.int64)
    step = max(1, _RANK_BLOCK // members.shape[1])
    for lo in range(0, i.shape[0], step):
        rows, x = i[lo:lo + step], e[p[lo:lo + step], None]
        vals, m = block[rows], members[p[lo:lo + step]]
        low = (vals < x) if strict else (vals <= x)
        mid = (np.where(m & low, vals, -np.inf).max(axis=1)
               + np.where(m & ~low, vals, np.inf).min(axis=1)) / 2.0
        hit = (x[:, 0] > mid) if strict else (x[:, 0] >= mid)
        hits += np.bincount(rows[hit], minlength=block.shape[0])
    return hits


def aggregate_test_scores(cm, ts):
    """One polarity-normalized score per test point (plus-mode scores are
    pooled over all models with the strategy's aggregation)."""
    _check_pairing(cm, ts)
    if cm.mode == "single_model":
        return ts.values.copy()
    return _aggregate(ts.values, cm.strategy.aggregation, axis=1)
