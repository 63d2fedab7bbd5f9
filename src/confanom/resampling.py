"""Conformalization strategies: split, cross-validation, jackknife, and
jackknife-after-bootstrap calibration.

Every strategy is a :class:`Plan`, a matrix of how many times each
resampled model trains on each row plus the out-of-bag mask of the models
that score each entry.  One entry, :func:`calibrate`, maps a
:class:`StrategySpec` to its plan (:func:`strategy_plan` and
:func:`kept_plan`, which a snapshot load calls again to rebuild the plan
from the strategy, the row count and the seed) and turns the plan into a
:class:`CalibrationModel`: calibration-score entries (:func:`score_entries`,
which a forest snapshot load calls again on the forest it regrows), each
bound to the model (or out-of-bag model set) that produced it, under the
out-of-sample discipline that no entry was scored by a model whose training
multiset contains that entry's row. The number of entries fixes the
p-value floor 1/(n_entries + 1) downstream.

A single-model calibration (split, detached, or a single_model strategy,
which refits one model on every row once the entries are scored) keeps one
model and pairs every entry with it.  It is a one-model plan: test scores
are a (n_test, 1) table and rank counting takes the same path as for any
other plan.

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
    check_count,
    check_real,
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
        for name, kind, least in (("k", "cross_validation", 2),
                                  ("n_bootstraps", "jackknife_bootstrap", 1)):
            if self.kind == kind:
                object.__setattr__(self, name, check_count(name, getattr(self, name), least))
            elif getattr(self, name) is not None:
                raise InvalidHyperparameter(f"{self.kind} does not take {name}")

    def _check_n_calib(self):
        if not isinstance(self.n_calib, (float, np.floating)):
            object.__setattr__(self, "n_calib", check_count("n_calib", self.n_calib, 1))
            return
        fraction = check_real("n_calib", self.n_calib, InvalidHyperparameter)
        if not 0.0 < fraction < 1.0:
            raise InvalidHyperparameter("n_calib fraction must be inside (0, 1)")
        object.__setattr__(self, "n_calib", fraction)


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
        held-out set of a detached calibration, on which its model trained
        zero times).
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
    strategy: StrategySpec

    def __post_init__(self):
        for name, dtype in (("entry_scores", np.float64), ("entry_rows", np.int64), ("oob", bool),
                            ("rows", np.float64), ("train_counts", np.uint16)):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype)))
        n = self.entry_scores.shape[0]
        if n == 0:
            raise EmptyCalibration("calibration produced no entries")
        if (self.entry_rows.shape != (n,) or self.oob.shape != (n, self.n_models)
                or self.train_counts.shape[1:] != self.rows.shape[:1]):
            raise ShapeMismatch("calibration arrays disagree in shape")

    @property
    def n_entries(self):
        return self.entry_scores.shape[0]

    @property
    def n_models(self):
        return self.train_counts.shape[0]

    @property
    def cal_rows(self):
        """The covariate rows behind the entries, in entry order."""
        return _readonly(self.rows[self.entry_rows])

    @property
    def models(self):
        """The retained k-NN models, each holding its expanded reference rows."""
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
    has count 0 on that row.
    """

    train_counts: np.ndarray
    streams: tuple[int, ...]
    entry_rows: np.ndarray
    oob: np.ndarray


def _resolve_n_calib(n_calib, n_rows):
    # a fraction rounds half away from zero; 0.2 of 1000 must be exactly 200
    resolved = int(np.floor(n_calib * n_rows + 0.5)) if isinstance(n_calib, float) else n_calib
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
    row once, in row order."""
    perm = make_rng(split_seed(seed, 0)).permutation(n)
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    fold = np.empty(n, dtype=np.int64)
    fold[perm] = np.repeat(np.arange(k), sizes)
    counts = (np.arange(k)[:, None] != fold).astype(np.uint16)
    return Plan(counts, tuple(range(1, k + 1)), np.arange(n), fold[:, None] == np.arange(k))


def bootstrap_plan(n, n_bootstraps, seed):
    """Bootstrap b draws n rows with replacement from stream 1 + 2b and fits
    from stream 2 + 2b.  Rows in-bag in every bootstrap give no entry."""
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
    return Plan(counts, tuple(range(2, 2 * n_bootstraps + 2, 2)), kept, oob[kept])


def _aggregate(values, aggregation):
    """Median or mean of each row of ``values``."""
    if aggregation == "median":
        return _median(values)
    return np.mean(values, axis=-1)


def _median(values):
    """``np.median`` of each row of finite ``values``, bit for bit, without
    importing ``numpy.ma``: the middle value of a partition, or (lo + hi) / 2
    of the two middle values.  Like the ``np.mean`` that ``np.median`` takes
    of them, the sum starts from +0.0, so a -0.0 median reads +0.0."""
    n = values.shape[-1]
    h = n // 2
    part = np.partition(values, h if n % 2 else [h - 1, h], axis=-1)
    if n % 2:
        return 0.0 + part[..., h]
    return (0.0 + part[..., h - 1] + part[..., h]) / 2.0


def _pool(scores, oob, aggregation):
    """Each entry's aggregate over its out-of-bag models.  Entries with the
    same number of models form one block, each row in model order, so the
    mean rounds as it does over the entry's scores alone."""
    per_entry = oob.sum(axis=1)
    pooled = np.empty(oob.shape[0], dtype=np.float64)
    for c in np.flatnonzero(np.bincount(per_entry)):
        sel = per_entry == c
        pooled[sel] = _aggregate(scores[sel][oob[sel]].reshape(-1, c), aggregation)
    return pooled


def plan_models(strategy, n):
    """How many models the plan of ``strategy`` over n rows fits: one for
    split, k folds, n jackknife folds or ``n_bootstraps``."""
    return {"split": 1, "cross_validation": strategy.k, "jackknife": n,
            "jackknife_bootstrap": strategy.n_bootstraps}[strategy.kind]


def strategy_plan(strategy, n, seed):
    """The plan of ``strategy`` over n rows: split and JaB have their own,
    cross-validation its k folds and the jackknife n folds of one row."""
    if strategy.kind == "split":
        return split_plan(n, strategy.n_calib, seed)
    if strategy.kind == "jackknife_bootstrap":
        return bootstrap_plan(n, strategy.n_bootstraps, seed)
    return cv_plan(n, _fold_count(strategy, n), seed)


def _fold_count(strategy, n):
    """k of a cross-validation or jackknife plan over n rows, checked."""
    k = plan_models(strategy, n)
    if not 2 <= k <= n:
        raise KOutOfRange("jackknife requires at least 2 rows" if strategy.kind == "jackknife"
                          else f"k must be in [2, {n}], got {k}")
    return k


def refits_every_row_in_order(strategy):
    """Whether ``strategy`` is a CV or jackknife single_model one, whose
    entries are every row in row order, so its kept plan needs no folds."""
    return strategy.mode == "single_model" and strategy.kind != "jackknife_bootstrap"


def kept_plan(strategy, n, seed, plan=None):
    """The plan a calibration of ``strategy`` over n rows keeps: the
    strategy's (``plan``, else drawn), or in single_model mode one model
    refitted on every row and paired with every entry, from stream 1 + k
    after k folds, which it does not draw, and from stream 0 after
    bootstraps, which name its entries."""
    if refits_every_row_in_order(strategy):
        entries, stream = np.arange(n), 1 + _fold_count(strategy, n)
    else:
        plan = strategy_plan(strategy, n, seed) if plan is None else plan
        if strategy.mode != "single_model":
            return plan
        entries, stream = plan.entry_rows, 0
    return Plan(np.ones((1, n), dtype=np.uint16), (stream,), entries,
                np.ones((entries.shape[0], 1), dtype=bool))


def score_entries(scorer, rows, plan, aggregation):
    """The entry scores of ``plan``: each entry's row scored under its
    out-of-bag models of ``scorer``, the plan's fitted models, and pooled
    with ``aggregation``.  A snapshot load of a forest calls this on the
    forest it grows again, as ``calibrate`` does on the one it fits."""
    scores = detectors.score_plan(scorer, DataMatrix(rows[plan.entry_rows]), plan.oob)
    return _pool(scores, plan.oob, aggregation)


def calibrate(spec, data, strategy, seed):
    """Calibrate scorer ``spec`` on ``data`` under ``strategy``: fit the
    plan's models, score each entry under its out-of-bag models and pool.

    In single_model mode the plan's models only produce the entries; one
    model refitted on every row is retained.  JaB drops the rows that are
    in-bag in every bootstrap and counts them in ``dropped_rows``: they
    vanish for any realistic number of bootstraps.
    """
    if not isinstance(data, DataMatrix):
        raise InvalidHyperparameter("data must be a DataMatrix")
    seed = check_seed(seed)
    rows = data.values
    plan = strategy_plan(strategy, rows.shape[0], seed)
    scorer = detectors.fit_plan(spec, rows, plan.train_counts, seed, plan.streams)
    entries = score_entries(scorer, rows, plan, strategy.aggregation)
    kept = kept_plan(strategy, rows.shape[0], seed, plan)
    if kept is not plan:
        scorer = detectors.fit_plan(spec, rows, kept.train_counts, seed, kept.streams)
    return CalibrationModel(
        entry_scores=entries, entry_rows=kept.entry_rows, oob=kept.oob, rows=rows,
        train_counts=kept.train_counts, scorer=scorer, strategy=strategy)


def calibrate_detached(scorer, calib):
    """Calibrate a pre-fitted scorer directly on a held-out inlier set."""
    if not isinstance(calib, DataMatrix):
        raise InvalidHyperparameter("calib must be a DataMatrix")
    n = calib.n_rows
    return CalibrationModel(
        entry_scores=detectors.score_plan(scorer, calib)[:, 0], entry_rows=np.arange(n),
        oob=np.ones((n, 1), dtype=bool), rows=calib.values,
        train_counts=np.zeros((1, n), dtype=np.uint16), scorer=scorer, strategy=split(n))


@dataclass(frozen=True)
class TestScores:
    """Per-test-point scores produced against a CalibrationModel.

    ``values`` is (n_test, n_models), one column per retained model.  A
    single-model calibration (split, detached or single_model) is a
    one-model plan, so its table has one column.
    """

    n_entries: int
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise ShapeMismatch("test scores must be a (n_test, n_models) table")
        object.__setattr__(self, "values", values)

    @property
    def n_test(self):
        return self.values.shape[0]


def test_score_matrix(cm, X):
    """Score test points under every model retained by the calibration: a
    (n_test, n_models) table, so rank counting can compare each entry with
    the test scores of the entry's own fold or out-of-bag models."""
    return TestScores(n_entries=cm.n_entries, values=detectors.score_plan(cm.scorer, X))


def _check_pairing(cm, ts):
    if ts.n_entries != cm.n_entries or ts.values.shape[1] != cm.n_models:
        raise DimensionMismatch(
            "test scores were not produced from this calibration model")


def paired_rank_counts(cm, ts):
    """Count calibration entries at least as large as, and larger than,
    each test point's paired score.

    Returns (ge, gt) int arrays of length n_test; ge - gt counts the ties.
    An entry is compared with the test score under its out-of-bag models,
    aggregated with the strategy's aggregation.  A single-model calibration
    pairs every entry with its one model, so there the paired score is the
    test score itself.

    With median aggregation and some out-of-bag set of more than one model
    (JaB+), entries are counted instead of medians taken.  For an entry
    with score E whose set's test scores are S, c = |S| and h = c // 2,
    E >= median(S) exactly when le = #{s in S : s <= E} > h, except when c
    is even and le == h: then E lies between the two middle scores and is
    compared with their midpoint, computed as ``np.median`` computes it.
    The same rule with lt = #{s < E} decides E > median(S).  The counts
    come from bit-packed masks, so no set's median is ever taken, and they
    equal those of the per-set medians whenever the midpoint of two scores
    does not overflow (k-NN distances of finite rows stay below 1e155 and
    forest scores lie in (0, 1]).  Other calibrations loop over the
    distinct out-of-bag sets, a single one for a single-model calibration.
    """
    _check_pairing(cm, ts)
    # where every set is one model (CV+, jackknife+) the loop below is
    # 1.7-3.5 times faster than counting, so only JaB+ sets go to the kernel
    if cm.strategy.aggregation == "median" and cm.oob.sum(axis=1).max() > 1:
        return _median_rank_counts(cm.entry_scores, cm.oob, ts.values)
    ge_gt = np.zeros((2, ts.n_test), dtype=np.int64)
    # entries sharing an out-of-bag set share the paired test score
    groups, inverse = np.unique(cm.oob, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(inverse))])
    for g, mask in enumerate(groups):
        paired_t = _aggregate(ts.values[:, np.flatnonzero(mask)], cm.strategy.aggregation)
        ge_gt += _tail_counts(np.sort(cm.entry_scores[order[bounds[g]:bounds[g + 1]]]),
                              paired_t)
    return ge_gt[0], ge_gt[1]


def _tail_counts(sorted_scores, t):
    """(ge, gt): how many of ``sorted_scores`` are >= and > each of ``t``."""
    n = sorted_scores.shape[0]
    return tuple(n - np.searchsorted(sorted_scores, t, side) for side in ("left", "right"))


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
    """One polarity-normalized score per test point: the test scores pooled
    over all models with the strategy's aggregation."""
    _check_pairing(cm, ts)
    return _aggregate(ts.values, cm.strategy.aggregation)
