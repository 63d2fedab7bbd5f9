"""Built-in anomaly scorers and the pluggable scorer contract.

Two detectors are implemented from scratch: an isolation forest and a
k-nearest-neighbor distance score. Both expose a fixed scoring function after
fitting (scoring the same point twice returns bit-identical values) and both
fit permutation-invariantly: reordering the training rows yields a scorer
with identical outputs everywhere. Score polarity is normalized at this
boundary so that downstream modules always see "larger = more anomalous".

A forest scores a chunk of rows through all its trees at once, one tree
level per step; a k-NN plan scores all its models from one distance matrix
per chunk of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AmbiguousPolarity,
    DataMatrix,
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidData,
    InvalidHyperparameter,
    KTooLarge,
    ScoreVector,
    _readonly,
    check_seed,
    make_rng,
    split_seed,
)

SCORER_KINDS = ("isolation_forest", "knn_distance", "external")
POLARITIES = ("higher_is_anomalous", "lower_is_anomalous", "auto")

# row chunk for brute-force distance computations, bounds peak memory
_KNN_CHUNK = 512
# nearest rows in which a plan's models look for their k in-bag neighbours
# before falling back to the whole distance row
_KNN_WINDOW = 64
# element budget of one (models x rows x window) block of a plan scoring
_KNN_BLOCK = 1 << 21
# element budget of the (trees x rows) node matrix of a forest scoring
_FOREST_BLOCK = 1 << 15


@dataclass(frozen=True)
class ScorerSpec:
    """Configuration of an anomaly scorer.

    Parameters
    ----------
    kind : {'isolation_forest', 'knn_distance', 'external'}
    n_trees, subsample_size, max_depth
        Isolation forest settings. Depth defaults to ceil(log2(subsample)).
    k, aggregation
        knn settings; ``aggregation`` is 'kth' (k-th nearest distance) or
        'mean' (mean of the k nearest distances).
    polarity : {'higher_is_anomalous', 'lower_is_anomalous', 'auto'}
        'auto' resolves from the kind for built-ins and is an error for
        external scorers.
    """

    kind: str
    n_trees: int = 100
    subsample_size: int = 256
    max_depth: int | None = None
    k: int = 5
    aggregation: str = "kth"
    polarity: str = "auto"

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise InvalidHyperparameter(f"unknown scorer kind {self.kind!r}")
        if self.polarity not in POLARITIES:
            raise InvalidHyperparameter(f"unknown polarity {self.polarity!r}")
        if self.kind == "isolation_forest":
            if int(self.n_trees) < 1:
                raise InvalidHyperparameter("n_trees must be at least 1")
            if int(self.subsample_size) < 2:
                raise InvalidHyperparameter("subsample_size must be at least 2")
            if self.max_depth is not None and int(self.max_depth) < 1:
                raise InvalidHyperparameter("max_depth must be at least 1")
        elif self.kind == "knn_distance":
            if int(self.k) < 1:
                raise InvalidHyperparameter("k must be at least 1")
            if self.aggregation not in ("kth", "mean"):
                raise InvalidHyperparameter(
                    f"unknown knn aggregation {self.aggregation!r}")


def _harmonic(m):
    # exact partial sum; m stays small (at most the subsample size)
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def average_path_length(m):
    """c(m) of the isolation-forest score: expected path length of an
    unsuccessful BST search in a subtree of m points."""
    m = int(m)
    if m <= 1:
        return 0.0
    return 2.0 * _harmonic(m - 1) - 2.0 * (m - 1) / m


def _fit_tree(rows, rng, depth_cap):
    """Node arrays (feature, threshold, left, size) of one isolation tree.

    Nodes are numbered in creation order; an inner node's children are
    ``left`` and ``left + 1``, both after it, and feature < 0 marks a leaf.
    """
    feature, threshold, left, size = [-1], [0.0], [-1], [len(rows)]
    # (node_index, row_subset, depth), explicit stack so user-set depth
    # caps cannot hit the interpreter recursion limit
    stack = [(0, rows, 0)]
    while stack:
        node, sub, depth = stack.pop()
        if depth >= depth_cap or len(sub) <= 1:
            continue
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        cand = np.nonzero(hi > lo)[0]
        if len(cand) == 0:
            continue
        q = int(cand[rng.integers(len(cand))])
        t = float(rng.uniform(lo[q], hi[q]))
        mask = sub[:, q] < t
        below, above = sub[mask], sub[~mask]
        li = len(feature)
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        size += [len(below), len(above)]
        feature[node] = q
        threshold[node] = t
        left[node] = li
        stack.append((li, below, depth + 1))
        stack.append((li + 1, above, depth + 1))
    return feature, threshold, left, size


class IsolationForestScorer:
    """Isolation forest fitted on content-sorted, seeded subsamples.

    The anomaly score of a point is 2**(-E[h(x)] / c(psi)) with h the path
    length, psi the subsample size, and c the average-path-length constant,
    so scores lie in (0, 1].

    The trees are kept as the snapshot stores them: node fields of all
    trees concatenated, child indices local to their tree, and tree t
    holding nodes ``offsets[t]`` up to ``offsets[t + 1]``.  Scoring walks
    every tree at once: a (trees x rows) matrix of current nodes moves one
    level per step through tables in which leaves loop to themselves, and
    each node carries its depth plus c(size).  Per-tree path lengths are
    added in tree order, so scores equal those of one walk per tree, bit
    for bit.
    """

    kind = "isolation_forest"

    def __init__(self, spec, feature, threshold, left, size, offsets, psi,
                 n_features, training_size):
        self.spec = spec
        self.feature = _readonly(np.asarray(feature, dtype=np.int32))
        self.threshold = _readonly(np.asarray(threshold, dtype=np.float64))
        self.left = _readonly(np.asarray(left, dtype=np.int32))
        self.size = _readonly(np.asarray(size, dtype=np.int32))
        self.offsets = _readonly(np.asarray(offsets, dtype=np.int64))
        self.psi = int(psi)
        self.n_features = int(n_features)
        self.training_size = int(training_size)
        self._c_psi = average_path_length(psi)
        c_table = np.array([average_path_length(m) for m in range(psi + 1)])
        inner = self.feature >= 0
        tree = np.repeat(np.arange(self.n_trees), np.diff(self.offsets))
        index = np.arange(self.feature.shape[0])
        # kernel tables: node -> left + (x[feature] >= threshold), with
        # leaves sent back to themselves by an infinite threshold
        self._next = np.where(inner, self.left + self.offsets[tree], index)
        self._feature = np.where(inner, self.feature, 0)
        self._threshold = np.where(inner, self.threshold, np.inf)
        # level pass from the roots; it ends because every child sits
        # after its parent
        depth = np.zeros(index.shape[0], dtype=np.int64)
        level = self.offsets[:-1]
        self._levels = 0
        while True:
            level = level[inner[level]]
            if not level.size:
                break
            self._levels += 1
            level = np.concatenate([self._next[level], self._next[level] + 1])
            depth[level] = self._levels
        self._path = depth + c_table[self.size]

    @property
    def n_trees(self):
        return self.offsets.shape[0] - 1

    def score_raw(self, X):
        n_trees, n = self.n_trees, X.shape[0]
        paths = np.empty(n, dtype=np.float64)
        step = max(1, _FOREST_BLOCK // n_trees)
        for lo in range(0, n, step):
            rows = X[lo:lo + step]
            base = np.arange(rows.shape[0]) * rows.shape[1]
            flat = rows.ravel()
            node = np.repeat(self.offsets[:-1, None], rows.shape[0], axis=1)
            for _ in range(self._levels):
                x = flat[base + self._feature[node]]
                node = self._next[node] + (x >= self._threshold[node])
            # a running sum over trees adds them in tree order, as one
            # walk per tree would
            paths[lo:lo + step] = np.add.accumulate(self._path[node], axis=0)[-1]
        return np.power(2.0, -(paths / n_trees) / self._c_psi)


def _cdist(X, refs):
    # scipy.spatial is most of the package's import time and only k-NN
    # distances need it, so it is imported on first use
    from scipy.spatial.distance import cdist
    return cdist(X, refs)


def _knn_reduce(d, k, aggregation):
    """k-th smallest entry (or mean of the k smallest) of each row of d."""
    part = np.partition(d, k - 1, axis=1)
    if aggregation == "kth":
        return part[:, k - 1]
    # sort the k smallest before summing so the result does not depend on
    # partition's internal order under ties
    return np.sort(part[:, :k], axis=1).mean(axis=1)


class KnnScorer:
    """Distance to the k-th nearest training point (or mean over the k
    nearest). Query points are never removed from the reference set."""

    kind = "knn_distance"

    def __init__(self, spec, refs):
        self.spec = spec
        self.refs = _readonly(np.asarray(refs, dtype=np.float64))
        self.k = int(spec.k)
        self.aggregation = spec.aggregation
        self.n_features = self.refs.shape[1]
        self.training_size = self.refs.shape[0]

    def score_raw(self, X):
        out = np.empty(X.shape[0], dtype=np.float64)
        for start in range(0, X.shape[0], _KNN_CHUNK):
            d = _cdist(X[start:start + _KNN_CHUNK], self.refs)
            out[start:start + _KNN_CHUNK] = _knn_reduce(d, self.k, self.aggregation)
        return out


class KnnPlan:
    """Every k-NN model of a resampling plan, scored from one distance matrix.

    Model b's reference multiset is row j of ``rows`` repeated
    ``counts[b, j]`` times.  A query's distances to the rows are sorted
    within its ``_KNN_WINDOW`` nearest, and a model's j-th nearest distance
    sits at the first window position where the model's cumulative count
    reaches j.  Queries whose window holds fewer than k of a model's rows
    fall back to the whole distance row.  cdist computes each pair on its
    own, so every score equals that of a KnnScorer fitted on the expanded
    multiset, bit for bit.  ``mask`` is accepted and ignored: one distance
    matrix serves every model.
    """

    def __init__(self, spec, rows, counts):
        self.spec = spec
        self.k = int(spec.k)
        self.aggregation = spec.aggregation
        self.rows = rows
        self.counts = counts
        self.n_features = rows.shape[1]
        used = np.flatnonzero(counts.any(axis=0))
        self._refs = rows[used]
        self._counts = counts[:, used]

    @property
    def models(self):
        """One KnnScorer per model, holding its expanded training multiset."""
        index = np.arange(self.rows.shape[0])
        return tuple(KnnScorer(self.spec, self.rows[np.repeat(index, c)])
                     for c in self.counts)

    def score_raw(self, X, mask=None):
        n_models = self._counts.shape[0]
        if n_models == 1:
            return self.models[0].score_raw(X)[:, None]
        out = np.empty((X.shape[0], n_models), dtype=np.float64)
        w = min(_KNN_WINDOW, self._refs.shape[0])
        step = int(np.clip(_KNN_BLOCK // (n_models * w), 1, _KNN_CHUNK))
        for lo in range(0, X.shape[0], step):
            out[lo:lo + step] = self._window_scores(_cdist(X[lo:lo + step], self._refs), w).T
        return out

    def _window_scores(self, d, w):
        near = np.argpartition(d, w - 1, axis=1)[:, :w]
        order = np.argsort(np.take_along_axis(d, near, axis=1), axis=1)
        near = np.take_along_axis(near, order, axis=1)
        dist = np.take_along_axis(d, near, axis=1)
        cum = np.cumsum(self._counts[:, near], axis=2, dtype=np.int32)
        queries = np.arange(d.shape[0])[None, :]
        if self.aggregation == "kth":
            pos = (cum < self.k).sum(axis=2)
            missing = pos == w
            scores = dist[queries, np.minimum(pos, w - 1)]
        else:
            pos = np.stack([(cum <= j).sum(axis=2) for j in range(self.k)], axis=2)
            missing = pos[:, :, -1] == w
            scores = dist[queries[:, :, None], np.minimum(pos, w - 1)].mean(axis=2)
        for b in np.flatnonzero(missing.any(axis=1)):
            q = np.flatnonzero(missing[b])
            full = np.repeat(d[q], self._counts[b], axis=1)
            scores[b, q] = _knn_reduce(full, self.k, self.aggregation)
        return scores


class ModelSet:
    """Separately fitted models, one score column each: the isolation
    forests of a plan, or the external scorer of a detached calibration."""

    def __init__(self, models):
        self.models = tuple(models)
        self.n_features = self.models[0].n_features

    def score_raw(self, X, mask=None):
        out = np.zeros((X.shape[0], len(self.models)), dtype=np.float64)
        for b, model in enumerate(self.models):
            if mask is None:
                out[:, b] = model.score_raw(X)
            elif mask[:, b].any():
                out[mask[:, b], b] = model.score_raw(X[mask[:, b]])
        return out


class ExternalScorer:
    """Pre-fitted opaque scoring callable wrapped for detached calibration."""

    kind = "external"

    def __init__(self, score_function, polarity):
        self.spec = ScorerSpec(kind="external", polarity=polarity)
        self.score_function = score_function
        self.polarity = polarity
        self.n_features = None
        self.training_size = 0

    def score_raw(self, X):
        raw = np.asarray(self.score_function(X), dtype=np.float64)
        raw = raw.reshape(-1)
        if raw.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"external scorer returned {raw.shape[0]} scores for {X.shape[0]} rows")
        if self.polarity == "lower_is_anomalous":
            raw = -raw
        return raw


def fit(spec, train, seed):
    """Fit a scorer on training data.

    Parameters
    ----------
    spec : ScorerSpec
    train : DataMatrix
        At least 2 rows; for knn, more than ``spec.k`` rows.
    seed : int
        Isolation-forest trees draw their subsamples from child streams of
        this seed, keyed by tree index, over rows sorted lexicographically by
        content, which makes fitting independent of the input row order.

    Returns
    -------
    IsolationForestScorer or KnnScorer
    """
    if not isinstance(train, DataMatrix):
        raise InvalidHyperparameter("train must be a DataMatrix")
    seed = check_seed(seed)
    n = train.n_rows
    if n < 2:
        raise EmptyTrainingSet("training requires at least 2 rows")
    if spec.kind == "knn_distance":
        if spec.k >= n:
            raise KTooLarge(f"k={spec.k} needs more than {n} training rows")
        return KnnScorer(spec, train.values)
    if spec.kind == "isolation_forest":
        values = train.values
        order = np.lexsort(values.T[::-1])
        sorted_rows = values[order]
        psi = min(int(spec.subsample_size), n)
        depth_cap = int(spec.max_depth) if spec.max_depth is not None else math.ceil(math.log2(psi))
        fields = ([], [], [], [])
        offsets = [0]
        for t in range(int(spec.n_trees)):
            rng = make_rng(split_seed(seed, t))
            idx = rng.choice(n, size=psi, replace=False)
            for field, part in zip(fields, _fit_tree(sorted_rows[idx], rng, depth_cap)):
                field.extend(part)
            offsets.append(len(fields[0]))
        return IsolationForestScorer(spec, *fields, offsets, psi, train.n_cols, n)
    raise InvalidHyperparameter(
        "external scorers are wrapped with wrap_detached, not fitted")


def score(scorer, X):
    """Score a batch. Returns a polarity-normalized ScoreVector."""
    _check_batch(scorer, X)
    return ScoreVector(scorer.score_raw(X.values), polarity_normalized=True)


def _check_batch(scorer, X):
    if not isinstance(X, DataMatrix):
        raise InvalidHyperparameter("X must be a DataMatrix")
    if scorer.n_features is not None and X.n_cols != scorer.n_features:
        raise DimensionMismatch(
            f"scorer expects {scorer.n_features} features, got {X.n_cols}")


def fit_plan(spec, rows, counts, seed, streams):
    """Fit the models of a resampling plan on one shared row matrix.

    Model b trains on row j of ``rows`` repeated ``counts[b, j]`` times.
    k-NN models share a KnnPlan over the rows and counts; isolation forests
    are fitted one by one, model b from ``split_seed(seed, streams[b])``.
    Fitting sorts rows by content, so the order of the expanded rows does
    not matter.
    """
    sizes = counts.sum(axis=1)
    smallest = int(sizes.min())
    if smallest < 2:
        raise EmptyTrainingSet("training requires at least 2 rows")
    if spec.kind == "knn_distance":
        if spec.k >= smallest:
            raise KTooLarge(f"k={spec.k} needs more than {smallest} training rows")
        return KnnPlan(spec, rows, counts)
    index = np.arange(rows.shape[0])
    return ModelSet(fit(spec, DataMatrix(rows[np.repeat(index, c)]), split_seed(seed, s))
                    for c, s in zip(counts, streams))


def score_plan(scorer, X, mask=None):
    """Polarity-normalized scores of a batch under every model of a plan.

    Returns an (n_rows, n_models) array.  ``mask`` (same shape), when given,
    names the cells the caller reads; separately fitted models skip the rest.
    """
    _check_batch(scorer, X)
    values = scorer.score_raw(X.values, mask)
    bad = ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidData(row, col if values.shape[1] > 1 else None)
    return values


def normalize_polarity(raw, polarity, kind=None):
    """Normalize raw scores to the higher-is-anomalous convention.

    ``auto`` resolves from the scorer kind for built-in detectors; external
    or unknown kinds must state their polarity explicitly.
    """
    if polarity not in POLARITIES:
        raise InvalidHyperparameter(f"unknown polarity {polarity!r}")
    if polarity == "auto":
        if kind in ("isolation_forest", "knn_distance"):
            polarity = "higher_is_anomalous"
        else:
            raise AmbiguousPolarity(
                "polarity cannot be inferred for external scorers; state it explicitly")
    raw = np.asarray(raw, dtype=np.float64)
    if polarity == "lower_is_anomalous":
        raw = -raw
    return ScoreVector(raw, polarity_normalized=True)


def wrap_detached(score_function, polarity):
    """Wrap a pre-fitted scoring callable for detached calibration.

    The callable receives a (n, d) float array and must return n scores.
    Only the split (detached) calibration path accepts the result.
    """
    if polarity not in ("higher_is_anomalous", "lower_is_anomalous"):
        raise AmbiguousPolarity(
            "detached scorers must declare higher_is_anomalous or lower_is_anomalous")
    if not callable(score_function):
        raise InvalidHyperparameter("score_function must be callable")
    return ExternalScorer(score_function, polarity)
