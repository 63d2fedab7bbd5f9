"""Built-in anomaly scorers and the pluggable scorer contract.

Two detectors are implemented from scratch: an isolation forest and a
k-nearest-neighbor distance score. Both expose a fixed scoring function after
fitting (scoring the same point twice returns bit-identical values) and both
fit permutation-invariantly: reordering the training rows yields a scorer
with identical outputs everywhere. Score polarity is normalized at this
boundary so that downstream modules always see "larger = more anomalous".

Every model of a resampling plan is scored together: a k-NN plan from one
distance matrix per chunk of rows, a forest plan through all its trees at
once, one tree level per step.  The forests are grown level by level
across all trees, from counter-based Philox draws keyed by (model seed,
tree index), so a tree does not depend on which trees grow with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AmbiguousPolarity, DataMatrix, DimensionMismatch, EmptyTrainingSet,
                   InvalidData, InvalidHyperparameter, KTooLarge, ScoreVector, _readonly,
                   check_seed, philox_block, philox_choice, philox_uniform, split_seed)

SCORER_KINDS = ("isolation_forest", "knn_distance", "external")
POLARITIES = ("higher_is_anomalous", "lower_is_anomalous", "auto")

# row chunk for brute-force distance computations, bounds peak memory
_KNN_CHUNK = 512
# nearest rows in which a plan's models look for their k in-bag neighbours
# before falling back to the whole distance row
_KNN_WINDOW = 64
# element budget of one (models x rows x window) block of a plan scoring
_KNN_BLOCK = 1 << 21
# element budget of the (trees x cells) node matrix of a forest scoring
_FOREST_BLOCK = 1 << 15
# element budget of a chunk of trees grown together, per tree its rows or values
_FIT_BLOCK = 1 << 20


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


def average_path_length(m):
    """c(m) of the isolation-forest score: expected path length of an
    unsuccessful BST search in a subtree of m points."""
    m = int(m)
    if m <= 1:
        return 0.0
    # exact partial harmonic sum; m stays small (at most the subsample size)
    return 2.0 * float(np.sum(1.0 / np.arange(1, m))) - 2.0 * (m - 1) / m


def _grow(rows, keys, tree, cap, active, psi):
    """Node fields of a chunk of trees, tree after tree, and their node
    counts, grown level by level from the subsample rows ``active``.

    Every open node takes its per-feature range over its contiguous rows,
    draws a feature that varies there and a threshold uniform in its range
    from the first two words of counter block ``(node, 0)``, and splits its
    rows stably, rows below the threshold to the left.  Nodes are numbered
    in level order within their tree: a node's children are ``left`` and
    ``left + 1``.
    """
    n_trees, width = psi.shape[0], rows.shape[1]
    seg_tree, seg_node, seg_len = np.arange(n_trees), np.zeros(n_trees, np.int64), psi
    next_id, depth, splits = np.ones(n_trees, np.int64), 0, []
    while seg_tree.size:
        values = np.take(rows, active, axis=0)
        starts = np.cumsum(seg_len) - seg_len
        lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
        varied = hi > lo
        if not varied.any(axis=1).all():
            # nodes whose rows are all equal stay leaves
            s = varied.any(axis=1)
            active, values = active[np.repeat(s, seg_len)], values[np.repeat(s, seg_len)]
            seg_tree, seg_node, seg_len, lo, hi, varied = (
                a[s] for a in (seg_tree, seg_node, seg_len, lo, hi, varied))
            starts = np.cumsum(seg_len) - seg_len
        n_varied, split = varied.sum(axis=1), np.arange(seg_tree.size)
        words = philox_block(keys[seg_tree], tree[seg_tree], seg_node, 0)
        k = np.minimum((philox_uniform(words[0]) * n_varied).astype(np.int64), n_varied - 1)
        q = (np.cumsum(varied, axis=1) > k[:, None]).argmax(axis=1)
        a, b, u = lo[split, q], hi[split, q], philox_uniform(words[1])
        # the convex form cannot overflow; the clip absorbs its rounding
        threshold = np.clip(a * (1.0 - u) + b * u, a, b)
        # stable partition, left part first, by the left rows before each row
        of = np.repeat(split, seg_len)
        at = np.arange(of.shape[0])
        right = np.take(values.reshape(-1), at * width + q[of]) >= threshold[of]
        lefts = np.concatenate([[0], np.cumsum(~right)])
        n_left = lefts[starts + seg_len] - lefts[starts]
        before = lefts[:-1] - lefts[starts][of]
        placed = np.empty_like(active)
        placed[np.where(right, at + n_left[of] - before, starts[of] + before)] = active
        # children in level order: the r-th split of a tree at this level
        # takes the tree's next two ids after 2r others
        left = next_id[seg_tree] + 2 * (split - np.searchsorted(seg_tree, seg_tree))
        next_id += 2 * np.bincount(seg_tree, minlength=n_trees)
        child_len = np.column_stack([n_left, seg_len - n_left]).ravel()
        splits.append((seg_tree, seg_node, q, threshold, left, child_len))
        depth += 1
        grows = (child_len >= 2) & (depth < np.repeat(cap[seg_tree], 2))
        active = placed[np.repeat(grows, child_len)]
        seg_tree, seg_node = np.repeat(seg_tree, 2)[grows], (left[:, None] + [0, 1]).ravel()[grows]
        seg_len = child_len[grows]
    offsets, n_nodes = np.cumsum(next_id) - next_id, int(next_id.sum())
    feature, threshold = np.full(n_nodes, -1, np.int32), np.zeros(n_nodes)
    left, size = np.full(n_nodes, -1, np.int32), np.empty(n_nodes, np.int32)
    tr, node, q, split_at, child, child_len = map(np.concatenate, zip(*splits))
    at = offsets[tr] + node
    feature[at], threshold[at], left[at], size[offsets] = q, split_at, child, psi
    size[((offsets[tr] + child)[:, None] + [0, 1]).ravel()] = child_len
    return feature, threshold, left, size, next_id


def _fit_forests(spec, rows, counts, keys):
    """One ForestPlan: model b trains on row j of ``rows`` repeated
    ``counts[b, j]`` times and its tree t draws from the Philox key
    ``(keys[b], t)``.  Trees grow in chunks under the ``_FIT_BLOCK`` budget;
    a tree's draws depend only on its key, so no tree depends on the chunks."""
    n_trees, n_features = int(spec.n_trees), rows.shape[1]
    sizes = counts.sum(axis=1, dtype=np.int64)
    psi = np.minimum(int(spec.subsample_size), sizes)
    cap = np.array([spec.max_depth or math.ceil(math.log2(m)) for m in psi])
    # sorting rows by content makes the forest independent of row order
    order = np.lexsort(rows.T[::-1])
    keys = np.asarray(keys, dtype=np.uint64)
    step = max(1, _FIT_BLOCK // max(int(sizes.max()), int(psi.max()) * n_features))
    parts = []
    for lo in range(0, psi.shape[0] * n_trees, step):
        model, tree = np.divmod(np.arange(lo, min(lo + step, psi.shape[0] * n_trees)), n_trees)
        # a tree's subsample is positions of its model's rows sorted by
        # content, drawn from counter stream 1
        models, model = np.unique(model, return_inverse=True)
        expanded = np.concatenate([np.repeat(order, counts[b, order]) for b in models])
        base = np.cumsum(sizes[models]) - sizes[models]
        key, m_size, m_psi = keys[models][model], sizes[models][model], psi[models][model]
        sub = expanded[np.repeat(base[model], m_psi) + philox_choice(key, tree, m_size, m_psi, 1)]
        parts.append(_grow(rows, key, tree, cap[models][model], sub, m_psi))
    feature, threshold, left, size, n_nodes = map(np.concatenate, zip(*parts))
    return ForestPlan(spec, feature, threshold, left, size,
                      np.concatenate([[0], np.cumsum(n_nodes)]), psi, n_features)


class ForestPlan:
    """Every isolation forest of a resampling plan in one node table.

    Model b scores a point 2**(-E[h(x)] / c(psi_b)), with h the path length,
    psi_b the model's subsample size and c the average path length, so
    scores lie in (0, 1].  Node fields are concatenated model by model and
    tree by tree, as the snapshot stores them, with children local to their
    tree: tree t of model b starts at node ``offsets[b * n_trees + t]``.
    Scoring moves a (trees x cells) matrix of current nodes one level per
    step through tables in which leaves loop to themselves and each node
    carries its depth plus c(size); a (row, model) cell adds its trees'
    path lengths in tree order, as one walk per tree would, bit for bit.
    """

    kind = "isolation_forest"

    def __init__(self, spec, feature, threshold, left, size, offsets, psi, n_features):
        self.spec = spec
        for name, value, dtype in (("feature", feature, np.int32), ("left", left, np.int32),
                                   ("threshold", threshold, np.float64), ("size", size, np.int32),
                                   ("offsets", offsets, np.int64), ("psi", psi, np.int64)):
            setattr(self, name, _readonly(np.asarray(value, dtype=dtype)))
        self.n_trees, self.n_models = int(spec.n_trees), self.psi.shape[0]
        self.n_features = int(n_features)
        self._c_psi = np.array([average_path_length(m) for m in self.psi])
        c_table = np.array([average_path_length(m) for m in range(int(self.psi.max()) + 1)])
        inner = self.feature >= 0
        tree = np.repeat(np.arange(self.offsets.shape[0] - 1), np.diff(self.offsets))
        index = np.arange(self.feature.shape[0])
        # kernel tables: node -> left + (x[feature] >= threshold), with
        # leaves sent back to themselves by an infinite threshold
        self._next = np.where(inner, self.left + self.offsets[tree], index)
        self._feature = np.where(inner, self.feature, 0)
        self._threshold = np.where(inner, self.threshold, np.inf)
        # level pass from the roots; it ends because every child sits
        # after its parent
        depth, level, self._levels = np.zeros(index.shape[0], dtype=np.int64), self.offsets[:-1], 0
        while (level := level[inner[level]]).size:
            self._levels += 1
            level = np.concatenate([self._next[level], self._next[level] + 1])
            depth[level] = self._levels
        self._path = depth + c_table[self.size]

    def score_raw(self, X, mask=None):
        """(rows, models) scores; with ``mask``, only its cells, the rest 0."""
        n_rows, n_models, n_trees = X.shape[0], self.n_models, self.n_trees
        # cells run model by model, so that a chunk walks the trees of few
        # models and their node tables stay in cache
        out = np.zeros((n_models, n_rows), dtype=np.float64)
        cells = None if mask is None else np.flatnonzero(np.transpose(mask))
        total = out.size if cells is None else cells.shape[0]
        roots = self.offsets[:-1].reshape(n_models, n_trees).T
        flat = np.ascontiguousarray(X).ravel()
        step = max(1, _FOREST_BLOCK // n_trees)
        for lo in range(0, total, step):
            cell = np.arange(lo, min(lo + step, total)) if cells is None else cells[lo:lo + step]
            model, row = np.divmod(cell, n_rows)
            base = row * X.shape[1]
            node = roots[:, model]
            for _ in range(self._levels):
                x = flat[base + self._feature[node]]
                node = self._next[node] + (x >= self._threshold[node])
            # a running sum over trees adds them in tree order, as one
            # walk per tree would
            paths = np.add.accumulate(self._path[node], axis=0)[-1]
            out.reshape(-1)[cell] = np.power(2.0, -(paths / n_trees) / self._c_psi[model])
        return out.T


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


class ExternalScorer:
    """Pre-fitted opaque scoring callable wrapped for detached calibration."""

    kind = "external"

    def __init__(self, score_function, polarity):
        self.spec = ScorerSpec(kind="external", polarity=polarity)
        self.score_function = score_function
        self.polarity = polarity
        self.n_features = None

    def score_raw(self, X, mask=None):
        """One column of scores; ``mask`` is accepted and ignored."""
        raw = np.asarray(self.score_function(X), dtype=np.float64).reshape(-1)
        if raw.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"external scorer returned {raw.shape[0]} scores for {X.shape[0]} rows")
        if self.polarity == "lower_is_anomalous":
            raw = -raw
        return raw[:, None]


def fit(spec, train, seed):
    """Fit a scorer on training data.

    Parameters
    ----------
    spec : ScorerSpec
    train : DataMatrix
        At least 2 rows; for knn, more than ``spec.k`` rows.
    seed : int
        Isolation-forest tree t draws from the Philox key (seed, t) over rows
        sorted by content, so the input row order does not matter.

    Returns
    -------
    ForestPlan (with one model) or KnnScorer
    """
    if not isinstance(train, DataMatrix):
        raise InvalidHyperparameter("train must be a DataMatrix")
    plan = _fit(spec, train.values, np.ones((1, train.n_rows), dtype=np.uint16),
                [check_seed(seed)])
    return plan.models[0] if spec.kind == "knn_distance" else plan


def score(scorer, X):
    """Score a batch under one model. Returns a polarity-normalized ScoreVector."""
    _check_batch(scorer, X)
    return ScoreVector(scorer.score_raw(X.values).reshape(X.n_rows), polarity_normalized=True)


def _check_batch(scorer, X):
    if not isinstance(X, DataMatrix):
        raise InvalidHyperparameter("X must be a DataMatrix")
    if scorer.n_features is not None and X.n_cols != scorer.n_features:
        raise DimensionMismatch(
            f"scorer expects {scorer.n_features} features, got {X.n_cols}")


def fit_plan(spec, rows, counts, seed, streams):
    """Fit the models of a resampling plan on one shared row matrix.

    Model b trains on row j of ``rows`` repeated ``counts[b, j]`` times.
    k-NN models share a KnnPlan; the forests of all models grow together
    into one ForestPlan, model b from the key ``split_seed(seed, streams[b])``,
    so model b equals ``fit`` on its expanded rows with that child seed.
    """
    forest = spec.kind == "isolation_forest"
    return _fit(spec, rows, counts, [split_seed(seed, s) for s in streams] if forest else None)


def _fit(spec, rows, counts, keys):
    smallest = int(counts.sum(axis=1).min())
    if smallest < 2:
        raise EmptyTrainingSet("training requires at least 2 rows")
    if spec.kind == "knn_distance":
        if spec.k >= smallest:
            raise KTooLarge(f"k={spec.k} needs more than {smallest} training rows")
        return KnnPlan(spec, rows, counts)
    if spec.kind == "isolation_forest":
        return _fit_forests(spec, rows, counts, keys)
    raise InvalidHyperparameter(
        "external scorers are wrapped with wrap_detached, not fitted")


def score_plan(scorer, X, mask=None):
    """Polarity-normalized scores of a batch under every model of a plan.

    Returns an (n_rows, n_models) array.  ``mask`` (same shape), when given,
    names the cells the caller reads; forests score only those cells.
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
