"""Built-in anomaly scorers and the pluggable scorer contract.

Two detectors are implemented from scratch: an isolation forest and a
k-nearest-neighbor distance score. Both expose a fixed scoring function after
fitting (scoring the same point twice returns bit-identical values) and both
fit permutation-invariantly: reordering the training rows yields a scorer
with identical outputs everywhere. Score polarity is normalized at this
boundary so that downstream modules always see "larger = more anomalous".

Every model of a resampling plan is scored together: a k-NN plan from one
filter pass per chunk of rows, a forest plan through all its trees at
once, one tree level per step.  A forest fit draws each chunk of trees'
subsamples and grows them level by level before it draws the next, so no
fit holds every subsample at once.  Every draw is counter-based Philox
keyed by (model seed, tree index), so a tree does not depend on which
trees share its chunk, and a snapshot load, a fit, grows the same trees.

Forest scoring is the one step that runs on threads: its chunks of cells
are shared out over min(CPUs the process may run on, chunks) threads, the
caller among them.  Chunk bounds do not depend on that number, a cell's
trees are added in tree order inside its chunk, and each chunk writes only
its own cells, so scores have the same bits on one CPU or many.  k-NN
scoring stays on the caller's thread: its chunks spend most of their
time in Python and would wait on each other for the interpreter lock.

k-NN distances need numpy alone.  A matrix product gives every reference
row's filter value |r|^2 - 2 x.r; only the rows whose value lies within a
rounding margin (``_MARGIN``) of a query's w-th smallest get exact
distances, whose squared feature differences are added in feature order
as scipy's ``cdist`` adds them, so each score has ``cdist``'s bits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (AmbiguousPolarity, DataMatrix, DimensionMismatch, EmptyTrainingSet,
                   InvalidHyperparameter, KTooLarge, _readonly, check_count, check_finite,
                   check_settings, philox_block, philox_choice, philox_uniform, split_seed)

# each scorer kind's settings and their defaults (see ScorerSpec)
_SETTINGS = {"isolation_forest": {"n_trees": 100, "subsample_size": 256, "max_depth": None},
             "knn_distance": {"k": 5, "aggregation": "kth"}, "external": {}}
SCORER_KINDS = tuple(_SETTINGS)

# element budget of one (rows x refs) filter block, which with its
# partitioned copy stays in a 2 MB L2 cache
_KNN_FILTER = 1 << 17
# Margin of the k-NN filter (KnnPlan._nearest), in units of d (u M + u |t| + eta):
# u is the unit roundoff, eta the smallest subnormal, M = |x|^2 + max |r|^2,
# t the w-th smallest filter value of the row, gamma_n = n u / (1 - n u).
# A length-n dot product is off by at most gamma_n |x|.|r| in any summation
# order, with FMA or without (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.1), and by n eta / 2 more where products underflow.  The
# filter value a = [-2x, 1].[r, |r|^2] (length d + 1, |r|^2 itself rounded)
# is thus off |r|^2 - 2 x.r by at most gamma_d |r|^2 + gamma_{d+1} (2 |x| |r|
# + |r|^2) + 2 d eta <= (3d + 2) u M + 2 d eta, to first order in u, and the
# exact distance's square D, summed in feature order from rounded
# differences, is off by at most gamma_{d+2} D + d eta <= 2 (d + 2) u M + d eta.
# So a + |x|^2 and D differ by at most E = (5d + 6) u M + 3 d eta, any ref
# among the w nearest by D has a <= t + 2E, and 2E < 22 d (u M + eta) for
# d >= 1.  Two units more cover the second-order terms, the rounding of |x|^2 in M
# and that of the cut t + margin, at most u |t| + u margin.
_MARGIN = 24
_EPS = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal
# element budget of one (models x rows x window) block of a plan scoring
_KNN_BLOCK = 1 << 21
# element budget of the (trees x cells) node matrix of a forest scoring
_FOREST_BLOCK = 1 << 15
# element budget of a chunk of trees grown together (subsample rows x
# features) and of the training multisets laid out together
_FIT_BLOCK = 1 << 20
# a row's move through a level of _grow costs about as much as reading 8 of
# its features: 27 ns per row-level against 2-3.5 ns per cell
_MOVE_CELLS = 8
# ceiling of ScorerSpec.max_depth
MAX_DEPTH = 64


@dataclass(frozen=True)
class ScorerSpec:
    """Configuration of an anomaly scorer: its kind and that kind's
    settings only (``core.check_settings``), unset ones taking their defaults.

    Parameters
    ----------
    kind : {'isolation_forest', 'knn_distance', 'external'}
    n_trees=100, subsample_size=256, max_depth
        The forest's settings.  Depth defaults to ceil(log2(subsample)) and
        may not exceed MAX_DEPTH = 64, which that default passes only for
        2**64 rows; the ceiling bounds the levels a scoring walks for a spec
        read from an untrusted snapshot header.
    k=5, aggregation='kth'
        The k-NN settings; ``aggregation`` is 'kth' (k-th nearest distance)
        or 'mean' (mean of the k nearest distances).

    An external scorer has no settings: it states its polarity when wrapped
    (``wrap_detached``).  Built-in scores are higher-is-anomalous.
    """

    kind: str
    n_trees: int | None = None
    subsample_size: int | None = None
    max_depth: int | None = None
    k: int | None = None
    aggregation: str | None = None

    def __post_init__(self):
        check_settings(self, "kind", _SETTINGS, InvalidHyperparameter)
        for name, least in (("n_trees", 1), ("subsample_size", 2), ("max_depth", 1), ("k", 1)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if self.max_depth is not None and self.max_depth > MAX_DEPTH:
            raise InvalidHyperparameter(
                f"max_depth must be at most {MAX_DEPTH}, got {self.max_depth}")
        if self.aggregation not in (None, "kth", "mean"):
            raise InvalidHyperparameter(f"unknown knn aggregation {self.aggregation!r}")

    def depth_caps(self, psi):
        """The forest depth cap of each subsample size in ``psi``."""
        return np.array([self.max_depth or math.ceil(math.log2(m)) for m in psi])


def average_path_length(m):
    """c(m) of the isolation-forest score: expected path length of an
    unsuccessful BST search in a subtree of m points."""
    m = int(m)
    if m <= 1:
        return 0.0
    # exact partial harmonic sum; m stays small (at most the subsample size)
    return 2.0 * float(np.sum(1.0 / np.arange(1, m))) - 2.0 * (m - 1) / m


def _split_thresholds(a, b, words):
    """Each split's threshold, uniform in its range [a, b] by the isolation
    forest rule clip(a (1 - u) + b u, a, b) (Liu, Ting & Zhou 2008), with u
    from the second word of the split's counter block ``words``."""
    u = philox_uniform(words[1])
    # the convex form cannot overflow; the clip absorbs its rounding
    return np.clip(a * (1.0 - u) + b * u, a, b)


def _grow(rows, sub, keys, model, tree, caps, psi):
    """Feature and depth of every node, threshold of every inner node and
    size of every leaf, in node order, of a chunk of trees grown level by
    level: tree i, tree ``tree[i]`` of model ``model[i]``, holds the
    ``psi[i]`` rows of ``sub`` after those of the trees before it and draws
    from the Philox key ``(keys[model[i]], tree[i])``.  Nodes are numbered in
    level order within their tree, so its r-th inner node has children
    2r + 1 and 2r + 2.  A node of 2 rows or more below its cap
    (``caps[model[i]]``) whose rows differ on some feature is inner: it
    draws its feature among those that vary on its rows, from the first
    word of counter block ``(node, 0)``, takes its range as ``reduceat`` of
    ``minimum`` and ``maximum`` over its rows in the order a stable split
    keeps them, so -0.0 and 0.0 keep their bits, draws the threshold from
    the block's second word and splits the rows stably, lower rows left.
    """
    n_trees, width = psi.shape[0], rows.shape[1]
    key, cap, flat = keys[model], caps[model], np.ascontiguousarray(rows).reshape(-1)
    seg_tree, seg_node, seg_len = np.arange(n_trees), np.zeros(n_trees, np.int64), psi
    # active: the rows of the open nodes, node after node
    next_id, level, active = np.ones(n_trees, np.int64), 0, sub
    splits, leaves = [(*[np.zeros(0, np.int64)] * 3, np.zeros(0), np.zeros(0, np.int64))], []
    while seg_tree.size:
        starts = np.cumsum(seg_len) - seg_len
        # a feature varies on a node's rows where two neighbours differ on
        # it: rows are finite, so == is transitive (-0.0 equals 0.0).  A
        # node holds 2 rows or more, and no pair across two nodes counts
        values = np.take(rows, active, axis=0)
        differ = values[1:] != values[:-1]
        differ[starts[1:] - 1] = False
        varied = np.logical_or.reduceat(differ, starts)
        inner = varied.any(axis=1)
        if not inner.all():
            # nodes whose rows are all equal
            leaves.append((seg_tree[~inner], seg_node[~inner], seg_len[~inner],
                           np.full((~inner).sum(), level)))
            keep = np.repeat(inner, seg_len)
            active, seg_tree, seg_node, seg_len, varied = (
                active[keep], seg_tree[inner], seg_node[inner], seg_len[inner], varied[inner])
            starts = np.cumsum(seg_len) - seg_len
            if not seg_tree.size:
                break
        split = np.arange(seg_tree.size)
        of = np.repeat(split, seg_len)
        words = philox_block(key[seg_tree], tree[seg_tree], seg_node, 0)
        n_varied = varied.sum(axis=1)
        k = np.minimum((philox_uniform(words[0]) * n_varied).astype(np.int64), n_varied - 1)
        q = (np.cumsum(varied, axis=1) > k[:, None]).argmax(axis=1)
        value = flat[active * width + q[of]]
        a, b = np.minimum.reduceat(value, starts), np.maximum.reduceat(value, starts)
        threshold = _split_thresholds(a, b, words)
        # stable partition, left part first: with L the left rows before a
        # row, a left row moves to its segment's start plus its L - L0 (L0
        # at the start), a right row to its position plus n_left - L + L0
        right = value >= threshold[of]
        lefts = np.zeros(of.shape[0] + 1, np.int64)
        np.cumsum(~right, out=lefts[1:])
        first = lefts[starts]
        n_left = lefts[starts + seg_len] - first
        lefts = lefts[:-1]
        placed = np.empty_like(active)
        placed[np.where(right, np.arange(of.shape[0]) - lefts + (n_left + first)[of],
                        lefts + (starts - first)[of])] = active
        splits.append((seg_tree, seg_node, q, threshold, np.full(split.shape[0], level)))
        # children in level order: the r-th split of a tree at this level
        # takes the tree's next two ids after 2r others
        left = next_id[seg_tree] + 2 * (split - np.searchsorted(seg_tree, seg_tree))
        next_id += 2 * np.bincount(seg_tree, minlength=n_trees)
        level += 1
        child_tree, child_node = np.repeat(seg_tree, 2), (left[:, None] + [0, 1]).ravel()
        child_len = np.column_stack([n_left, seg_len - n_left]).ravel()
        grows = (child_len >= 2) & (level < cap[child_tree])
        leaves.append((child_tree[~grows], child_node[~grows], child_len[~grows],
                       np.full((~grows).sum(), level)))
        active = placed[np.repeat(grows, child_len)]
        seg_tree, seg_node, seg_len = child_tree[grows], child_node[grows], child_len[grows]
    s_tree, s_node, q, threshold, s_depth = map(np.concatenate, zip(*splits))
    l_tree, l_node, size, l_depth = map(np.concatenate, zip(*leaves))
    offsets = np.cumsum(next_id) - next_id
    s_at, l_at = offsets[s_tree] + s_node, offsets[l_tree] + l_node
    n_nodes = int(next_id.sum())
    feature, depth = np.full(n_nodes, -1, np.int32), np.empty(n_nodes, np.uint8)
    feature[s_at], depth[s_at], depth[l_at] = q, s_depth, l_depth
    return feature, threshold[np.argsort(s_at)], size[np.argsort(l_at)], depth


def forest_digest(feature, threshold, leaf_size):
    """SHA-256 of a forest's features as <i4, then its thresholds as <f8,
    then its leaf sizes as <i8, each in node order: the digest a snapshot
    stores and a load checks."""
    return hashlib.sha256(np.ascontiguousarray(feature, "<i4").tobytes()
                          + np.ascontiguousarray(threshold, "<f8").tobytes()
                          + np.ascontiguousarray(leaf_size, "<i8").tobytes()).digest()


def subsample_sizes(spec, counts):
    """psi of every model of a plan whose model b trains on ``counts[b]``:
    the subsample size, or the model's row count where that is smaller."""
    return np.minimum(spec.subsample_size, counts.sum(axis=1, dtype=np.int64))


def _chunk_trees(psi, n_features):
    """Trees per chunk of a forest fit whose models draw subsamples of
    ``psi`` rows of ``n_features``: ``_FIT_BLOCK`` // (the largest psi x
    ``n_features``), the cells a chunk's first level reads, at least one."""
    return max(1, _FIT_BLOCK // (int(psi.max()) * n_features))


def _layout_groups(sizes):
    """(first, stop) of each run of consecutive models whose training
    multisets, of ``sizes`` rows, a forest fit lays out together: as many
    as ``_FIT_BLOCK`` rows hold, or one whose multiset alone holds more."""
    groups, first, held = [], 0, 0
    for b, size in enumerate(sizes.tolist()):
        if held + size > _FIT_BLOCK and b > first:
            groups.append((first, b))
            first, held = b, 0
        held += size
    return groups + [(first, len(sizes))]


def fit_cost(spec, counts, n_features, oob=None):
    """The work ``fit_plan`` hands its kernels for forests of models trained
    on ``counts`` over ``n_features``, and with ``oob`` (entries x models)
    that of scoring each entry under its models, in the kernels' units:
    ``rows`` and ``shuffle_steps`` (each chunk's largest psi, chunks cut as
    ``_grow_forests`` cuts them) of ``philox_choice``, ``cells`` of ``_grow``
    down to each model's cap (a row's move counted as ``_MOVE_CELLS``), and
    the node steps of ``_score_chunks`` per scored row (``walk``) and for the
    entries (``entry_steps``) at the deepest cap, which bounds the level a
    chunk walks to.  Python integers, in time linear in the models, whatever
    n_trees."""
    psi, n_trees = subsample_sizes(spec, counts), spec.n_trees
    caps, step, steps = spec.depth_caps(psi), _chunk_trees(psi, n_features), 0
    for first, stop in _layout_groups(counts.sum(axis=1, dtype=np.int64)):
        lo, end = first * n_trees, stop * n_trees
        while lo < end:
            # the chunks from lo that end inside lo's model, else the one from lo
            run = max(1, (lo // n_trees * n_trees + n_trees - lo) // step)
            hi = min(lo + run * step, end)
            steps, lo = steps + run * int(psi[lo // n_trees:(hi - 1) // n_trees + 1].max()), hi
    cell = n_trees * int(caps.max())  # node steps of one (row, model) cell
    return {"rows": n_trees * int(psi.sum()), "shuffle_steps": steps, "walk": cell * psi.shape[0],
            "cells": n_trees * int(psi @ caps) * (n_features + _MOVE_CELLS),
            "entry_steps": 0 if oob is None else cell * int(oob.sum())}


def _grow_forests(spec, rows, counts, keys, psi):
    """The node arrays of a plan's trees (see ``_grow``), model by model and
    tree by tree, in one pass over chunks of trees: each chunk draws its
    trees' subsamples and grows them before the next is drawn.  Model b
    trains on row j repeated ``counts[b, j]`` times, and its tree t takes
    ``psi[b]`` distinct positions of that multiset sorted by content, drawn
    by ``philox_choice`` from stream 1 of the Philox key ``(keys[b], t)``.
    Sorting by content makes the forest independent of row order.  Each
    model's multiset is laid out once, in its ``_layout_groups`` group, whose
    trees are drawn and grown ``_chunk_trees`` at a time; a tree depends
    only on its key, so neither cut changes a bit."""
    n_trees, sizes = spec.n_trees, counts.sum(axis=1, dtype=np.int64)
    order, caps = np.lexsort(rows.T[::-1]), spec.depth_caps(psi)
    step, parts = _chunk_trees(psi, rows.shape[1]), []
    for first, stop in _layout_groups(sizes):
        # model b's multiset starts at base[b - first] of the group's
        base = np.cumsum(sizes[first:stop]) - sizes[first:stop]
        laid = np.concatenate([np.repeat(order, counts[b, order]) for b in range(first, stop)])
        for lo in range(first * n_trees, stop * n_trees, step):
            model, tree = np.divmod(np.arange(lo, min(lo + step, stop * n_trees)), n_trees)
            tree_psi = psi[model]
            sub = laid[np.repeat(base[model - first], tree_psi)
                       + philox_choice(keys[model], tree, sizes[model], tree_psi, 1)]
            parts.append(_grow(rows, sub, keys, model, tree, caps, tree_psi))
    return tuple(map(np.concatenate, zip(*parts)))


class ForestPlan:
    """Every isolation forest of a resampling plan in one node table.

    Model b scores a point 2**(-E[h(x)] / c(psi_b)), with h the path length,
    psi_b the model's subsample size and c the average path length, so
    scores lie in (0, 1].  Trees are stored by level-order shape, model by
    model and tree by tree, as ``_grow`` returns them: per node its
    ``feature`` (-1 for a leaf) and ``depth`` (0 at each root, so tree t of
    model b starts at node ``offsets[b * n_trees + t]``), per inner node its
    ``threshold`` and per leaf its ``leaf_size``.  The constructor only
    builds the scoring tables from what ``_grow_forests`` grew.

    Scoring moves a (trees x cells) matrix of current nodes one level per
    step, down to the deepest level of the chunk's models, through tables
    in which leaves loop to themselves and a leaf carries its depth plus
    c(size); a (row, model) cell adds its trees' path lengths in tree
    order, as one walk per tree would, bit for bit.  Cells are scored, model
    by model, in chunks of ``_FOREST_BLOCK`` // n_trees, and thread i of
    n = min(CPUs in ``os.sched_getaffinity``, chunks) takes chunks i, i + n,
    ...; the caller is thread 0, no thread is started when n is 1 and none
    outlives ``score_raw``.  A chunk's cells are its own, so the scores do
    not depend on n.
    """

    kind = "isolation_forest"

    def __init__(self, spec, n_features, psi, feature, threshold, leaf_size, depth):
        self.spec, self.n_trees, self.n_features = spec, spec.n_trees, n_features
        self.psi, self.feature, self.threshold, self.leaf_size, self.depth = map(
            _readonly, (np.asarray(psi, dtype=np.int64), feature, threshold, leaf_size, depth))
        self.n_models = self.psi.shape[0]
        inner, index = feature >= 0, np.arange(feature.shape[0])
        self.offsets = _readonly(np.append(np.flatnonzero(depth == 0), feature.shape[0]))
        start = np.repeat(self.offsets[:-1], np.diff(self.offsets))
        # kernel tables: node -> left child + (x[feature] >= threshold), with
        # leaves sent back to themselves by an infinite threshold
        rank = np.cumsum(inner) - inner  # inner nodes before each node
        self._next = np.where(inner, start + 2 * (rank - rank[start]) + 1, index)
        self._threshold = np.append(threshold, np.inf)[np.where(inner, rank, -1)]
        # intp, so that the per-level index add needs no cast; with int32
        # tables, threads sharing the kernel gained nothing
        self._feature = np.where(inner, feature, 0).astype(np.intp)
        # each model's deepest level, to which a chunk of its cells walks
        self._levels = np.maximum.reduceat(depth, self.offsets[:-1:self.n_trees])
        # c(m) of every subsample and leaf size that occurs, and of no other m
        c_table = np.zeros(int(self.psi.max()) + 1)
        m = np.flatnonzero(np.bincount(np.append(self.psi, leaf_size),
                                       minlength=c_table.shape[0]))
        c_table[m] = [average_path_length(v) for v in m]
        self._c_psi = c_table[self.psi]
        self._path = depth.astype(np.float64)  # walks end on leaves: inner ones are not read
        self._path[~inner] += c_table[leaf_size]

    def score_raw(self, X, mask=None):
        """(rows, models) scores; with ``mask``, only its cells, the rest 0."""
        n_rows, n_models, n_trees = X.shape[0], self.n_models, self.n_trees
        # cells run model by model, so that a chunk walks the trees of few
        # models and their node tables stay in cache
        out = np.zeros((n_models, n_rows), dtype=np.float64)
        cells = None if mask is None else np.flatnonzero(np.transpose(mask))
        total = out.size if cells is None else cells.shape[0]
        step = max(1, _FOREST_BLOCK // n_trees)
        starts = range(0, total, step)
        flat = np.ascontiguousarray(X).ravel()
        # every chunk writes its own cells of out, so the chunks may run in
        # any order and on any thread
        n_shares = max(1, min(_cpus(), len(starts)))
        _run_all([functools.partial(self._score_chunks, flat, X.shape[1], n_rows, cells, total,
                                    step, starts[share::n_shares], out)
                  for share in range(n_shares)])
        return out.T

    def _score_chunks(self, flat, n_features, n_rows, cells, total, step, starts, out):
        """Write the cells of the ``step``-cell chunks at ``starts`` into ``out``."""
        n_trees = self.n_trees
        roots = self.offsets[:-1].reshape(self.n_models, n_trees).T
        for lo in starts:
            cell = np.arange(lo, min(lo + step, total)) if cells is None else cells[lo:lo + step]
            model, row = np.divmod(cell, n_rows)
            base = row * n_features
            node = roots[:, model]
            for _ in range(self._levels[model].max()):
                x = flat[base + self._feature[node]]
                node = self._next[node] + (x >= self._threshold[node])
            # a running sum over trees adds them in tree order, as one
            # walk per tree would
            paths = np.add.accumulate(self._path[node], axis=0)[-1]
            out.reshape(-1)[cell] = np.power(2.0, -(paths / n_trees) / self._c_psi[model])


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_all(tasks):
    """Call every task, the first in the caller and each other on a thread
    of its own.  A task's exception is raised in the caller once every
    thread has been joined."""
    errors, started = [], []

    def run(task):
        try:
            task()
        except BaseException as error:  # re-raised in the caller below
            errors.append(error)

    try:
        for task in tasks[1:]:
            thread = threading.Thread(target=run, args=(task,))
            thread.start()
            started.append(thread)
        tasks[0]()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _distances(X, R):
    """Euclidean distances between X and R, which broadcast against each
    other over their leading axes: paired rows, or ``X[:, None]`` against
    every row of R.  Squared feature differences are added in feature order
    and then rooted, as scipy's ``cdist`` does, so the values are its bits."""
    s = np.square(X[..., 0] - R[..., 0])
    for i in range(1, X.shape[-1]):
        s += np.square(X[..., i] - R[..., i])
    return np.sqrt(s, out=s)


def _knn_reduce(d, k, aggregation):
    """k-th smallest entry (or mean of the k smallest) of each row of d."""
    part = np.partition(d, k - 1, axis=1)
    if aggregation == "kth":
        return part[:, k - 1]
    # sort the k smallest before summing so the result does not depend on
    # partition's internal order under ties
    return np.sort(part[:, :k], axis=1).mean(axis=1)


@dataclass(frozen=True)
class KnnModel:
    """One k-NN model of a plan: its expanded training multiset ``refs``.
    Query points are never removed from the reference set."""

    spec: ScorerSpec
    refs: np.ndarray

    @property
    def k(self):
        return self.spec.k


class KnnPlan:
    """Every k-NN model of a resampling plan, scored from one filter pass.

    Model b's reference multiset is row j of ``rows`` repeated
    ``counts[b, j]`` times; the plan's refs are the rows some model uses.
    Per query x, a BLAS product gives the filter value
    a = |r|^2 - 2 x.r of every ref r, which orders refs as the squared
    distance |x|^2 + a does, up to rounding.  With t the w-th smallest a of
    the row, only refs with a <= t + margin (see ``_MARGIN``) get exact
    distances, computed as ``cdist`` computes them; sorted per row, the
    first w of them are the w nearest refs, bit for bit.  w is k for a
    one-model plan and min(refs, 4k + 4) otherwise: every plan gives each
    ref an in-bag share of at least 1/2, so a model's k-th neighbour lies
    beyond the window with probability under 1e-3 at k = 5.  A model's j-th
    nearest distance sits at the first window position where its
    cumulative count reaches j; queries whose window holds fewer than k of
    a model's rows fall back to their exact full distance row.  So every
    score equals the k-th nearest (or mean of the k nearest) ``cdist``
    distance to the model's multiset, whatever w is.  ``mask`` is accepted
    and ignored: one filter pass serves every model.
    """

    def __init__(self, spec, rows, counts):
        self.spec = spec
        self.k = spec.k
        self.aggregation = spec.aggregation
        self.rows = rows
        self.counts = counts
        self.n_features = rows.shape[1]
        used = np.flatnonzero(counts.any(axis=0))
        self._refs = rows[used]
        self._counts = counts[:, used]
        # per ref, its count in every model: one row per window position
        self._table = np.ascontiguousarray(self._counts.T, dtype=np.int32)
        # the ranks j whose (j + 1)-th nearest distance a score reads
        self._ranks = np.arange(self.k) if self.aggregation == "mean" else np.array([self.k - 1])
        norms = np.einsum("ij,ij->i", self._refs, self._refs)
        # [-2x, 1] @ lift = |r|^2 - 2 x.r, the filter value of every ref
        self._lift = np.vstack([self._refs.T, norms])
        self._norm_max = norms.max()
        self._window = min(used.shape[0], self.k if counts.shape[0] == 1 else 4 * self.k + 4)

    @property
    def models(self):
        """One KnnModel per model, holding its expanded training multiset."""
        index = np.arange(self.rows.shape[0])
        return tuple(KnnModel(self.spec, _readonly(self.rows[np.repeat(index, c)]))
                     for c in self.counts)

    def score_raw(self, X, mask=None):
        n_models, w = self._counts.shape[0], self._window
        out = np.empty((X.shape[0], n_models), dtype=np.float64)
        step = max(1, min(_KNN_BLOCK // (n_models * w), _KNN_FILTER // self._refs.shape[0]))
        # rows near the float64 range overflow the filter, which then keeps
        # every ref; score_plan rejects distances that overflow themselves
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, X.shape[0], step):
                out[lo:lo + step] = self._window_scores(X[lo:lo + step])
        return out

    def _nearest(self, X):
        """Each row's w nearest refs and their exact distances, ascending."""
        w, (n, d), m = self._window, X.shape, self._lift.shape[1]
        a = np.hstack([-2.0 * X, np.ones((n, 1))]) @ self._lift
        t = np.partition(a, w - 1, axis=1)[:, w - 1]
        bound = np.einsum("ij,ij->i", X, X) + self._norm_max + np.abs(t)
        cut = t + _MARGIN * d * (_EPS * bound + _TINY)
        # a NaN cut (overflowed inputs) keeps every ref
        row, ref = np.divmod(np.flatnonzero(~(a > cut[:, None])), m)
        exact = _distances(X[row], self._refs[ref])
        # each row's candidates, in ref order, padded with +inf, which a
        # stable sort puts after them; ties keep ref order
        sizes = np.bincount(row, minlength=n)
        starts = np.cumsum(sizes) - sizes
        padded = np.full((n, int(sizes.max())), np.inf)
        padded[row, np.arange(row.shape[0]) - starts[row]] = exact
        pick = (starts[:, None] + np.argsort(padded, axis=1, kind="stable")[:, :w]).ravel()
        return ref[pick].reshape(-1, w), exact[pick].reshape(-1, w)

    def _window_scores(self, X):
        """(rows, models) scores of a chunk of queries."""
        near, dist = self._nearest(X)
        n, w = near.shape
        # each model's running count over the window, one position at a
        # time: its (j + 1)-th nearest sits at the number of positions whose
        # count is still at most j, a C-contiguous (rows, models, ranks) array
        # so that a mean adds each cell's k distances in rank order
        count = np.zeros((n, self._table.shape[1]), dtype=np.int32)
        pos = np.zeros((*count.shape, self._ranks.shape[0]), dtype=np.intp)
        for i in range(w):
            count += self._table[near[:, i]]
            pos += count[:, :, None] <= self._ranks
        missing = pos[:, :, -1] == w
        near_k = dist[np.arange(n)[:, None, None], np.minimum(pos, w - 1)]
        scores = near_k[:, :, 0] if self.aggregation == "kth" else near_k.mean(axis=2)
        rows = np.flatnonzero(missing.any(axis=1))
        if rows.size:
            full = _distances(X[rows, None, :], self._refs)
            for b in np.flatnonzero(missing.any(axis=0)):
                q = np.flatnonzero(missing[rows, b])
                scores[rows[q], b] = _knn_reduce(
                    np.repeat(full[q], self._counts[b], axis=1), self.k, self.aggregation)
        return scores


class ExternalScorer:
    """Pre-fitted opaque scoring callable wrapped for detached calibration."""

    kind = "external"

    def __init__(self, score_function, polarity):
        self.spec = ScorerSpec(kind="external")
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


def _check_batch(scorer, X):
    if not isinstance(X, DataMatrix):
        raise InvalidHyperparameter("X must be a DataMatrix")
    if scorer.n_features is not None and X.n_cols != scorer.n_features:
        raise DimensionMismatch(
            f"scorer expects {scorer.n_features} features, got {X.n_cols}")


def fit_plan(spec, rows, counts, seed, streams):
    """Fit the models of a resampling plan on one shared row matrix.

    Model b trains on row j of ``rows`` repeated ``counts[b, j]`` times, and
    every model needs 2 rows, a k-NN model more than k.  k-NN models share a
    KnnPlan; the forests of all models grow together into one ForestPlan,
    model b from the key ``split_seed(seed, streams[b])``, so model b equals
    a one-model plan on its expanded rows with that key, drawn and grown
    in one pass over chunks of trees (``_grow_forests``).  The result is a
    function of its arguments alone, bit for bit: a snapshot load calls
    this with the stored rows, the rebuilt plan and the stored seed, and
    gets the fitted forests back, which it checks against their stored
    ``forest_digest``.
    """
    smallest = int(counts.sum(axis=1, dtype=np.int64).min())
    if smallest < 2:
        raise EmptyTrainingSet("training requires at least 2 rows")
    if spec.kind == "knn_distance":
        if spec.k >= smallest:
            raise KTooLarge(f"k={spec.k} needs more than {smallest} training rows")
        return KnnPlan(spec, rows, counts)
    if spec.kind != "isolation_forest":
        raise InvalidHyperparameter(
            "external scorers are wrapped with wrap_detached, not fitted")
    keys = np.array([split_seed(seed, s) for s in streams], dtype=np.uint64)
    psi = subsample_sizes(spec, counts)
    return ForestPlan(spec, rows.shape[1], psi, *_grow_forests(spec, rows, counts, keys, psi))


def score_plan(scorer, X, mask=None):
    """Polarity-normalized scores of a batch under every model of a plan.

    Returns an (n_rows, n_models) array.  ``mask`` (same shape), when given,
    names the cells the caller reads; forests score only those cells.
    """
    _check_batch(scorer, X)
    return check_finite(scorer.score_raw(X.values, mask), "score")


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
