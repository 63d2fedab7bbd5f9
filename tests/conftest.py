import hashlib

import numpy as np
import pytest
from hypothesis import settings

from confanom.core import DataMatrix, make_rng

# property tests draw their examples from a fixed seed, so every run of the
# suite checks the same cases; numpy work makes per-example timing noisy
settings.register_profile("confanom", derandomize=True, deadline=None)
settings.load_profile("confanom")


@pytest.fixture
def rng():
    return make_rng(123)


def gaussian_matrix(seed, n, d=4, mean=0.0):
    g = np.random.default_rng(seed)
    return DataMatrix(g.normal(loc=mean, size=(n, d)))


def labeled_batch(seed, n_inliers, n_anomalies, d=4, shift=3.0):
    """Inliers then shifted anomalies, with 0/1 labels."""
    g = np.random.default_rng(seed)
    X = np.vstack([
        g.normal(size=(n_inliers, d)),
        g.normal(loc=shift, size=(n_anomalies, d)),
    ])
    labels = np.r_[np.zeros(n_inliers, dtype=int), np.ones(n_anomalies, dtype=int)]
    return DataMatrix(X, labels=labels)


def node_uniforms(key, t, node):
    """The two uniforms of counter block (node, 0) of the Philox key
    (key, t): a tree node's feature and threshold draws."""
    return np.random.Generator(np.random.Philox(key=key + (t << 64), counter=node)).random(2)


def forest_digest(threshold, leaf_size):
    """The forest digest a snapshot stores: SHA-256 of the thresholds as
    <f8, then the leaf sizes as <i8."""
    return hashlib.sha256(np.asarray(threshold, "<f8").tobytes()
                          + np.asarray(leaf_size, "<i8").tobytes()).digest()


def chain_tree(values, key, t, depth, f, larger=True):
    """A tree of ``depth`` inner nodes in a chain, each split on feature f,
    that goes on at the child with more rows (or, with ``larger`` false,
    fewer), routing the values of its subsample on f as a
    fit does: its level-order features, its thresholds and its leaf sizes.
    The thresholds and sizes hold while every chain node has 2 rows that
    differ.  The chain's r-th inner node has children 2r + 1 and 2r + 2."""
    feature, sizes, thresholds = np.full(2 * depth + 1, -1), np.zeros(2 * depth + 1, int), []
    feature[0], node, rows = f, 0, values
    for r in range(depth):
        threshold, below, above = np.nan, rows, rows[:0]
        if rows.size >= 2:
            u = node_uniforms(key, t, node)[1]
            lo, hi = rows.min(), rows.max()
            threshold = np.clip(lo * (1.0 - u) + hi * u, lo, hi)
            below, above = rows[rows < threshold], rows[rows >= threshold]
        thresholds.append(threshold)
        right = (above.size >= below.size) == larger
        child, other = 2 * r + 1 + right, 2 * r + 2 - right
        sizes[other] = (above if not right else below).size
        rows = above if right else below
        if r < depth - 1:
            feature[child] = f
        else:
            sizes[child] = rows.size
        node = child
    return feature, np.array(thresholds), sizes[feature < 0]
