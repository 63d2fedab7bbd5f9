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


def forest_digest(feature, threshold, leaf_size):
    """The forest digest a snapshot stores: SHA-256 of the node features as
    <i4, then the thresholds as <f8, then the leaf sizes as <i8."""
    return hashlib.sha256(np.asarray(feature, "<i4").tobytes()
                          + np.asarray(threshold, "<f8").tobytes()
                          + np.asarray(leaf_size, "<i8").tobytes()).digest()
