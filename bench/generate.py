"""Seeded inputs for the benchmark workloads.

Every workload's inputs are drawn from ``numpy.random.default_rng([seed,
tag])``, one tag per input file, so the same ``--seed`` always writes the
same bytes.  Feature values are written with 17 significant digits, which
round-trips float64 exactly: the program and the reference computations see
the same numbers.  The program receives only the files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

DETECT_TRAIN_ROWS = 2_000
DETECT_TEST_ROWS = 100_000
DETECT_ANOMALY_SHARE = 0.05
DETECT_SHIFT = 2.0
BATCH_DIM = 8

SWEEP_SETUP_ROWS = 1_000
SWEEP_TRIALS = 1
SWEEP_BATCH_ROWS = 500
SWEEP_BATCH_ANOMALIES = 50

MONITOR_TRAIN_ROWS = 1_000
MONITOR_STEPS = 20_000
MONITOR_SHIFT = 4.0

JACKKNIFE_TRAIN_ROWS = 600
JACKKNIFE_STEPS = 2_000
JACKKNIFE_SHIFT = 1.5


@dataclass
class Inputs:
    """Paths of the generated files plus the ground truth the checks need."""

    files: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)


def _rng(seed, tag):
    return np.random.default_rng([int(seed), int(tag)])


def write_csv(path, X, labels=None):
    """Headed CSV ``x0..x{d-1}[,label]`` with exact float round-trip."""
    d = X.shape[1]
    names = [f"x{j}" for j in range(d)]
    fmt = ["%.17g"] * d
    data = X
    if labels is not None:
        names.append("label")
        fmt.append("%d")
        data = np.column_stack([X, labels])
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(names),
               comments="")


def write_config(path, entries):
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in entries.items():
            handle.write(f"{key} = {value}\n")


def detect_batch(seed, directory):
    """2k Gaussian train rows; 100k test rows, 5 % of them shifted by +2."""
    train = _rng(seed, 1).normal(size=(DETECT_TRAIN_ROWS, BATCH_DIM))
    rng = _rng(seed, 2)
    test = rng.normal(size=(DETECT_TEST_ROWS, BATCH_DIM))
    n_anom = int(round(DETECT_ANOMALY_SHARE * DETECT_TEST_ROWS))
    labels = np.zeros(DETECT_TEST_ROWS, dtype=np.int64)
    labels[rng.choice(DETECT_TEST_ROWS, size=n_anom, replace=False)] = 1
    test[labels == 1] += DETECT_SHIFT
    inp = Inputs()
    inp.files["train"] = os.path.join(directory, "train.csv")
    inp.files["test"] = os.path.join(directory, "test.csv")
    write_csv(inp.files["train"], train)
    write_csv(inp.files["test"], test, labels)
    inp.arrays.update(train=train, test=test, labels=labels)
    return inp


def strategy_sweep(seed, directory):
    """The sweep draws its own data from ``--seed``; the set-up snapshot
    fits the sweep's costliest pipeline (JaB+, B=100) on 1k Gaussian rows.

    The audit batch (500 rows, the last 50 shifted by +2, as in a sweep
    trial) stays in memory: the checks fit one trial's pipelines on it."""
    train = _rng(seed, 1).normal(size=(SWEEP_SETUP_ROWS, BATCH_DIM))
    batch = _rng(seed, 2).normal(size=(SWEEP_BATCH_ROWS, BATCH_DIM))
    batch[-SWEEP_BATCH_ANOMALIES:] += DETECT_SHIFT
    inp = Inputs()
    inp.files["train"] = os.path.join(directory, "train.csv")
    inp.files["config"] = os.path.join(directory, "jab.conf")
    write_csv(inp.files["train"], train)
    write_config(inp.files["config"], {
        "strategy.kind": "jackknife_bootstrap",
        "strategy.n_bootstraps": 100,
        "strategy.mode": "plus",
    })
    inp.arrays.update(train=train, audit_batch=batch)
    return inp


def stream_monitor(seed, directory):
    """1k 2-D train rows; a 20k-step feed whose first half is inliers and
    whose anomaly share then ramps linearly to 100 % (anomalies at +4)."""
    train = _rng(seed, 1).normal(size=(MONITOR_TRAIN_ROWS, 2))
    rng = _rng(seed, 2)
    t = np.arange(MONITOR_STEPS)
    half = MONITOR_STEPS // 2
    ramp = np.where(t < half, 0.0, (t - half + 1) / (MONITOR_STEPS - half))
    anomalous = rng.random(MONITOR_STEPS) < ramp
    feed = rng.normal(size=(MONITOR_STEPS, 2))
    feed[anomalous] += MONITOR_SHIFT
    inp = Inputs()
    inp.files["train"] = os.path.join(directory, "train.csv")
    inp.files["stream"] = os.path.join(directory, "stream.csv")
    inp.files["config"] = os.path.join(directory, "forest.conf")
    write_csv(inp.files["train"], train)
    write_csv(inp.files["stream"], feed)
    write_config(inp.files["config"], {
        "scorer.kind": "isolation_forest",
        "scorer.n_trees": 200,
    })
    inp.arrays.update(train=train, stream=feed)
    return inp


def jackknife_stream(seed, directory):
    """600 8-D train rows; a 2k-step feed whose second half is shifted."""
    train = _rng(seed, 1).normal(size=(JACKKNIFE_TRAIN_ROWS, BATCH_DIM))
    feed = _rng(seed, 2).normal(size=(JACKKNIFE_STEPS, BATCH_DIM))
    feed[JACKKNIFE_STEPS // 2:] += JACKKNIFE_SHIFT
    inp = Inputs()
    inp.files["train"] = os.path.join(directory, "train.csv")
    inp.files["stream"] = os.path.join(directory, "stream.csv")
    inp.files["config"] = os.path.join(directory, "jackknife.conf")
    write_csv(inp.files["train"], train)
    write_csv(inp.files["stream"], feed)
    write_config(inp.files["config"], {
        "strategy.kind": "jackknife",
        "strategy.mode": "plus",
    })
    inp.arrays.update(train=train, stream=feed)
    return inp

