"""Correctness checks of each workload's outputs.

The checks compare what the commands wrote against ``reference.py`` or
against properties the method must have, never against stored copies of
earlier output.  Each check returns a list of failure messages; an empty
list means the workload's outputs are correct.  Snapshots, stream p-values
and one sweep trial's pipelines come from the package itself, since the
commands' files hold no fitted models or p-values; what they are compared
with comes from the reference or from the method's guarantees.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.stats import kstest, kstwobign

import generate
import reference

# Scores are distances computed by scipy's cdist in the program and by
# explicit differences here; both round each distance once, so they agree to
# a few ulps.
SCORE_RTOL = 1e-12
# Test rows of detect_batch whose scores are recomputed by brute force (the
# p-values, flags and summary are checked on every row).
DISTANCE_SAMPLE = 20_000
# log M of the mixture martingale.  The reference is exact; the program
# integrates f(eps) = eps^n exp(-a eps) with the composite Simpson rule on
# the default grid of 1000 intervals (step h), whose relative error is about
# h^4/180 times f''''/f near eps = 1, where the mass lies unless a, the sum
# of -log p, is well above n.  With lam = max(n - a, 0) that ratio is at
# most lam^4 + 6 lam^2 n + 8 lam n + 3 n^2 + 6 n.  The tolerance is twice
# the term plus a floor for rounding.
MIXTURE_GRID_STEP = 1e-3
LOG_MARTINGALE_FLOOR = 1e-6
# Smoothed p-values on the inlier half must not reject uniformity at this
# level (a correct program fails it once in a million runs).
UNIFORMITY_LEVEL = 1e-6
ALPHA = 0.1
SWEEP_LEVELS = (0.075, 0.1, 0.125, 0.15, 0.175, 0.2)
SWEEP_SIZES = (250, 500, 1000)
SWEEP_METHODS = ("split", "cv_plus", "jab_plus")
VILLE_THRESHOLD = 100.0


class Failures(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def _row_index(train):
    return {row.tobytes(): i for i, row in enumerate(train)}


def _sorted_rows(X):
    return X[np.lexsort(X.T[::-1])]


def audit_calibration(fails, cm, train, label, n_checked=None):
    """Out-of-sample audit of a k-NN calibration against its training data.

    Every entry's row is found in ``train``; no model bound to an entry was
    trained on that row; each model's reference rows are exactly the
    multiset ``model_train_indices`` names; and entry scores equal the
    reference k-th neighbour distances, aggregated over the entry's models
    (all entries, or the first ``n_checked``).  Returns each entry's row
    index in ``train``, or None when some entry's row is not there.
    """
    index = _row_index(train)
    rows = [index.get(r.tobytes()) for r in cm.cal_rows]
    if not fails.expect(None not in rows, f"{label}: calibration row not in the training data"):
        return None
    trained_on = [set(ix) for ix in cm.model_train_indices]
    leaks = sum(1 for e, r in enumerate(rows)
                for m in cm.entry_models[e] if r in trained_on[m])
    fails.expect(leaks == 0, f"{label}: {leaks} entries scored by a model trained on their row")
    fails.expect(cm.n_entries + cm.dropped_rows == train.shape[0]
                 or cm.strategy.kind == "split",
                 f"{label}: entries plus dropped rows do not cover the training rows")
    bad_refs = sum(
        1 for model, ix in zip(cm.models, cm.model_train_indices)
        if not np.array_equal(_sorted_rows(model.refs), _sorted_rows(train[list(ix)])))
    fails.expect(bad_refs == 0,
                 f"{label}: {bad_refs} models were not trained on their recorded rows")
    k = cm.models[0].k
    entries = range(cm.n_entries if n_checked is None else min(n_checked, cm.n_entries))
    ref = np.array([
        np.median([reference.kth_neighbour_distance(
            train[rows[e]][None, :], train[list(cm.model_train_indices[m])], k)[0]
            for m in cm.entry_models[e]])
        for e in entries])
    fails.expect(np.allclose(cm.entry_scores[list(entries)], ref, rtol=SCORE_RTOL, atol=0),
                 f"{label}: calibration scores differ from brute-force k-NN distances")
    return rows


def check_detect_batch(work, inp, seed, confanom):
    fails = Failures()
    train, test, labels = inp.arrays["train"], inp.arrays["test"], inp.arrays["labels"]
    fp = confanom.snapshot_load(os.path.join(work, "model.snp"))
    cm = fp.calibration
    n = cm.n_entries
    audit_calibration(fails, cm, train, "split calibration")

    table = np.loadtxt(os.path.join(work, "flags.csv"), delimiter=",", skiprows=1)
    if not fails.expect(table.shape == (test.shape[0], 4), "flags.csv has the wrong shape"):
        return fails
    index, score, p, flag = table.T
    fails.expect(np.array_equal(index, np.arange(test.shape[0])), "row_index is not 0..m-1")
    sample = np.random.default_rng([seed, 99]).choice(
        test.shape[0], size=DISTANCE_SAMPLE, replace=False)
    ref_score = reference.kth_neighbour_distance(test[sample], cm.models[0].refs,
                                                 fp.config.scorer.k)
    fails.expect(np.allclose(score[sample], ref_score, rtol=SCORE_RTOL, atol=0),
                 "test scores differ from brute-force k-NN distances")
    grid = p * (n + 1)
    fails.expect(np.allclose(grid, np.round(grid), rtol=0, atol=1e-9),
                 "p-values are off the k/(n+1) grid")
    ref_p = reference.rank_count_p_values(cm.entry_scores, score)
    fails.expect(np.array_equal(p, ref_p), "p-values differ from the rank counts")
    ref_flags = reference.benjamini_hochberg(ref_p, ALPHA)
    fails.expect(np.array_equal(flag, ref_flags), "flags differ from the reference BH")

    with open(os.path.join(work, "flags.summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    flagged = ref_flags == 1
    n_flagged = int(flagged.sum())
    fdr = 0.0 if n_flagged == 0 else int((flagged & (labels == 0)).sum()) / n_flagged
    power = int((flagged & (labels == 1)).sum()) / int(labels.sum())
    fails.expect(summary.get("n_flagged") == n_flagged, "summary n_flagged is wrong")
    fails.expect(summary.get("n_test") == test.shape[0], "summary n_test is wrong")
    fails.expect(math.isclose(summary.get("fdr", -1.0), fdr, rel_tol=1e-12, abs_tol=0.0),
                 "summary FDR differs from flags and labels")
    fails.expect(math.isclose(summary.get("power", -1.0), power, rel_tol=1e-12),
                 "summary power differs from flags and labels")
    return fails


def check_strategy_sweep(work, inp, seed, confanom):
    fails = Failures()
    header, rows = _read_rows(os.path.join(work, "sweep", "strategy_sweep.csv"))
    fails.expect(header == ["method", "train_size", "level", "trial", "fdr", "power"],
                 f"unexpected sweep columns {header}")
    expected = len(SWEEP_METHODS) * len(SWEEP_SIZES) * len(SWEEP_LEVELS) * generate.SWEEP_TRIALS
    fails.expect(len(rows) == expected, f"sweep has {len(rows)} rows, expected {expected}")
    curves = {}
    for method, size, level, trial, fdr, power in rows:
        fdr, power = float(fdr), float(power)
        fails.expect(0.0 <= fdr <= 1.0 and 0.0 <= power <= 1.0,
                     f"fdr or power outside [0, 1]: {fdr}, {power}")
        hits = power * generate.SWEEP_BATCH_ANOMALIES
        fails.expect(abs(hits - round(hits)) < 1e-9, f"power {power} is not a hit fraction")
        curves.setdefault((method, int(size), int(trial)), []).append((float(level), power))
    fails.expect(set(k[0] for k in curves) == set(SWEEP_METHODS), "sweep methods differ")
    fails.expect(set(k[1] for k in curves) == set(SWEEP_SIZES), "sweep sizes differ")
    for key, curve in curves.items():
        levels = [lv for lv, _ in sorted(curve)]
        powers = [pw for _, pw in sorted(curve)]
        fails.expect(levels == list(SWEEP_LEVELS), f"{key}: levels {levels}")
        fails.expect(all(b >= a for a, b in zip(powers, powers[1:])),
                     f"{key}: power falls as the level rises: {powers}")

    train = inp.arrays["train"]
    snap = confanom.snapshot_load(os.path.join(work, "model.snp"))
    audit_calibration(fails, snap.calibration, train, "JaB+ snapshot", n_checked=50)

    # one trial's pipelines: the sweep's three strategies on 500 rows
    from confanom import pipeline, resampling
    batch = confanom.DataMatrix(inp.arrays["audit_batch"])
    strategies = (resampling.split(0.5), resampling.cross_validation(10),
                  resampling.jackknife_bootstrap(100))
    audit_train = train[:500]
    for m, strategy in enumerate(strategies):
        cfg = pipeline.PipelineConfig(scorer=confanom.ScorerSpec(kind="knn_distance"),
                                      strategy=strategy, seed=seed + m)
        fp = pipeline.fit(cfg, confanom.DataMatrix(audit_train))
        label = f"{strategy.kind} on {audit_train.shape[0]} rows"
        audit_calibration(fails, fp.calibration, audit_train, label, n_checked=50)
        p = pipeline.compute_p_values(fp, batch).values
        for level in SWEEP_LEVELS:
            flags = pipeline.select(fp, batch, level).flags
            fails.expect(np.array_equal(flags, reference.benjamini_hochberg(p, level)),
                         f"{label}: select differs from the reference BH at {level}")
    return fails


def _read_trajectory(work):
    header, rows = _read_rows(os.path.join(work, "traj.csv"))
    col = {name: i for i, name in enumerate(header)}
    steps = np.array([int(r[col["step"]]) for r in rows])
    martingale = np.array([float(r[col["martingale"]]) for r in rows])
    _, alarm_rows = _read_rows(os.path.join(work, "traj.alarms.csv"))
    alarms = [(int(step), kind) for step, kind in alarm_rows]
    return steps, martingale, alarms


def check_martingale(fails, work, p_values):
    """Trajectory and first Ville alarm against the closed-form mixture."""
    steps, martingale, alarms = _read_trajectory(work)
    if not fails.expect(np.array_equal(steps, np.arange(1, len(p_values) + 1)),
                        "trajectory steps are not 1..T"):
        return
    log_ref = reference.log_mixture_martingale(p_values)
    n = steps.astype(np.float64)
    lam = np.maximum(n + np.cumsum(np.log(np.clip(p_values, reference.P_FLOOR, 1.0))), 0.0)
    ratio = lam ** 4 + 6 * lam ** 2 * n + 8 * lam * n + 3 * n ** 2 + 6 * n
    tol = LOG_MARTINGALE_FLOOR + MIXTURE_GRID_STEP ** 4 / 90.0 * ratio
    finite = np.isfinite(martingale) & (martingale > 0)
    fails.expect(finite.any(), "no finite martingale value to compare")
    err = np.abs(np.log(martingale[finite]) - log_ref[finite])
    worst = int(np.argmax(err / tol[finite]))
    fails.expect((err <= tol[finite]).all(),
                 f"log martingale differs from the closed form by {err[worst]:.3g} "
                 f"at step {steps[finite][worst]} (tolerance {tol[finite][worst]:.3g})")
    level = math.log(VILLE_THRESHOLD)
    first = [step for step, kind in alarms if kind == "ville"]
    # a step whose closed form lies within the tolerance of the threshold
    # may go either way
    early = np.flatnonzero(log_ref >= level - tol)
    late = np.flatnonzero(log_ref >= level + tol)
    if late.size:
        fails.expect(bool(first) and early[0] + 1 <= first[0] <= late[0] + 1,
                     f"first Ville alarm at {first[:1]}, closed form crosses at {late[0] + 1}")
    elif not early.size:
        fails.expect(not first, "Ville alarm without a crossing in the closed form")


def _stream_p_values(confanom, fp, X):
    from confanom import pipeline
    return pipeline.stream_p_values(fp, confanom.DataMatrix(X)).values


def check_stream_monitor(work, inp, seed, confanom):
    fails = Failures()
    from confanom import cli, pipeline
    stream = inp.arrays["stream"]
    snap = confanom.snapshot_load(os.path.join(work, "model.snp"))
    p = _stream_p_values(confanom, snap, stream)
    config = cli.build_pipeline_config(cli.parse_config(inp.files["config"]), seed=seed)
    fresh = pipeline.fit(config, confanom.DataMatrix(inp.arrays["train"]))
    fails.expect(np.array_equal(p, _stream_p_values(confanom, fresh, stream)),
                 "p-values from the snapshot differ from a fresh fit")
    fails.expect(((p > 0) & (p <= 1)).all(), "p-values outside (0, 1]")
    inliers = p[: generate.MONITOR_STEPS // 2]
    n = snap.n_entries
    # the p-values share one calibration set, so the statistic follows the
    # two-sample law with n*m/(n+m) effective observations
    stat = kstest(inliers, "uniform").statistic
    n_eff = n * inliers.size / (n + inliers.size)
    level = float(kstwobign.sf(stat * math.sqrt(n_eff)))
    fails.expect(level > UNIFORMITY_LEVEL,
                 f"inlier p-values reject uniformity (KS {stat:.4f}, level {level:.2g})")
    check_martingale(fails, work, p)
    return fails


def check_jackknife_stream(work, inp, seed, confanom):
    fails = Failures()
    train, stream = inp.arrays["train"], inp.arrays["stream"]
    snap = confanom.snapshot_load(os.path.join(work, "model.snp"))
    cm = snap.calibration
    rows = audit_calibration(fails, cm, train, "jackknife+ snapshot", n_checked=0)
    if rows is None:
        return fails
    k = snap.config.scorer.k
    fails.expect(np.allclose(cm.entry_scores, reference.loo_knn_scores(train, k)[rows],
                             rtol=SCORE_RTOL, atol=0),
                 "jackknife+ entries differ from leave-one-out k-NN distances")
    p = _stream_p_values(confanom, snap, stream)
    n = cm.n_entries
    gt_low, ge_high = reference.loo_knn_rank_counts(train, stream, k, rtol=SCORE_RTOL)
    outside = int(((p <= gt_low / (n + 1)) | (p > (ge_high + 1) / (n + 1))).sum())
    fails.expect(outside == 0,
                 f"{outside} smoothed p-values outside their leave-one-out rank bounds")
    check_martingale(fails, work, p)
    return fails

