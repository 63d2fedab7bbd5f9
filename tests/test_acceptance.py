"""Statistical acceptance gate.

Each test below checks one end-to-end guarantee of the package at a fixed
seed and prints a single PASS or FAIL line (visible even under pytest's
capture) so a run of this file doubles as an acceptance report.  The
checks are Monte Carlo estimates compared against their theoretical
bounds plus three standard errors, so a pass is meaningful and a fail is
a defect, not noise.

A7 needs an external dataset and is skipped unless CONFANOM_SHUTTLE_CSV
points at a labeled CSV (0/1 column named "label", overridable through
CONFANOM_SHUTTLE_LABEL).
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from confanom import cli, decisions, estimation, experiments, pipeline, resampling
from confanom.core import DataMatrix, PValueVector, make_rng, split_seed
from confanom.detectors import ScorerSpec
from confanom.estimation import (build_adjustment, conditional_validity_oracle,
                                 conformal_p_values)
from confanom.martingales import (AlarmConfig, init, power, run_stream,
                                  simple_mixture, update)
from confanom.weighting import weighted_p_values

KNN = ScorerSpec(kind="knn_distance")


def three_se(rate, n):
    return 3.0 * math.sqrt(rate * (1.0 - rate) / n)


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(f"{name}: {detail}")


def test_a1_super_uniformity(capsys):
    t0 = time.perf_counter()
    rng = make_rng(101)
    trials = 10_000
    n = 100
    levels = (0.01, 0.05, 0.1, 0.2, 0.5)
    plain = np.empty(trials)
    smooth = np.empty(trials)
    for i in range(trials):
        cal = rng.normal(size=n)
        test = rng.normal(size=1)
        plain[i] = conformal_p_values(cal, test).values[0]
        smooth[i] = conformal_p_values(cal, test, smoothed=True,
                                       seed=split_seed(7, i)).values[0]
    ok = True
    worst_excess, worst_t = -1.0, None
    for t in levels:
        rate = float((plain <= t).mean())
        if rate > t + three_se(t, trials):
            ok = False
        if rate - t > worst_excess:
            worst_excess, worst_t = rate - t, t
    ks = stats.kstest(smooth, "uniform")
    elapsed = time.perf_counter() - t0
    ok = ok and ks.pvalue > 0.01 and elapsed < 10.0
    report(capsys, "A1", ok,
           f"max excess P(p<=t)-t = {worst_excess:+.5f} at t={worst_t} "
           f"(bound +3se); smoothed KS p={ks.pvalue:.3f} (> 0.01 required); "
           f"{elapsed:.1f}s (< 10s)")


def test_a2_grid_and_floor(capsys):
    t0 = time.perf_counter()
    rng = make_rng(102)
    ok = True
    details = []
    for n in (9, 99, 999):
        cal = rng.normal(size=n)
        test = rng.normal(size=200)
        p = conformal_p_values(cal, test).values
        grid = np.arange(1, n + 2) / (n + 1)
        on_grid = bool(np.isin(p, grid).all())
        extreme = conformal_p_values(cal, np.full(5, cal.max() + 10.0)).values
        floor_hit = float(extreme.min()) == 1.0 / (n + 1)
        ok = ok and on_grid and floor_hit
        details.append(f"n={n} grid={'yes' if on_grid else 'NO'} "
                       f"min={'1/(n+1)' if floor_hit else extreme.min()}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(capsys, "A2", ok, "; ".join(details) + f"; {elapsed:.2f}s (< 1s)")


def test_a3_bh_fdr_control(capsys):
    t0 = time.perf_counter()
    seed = 11
    trials = 200
    levels = (0.05, 0.1, 0.2)
    fdr_sum = {a: 0.0 for a in levels}
    power_sum = {a: 0.0 for a in levels}
    config = pipeline.PipelineConfig(scorer=KNN,
                                     strategy=resampling.split(500),
                                     seed=seed)
    for trial in range(trials):
        rng = make_rng(split_seed(seed, trial))
        train = DataMatrix(rng.normal(size=(1000, 8)))
        X, labels = experiments.gaussian_batch(rng, 500, 25, d=8, shift=2.0)
        fp = pipeline.fit(config, train)
        pvals = pipeline.compute_p_values(fp, DataMatrix(X))
        for a in levels:
            dec = decisions.benjamini_hochberg(pvals, a)
            fdr_sum[a] += decisions.false_discovery_rate(labels, dec)
            power_sum[a] += decisions.statistical_power(labels, dec)
    ok = True
    parts = []
    for a in levels:
        fdr = fdr_sum[a] / trials
        if fdr > a + 0.03:
            ok = False
        parts.append(f"FDR@{a}={fdr:.3f} (<= {a + 0.03:.3f})")
    power = power_sum[0.2] / trials
    elapsed = time.perf_counter() - t0
    ok = ok and power >= 0.5 and elapsed < 120.0
    report(capsys, "A3", ok,
           "; ".join(parts) + f"; power@0.2={power:.3f} (>= 0.5); "
           f"{elapsed:.0f}s (< 120s)")


def test_a4_strategy_sweep(capsys):
    t0 = time.perf_counter()
    result = experiments.strategy_sweep(seed=7, n_trials=50)
    ok = True
    worst_excess = -1.0
    worst_key = None
    for (method, size, level), fdr in result.summary["mean_fdr"].items():
        excess = fdr - level
        if excess > worst_excess:
            worst_excess, worst_key = excess, (method, size, level)
        if fdr > level + 0.05:
            ok = False
    recall = {m: np.mean([v for (name, size, _), v
                          in result.summary["mean_power"].items()
                          if name == m and size == 250])
              for m in ("split", "cv_plus", "jab_plus")}
    data_efficient = (recall["cv_plus"] >= recall["split"]
                      and recall["jab_plus"] >= recall["split"])
    elapsed = time.perf_counter() - t0
    ok = ok and data_efficient and elapsed < 900.0
    report(capsys, "A4", ok,
           f"worst FDR excess {worst_excess:+.3f} at {worst_key} "
           f"(<= +0.05); recall@250 split={recall['split']:.3f} "
           f"cv_plus={recall['cv_plus']:.3f} jab_plus={recall['jab_plus']:.3f} "
           f"(resampling >= split); {elapsed:.0f}s (< 900s)")


def test_a5_conditional_control(capsys):
    t0 = time.perf_counter()
    delta = 0.1
    reps = 2000
    bound = delta + three_se(delta, reps)
    ok = True
    parts = []
    for method in ("asymptotic", "simes", "mc"):
        for n in (100, 1000):
            table = build_adjustment(n, delta, method, seed=split_seed(3, n))
            fail = conditional_validity_oracle(table, n_reps=reps,
                                               seed=split_seed(5, n))
            if fail > bound:
                ok = False
            parts.append(f"{method}@{n}={fail:.3f}")
    result = experiments.conditional(seed=13, n_trials=20, delta=delta)
    marginal = result.summary["mean_power"]["marginal"]
    power_ok = all(result.summary["mean_power"][m] <= marginal + 1e-12
                   for m in ("asymptotic", "simes", "mc"))
    dominated = result.summary["adjusted_never_below_marginal"]
    elapsed = time.perf_counter() - t0
    ok = ok and power_ok and dominated and elapsed < 600.0
    report(capsys, "A5", ok,
           f"oracle failure rates {', '.join(parts)} (each <= {bound:.3f}); "
           f"power marginal={marginal:.3f} vs conditional "
           f"{[round(result.summary['mean_power'][m], 3) for m in ('asymptotic', 'simes', 'mc')]} "
           f"(no conditional above marginal: {power_ok}); "
           f"adjusted >= marginal pointwise: {dominated}; "
           f"{elapsed:.0f}s (< 600s)")


def test_a6_weighted_shift(capsys):
    t0 = time.perf_counter()
    result = experiments.shift(seed=42, n_trials=100, alpha=0.1)
    fdr = result.summary["mean_fdr"]
    oracle_ok = fdr["oracle"] <= 0.15
    logistic_ok = fdr["logistic"] <= 0.18
    uniform_ok = fdr["uniform"] > fdr["oracle"]
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and logistic_ok and uniform_ok and elapsed < 600.0
    report(capsys, "A6", ok,
           f"mean FDR oracle={fdr['oracle']:.3f} (<= 0.15), "
           f"logistic={fdr['logistic']:.3f} (<= 0.18), "
           f"uniform={fdr['uniform']:.3f} (> oracle); "
           f"{elapsed:.0f}s (< 600s)")


def test_a7_shuttle_directional(capsys):
    path = os.environ.get("CONFANOM_SHUTTLE_CSV")
    if not path:
        with capsys.disabled():
            print("\nA7: SKIPPED - directional Shuttle check; set "
                  "CONFANOM_SHUTTLE_CSV=<labeled csv> to run")
        pytest.skip("CONFANOM_SHUTTLE_CSV not set")
    label = os.environ.get("CONFANOM_SHUTTLE_LABEL", "label")
    data = cli.read_csv_matrix(path, label_column=label)
    if data.labels is None:
        report(capsys, "A7", False,
               f"no 0/1 column named {label!r} in {path}")
    rng = make_rng(0)
    inliers = np.flatnonzero(data.labels == 0)
    anomalies = np.flatnonzero(data.labels == 1)
    rng.shuffle(inliers)
    rng.shuffle(anomalies)
    train = DataMatrix(data.values[inliers[:2000]])
    test_idx = np.concatenate([inliers[2000:2500], anomalies[:50]])
    test = DataMatrix(data.values[test_idx])
    labels = data.labels[test_idx]
    config = pipeline.PipelineConfig(
        scorer=ScorerSpec(kind="isolation_forest"),
        strategy=resampling.split(1000), seed=1)
    fp = pipeline.fit(config, train)
    dec = pipeline.select(fp, test, alpha=0.2)
    fdr = decisions.false_discovery_rate(labels, dec)
    pw = decisions.statistical_power(labels, dec)
    report(capsys, "A7", fdr <= 0.25 and pw >= 0.9,
           f"FDR={fdr:.3f} (<= 0.25), power={pw:.3f} (>= 0.9)")


def test_a8_martingale_null_calibration(capsys):
    t0 = time.perf_counter()
    result = experiments.martingale_null(seed=2024, n_streams=1000,
                                         length=500, threshold=100.0)
    bound = 0.01 + three_se(0.01, 1000)
    freqs = result.summary["crossing_frequency"]
    elapsed = time.perf_counter() - t0
    ok = all(f <= bound for f in freqs.values()) and elapsed < 60.0
    report(capsys, "A8", ok,
           ", ".join(f"{k}={v:.4f}" for k, v in freqs.items())
           + f" (each <= {bound:.4f}); {elapsed:.0f}s (< 60s)")


def two_burst_stream(seed, length):
    """Training data plus a stream whose steps 300-399 and 900-999 are all
    anomalous, its points drawn as ``experiments.single_change_stream``
    draws them."""
    rng = make_rng(split_seed(seed, 0))
    train = rng.normal(size=(1000, 2))
    rng = make_rng(split_seed(seed, 1))
    anomalous = np.zeros(length, dtype=bool)
    anomalous[300:400] = anomalous[900:1000] = True
    X = experiments._stream_points(rng, anomalous, (0.0, 0.0), (4.0, 4.0))
    return DataMatrix(train), X, anomalous


def test_a9_martingale_detection_and_restart(capsys):
    t0 = time.perf_counter()
    spec = power(0.5)
    alarms = AlarmConfig(ville_threshold=100.0,
                         restarted_ville_threshold=100.0)
    config = pipeline.PipelineConfig(scorer=KNN,
                                     strategy=resampling.split(0.5), seed=8)

    train, X, _ = experiments.single_change_stream(seed=7, length=2000,
                                                   change_at=1000)
    fp = pipeline.fit(config, train)
    ps = pipeline.stream_p_values(fp, X, seed=9)
    state, _ = run_stream(spec, alarms, ps.values)
    ville = [s for s, kind in state.alarm_history if kind == "ville"]
    pre_change = [s for s, _ in state.alarm_history if s <= 1000]
    single_ok = not pre_change and len(ville) >= 1

    train2, X2, _ = two_burst_stream(seed=7, length=1500)
    fp2 = pipeline.fit(config, train2)
    ps2 = pipeline.stream_p_values(fp2, X2, seed=9)
    state2, _ = run_stream(spec, alarms, ps2.values)
    ville2 = [s for s, kind in state2.alarm_history if kind == "ville"]
    restarted2 = [s for s, kind in state2.alarm_history
                  if kind == "restarted_ville"]
    second_burst = [s for s in restarted2 if s > 900]
    burst_ok = len(ville2) == 1 and len(restarted2) >= 2 and second_burst

    elapsed = time.perf_counter() - t0
    ok = single_ok and bool(burst_ok) and elapsed < 10.0
    report(capsys, "A9", ok,
           f"single change: no alarm at step <= 1000 ({not pre_change}), "
           f"first ville at {ville[0] if ville else 'never'}; two bursts: "
           f"{len(ville2)} ville alarm (== 1), {len(restarted2)} restarted "
           f"(>= 2, {len(second_burst)} after second burst); "
           f"{elapsed:.1f}s (< 10s)")


def test_a10_exact_hand_values(capsys):
    t0 = time.perf_counter()
    checks = []

    p = conformal_p_values([1.0, 2.0, 3.0, 4.0], [2.5]).values[0]
    checks.append(("rank count 3/5", p == 0.6))

    wp = weighted_p_values(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 1.0]),
                           np.array([2.5]), np.array([1.0]))[0]
    checks.append(("weighted 0.4", wp == 0.4))

    dec = decisions.benjamini_hochberg([0.01, 0.02, 0.2, 0.6], 0.1)
    checks.append(("BH flags 1100 at 0.02",
                   dec.flags.tolist() == [1, 1, 0, 0]
                   and dec.rejection_threshold == 0.02))

    spec = power(0.5)
    alarms = AlarmConfig(ville_threshold=100.0)
    state = init(spec, alarms)
    crossing = None
    for step in range(1, 4):
        state = update(spec, state, 0.01, alarms)
        if state.alarm_history and crossing is None:
            crossing = step
    checks.append(("power crossing at step 3",
                   crossing == 3 and abs(state.martingale - 125.0) < 1e-9))

    m_state = init(simple_mixture(), alarms)
    m_state = update(simple_mixture(), m_state, 1.0, alarms)
    checks.append(("mixture M1 = 0.5", abs(m_state.martingale - 0.5) < 1e-9))

    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed in checks) and elapsed < 1.0
    report(capsys, "A10", ok,
           "; ".join(f"{name}: {'ok' if passed else 'WRONG'}"
                     for name, passed in checks)
           + f"; {elapsed:.2f}s (< 1s)")


def test_a11_equivalences(capsys):
    t0 = time.perf_counter()
    rng = make_rng(111)
    data = DataMatrix(rng.normal(size=(25, 3)))
    spec = ScorerSpec(kind="knn_distance", k=3)
    jk = resampling.calibrate(spec, data, resampling.jackknife("plus"), 17)
    cv = resampling.calibrate(spec, data, resampling.cross_validation(25, "plus"), 17)
    jk_cv = (np.array_equal(jk.entry_scores, cv.entry_scores)
             and jk.entry_models == cv.entry_models)

    entries = np.sort(rng.normal(size=40))
    tests = rng.normal(size=15)
    unit = weighted_p_values(entries, np.ones(40), tests, np.ones(15))
    plain = conformal_p_values(entries, tests).values
    weights_eq = np.array_equal(unit, plain)

    pvals = rng.random(30)
    wbh = decisions.benjamini_hochberg(
        PValueVector(pvals, estimation="empirical", smoothed=False, calibration_size=40,
                     weighting="uniform"), 0.1)
    bh = decisions.benjamini_hochberg(pvals, 0.1)
    bh_eq = (wbh.procedure == bh.procedure == "bh" and wbh.notes == bh.notes == ()
             and np.array_equal(wbh.flags, bh.flags)
             and wbh.rejection_threshold == bh.rejection_threshold)

    elapsed = time.perf_counter() - t0
    ok = jk_cv and weights_eq and bh_eq and elapsed < 30.0
    report(capsys, "A11", ok,
           f"jackknife == CV(n): {jk_cv}; unit-weight == unweighted: "
           f"{weights_eq}; weighted BH == BH: {bh_eq}; "
           f"{elapsed:.1f}s (< 30s)")
