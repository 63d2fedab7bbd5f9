"""Seeded synthetic experiments exercising every statistical guarantee.

Each harness draws its own data from per-trial child seeds, runs the
relevant pipeline configurations, and returns a plot-ready table plus a
summary of the quantities the acceptance checks look at.  Trials are
independent by construction (seed stream per trial), so the loops could
run in any order or in parallel; rows are emitted in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decisions, estimation, martingales, pipeline, resampling
from .core import (DataMatrix, InvalidSpec, _check_alpha, check_count, check_seed, make_rng,
                   split_seed)
from .detectors import ScorerSpec

EXPERIMENT_NAMES = ("strategy_sweep", "conditional", "shift", "martingale_null")

SWEEP_LEVELS = (0.075, 0.1, 0.125, 0.15, 0.175, 0.2)
SWEEP_SIZES = (250, 500, 1000)


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict


# ---------------------------------------------------------------- generators

def gaussian_batch(rng, n, n_anomalies, d=8, shift=2.0):
    """Inliers N(0, I_d) with ``n_anomalies`` rows of N(shift*1, I_d) appended."""
    n_in = n - n_anomalies
    X = rng.normal(size=(n, d))
    X[n_in:] += shift
    labels = np.zeros(n, dtype=np.int64)
    labels[n_in:] = 1
    return X, labels


def _shift_inliers(rng, n):
    # inlier law: N(0, diag(4,1,1,1)); the first axis is the principal component
    X = rng.normal(size=(n, 4))
    X[:, 0] *= 2.0
    return X


def _shift_acceptance(X):
    # logistic thinning along the principal component, mass pushed into its tail
    z = np.clip(2.0 * X[:, 0] - 4.0, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-z))


def shift_oracle_ratio(X):
    """Density ratio (up to scale) of thinned inliers to unthinned inliers."""
    X = np.asarray(X, dtype=np.float64)
    return _shift_acceptance(X)


def _shifted_inliers(rng, n):
    rows = []
    got = 0
    while got < n:
        cand = _shift_inliers(rng, max(4 * n, 64))
        keep = rng.random(cand.shape[0]) < _shift_acceptance(cand)
        accepted = cand[keep]
        rows.append(accepted)
        got += accepted.shape[0]
    return np.concatenate(rows)[:n]


# -------------------------------------------------------------- batch sweeps

def _metrics_rows(fp, X, labels, levels):
    # one scoring and ranking of the batch serves every level
    pvals = pipeline.compute_p_values(fp, X)
    out = []
    for alpha in levels:
        dec = decisions.benjamini_hochberg(pvals, alpha)
        out.append((alpha,
                    decisions.false_discovery_rate(labels, dec),
                    decisions.statistical_power(labels, dec)))
    return out


def strategy_sweep(seed, n_trials=50, train_sizes=SWEEP_SIZES,
                   levels=SWEEP_LEVELS) -> ExperimentResult:
    """FDR and recall of Split, CV+ and JaB+ across training-set sizes.

    Test batches hold 500 points with 10% planted anomalies; the detector
    is a k-nearest-neighbor score throughout, so differences between rows
    are attributable to the calibration strategy alone.
    """
    seed, n_trials = check_seed(seed), check_count("n_trials", n_trials, 1)
    methods = (
        ("split", resampling.split(0.5)),
        ("cv_plus", resampling.cross_validation(10)),
        ("jab_plus", resampling.jackknife_bootstrap(100)),
    )
    scorer = ScorerSpec(kind="knn_distance")
    rows = []
    sums = {}
    for trial in range(n_trials):
        trial_seed = split_seed(seed, trial)
        rng = make_rng(split_seed(trial_seed, 0))
        test_X, labels = gaussian_batch(rng, 500, 50)
        test = DataMatrix(test_X)
        for size in train_sizes:
            train = DataMatrix(rng.normal(size=(size, 8)))
            for m, (name, strategy) in enumerate(methods):
                cfg = pipeline.PipelineConfig(
                    scorer=scorer, strategy=strategy,
                    seed=split_seed(trial_seed, 1 + m))
                fp = pipeline.fit(cfg, train)
                for alpha, fdr, power in _metrics_rows(fp, test, labels, levels):
                    rows.append((name, size, alpha, trial, fdr, power))
                    key = (name, size, alpha)
                    acc = sums.setdefault(key, [0.0, 0.0])
                    acc[0] += fdr
                    acc[1] += power
    summary = {
        "mean_fdr": {k: v[0] / n_trials for k, v in sums.items()},
        "mean_power": {k: v[1] / n_trials for k, v in sums.items()},
        "n_trials": n_trials,
    }
    return ExperimentResult(
        name="strategy_sweep",
        columns=("method", "train_size", "level", "trial", "fdr", "power"),
        rows=tuple(rows),
        summary=summary,
    )


def conditional(seed, n_trials=20, delta=0.1, alpha=0.1,
                methods=("asymptotic", "simes", "mc")) -> ExperimentResult:
    """Marginal versus calibration-conditional selection on shared calibrations.

    Every conditional method adjusts the same per-trial calibration, so the
    power loss in the summary is the price of the conditional guarantee and
    nothing else.  ``adjusted_never_below_marginal`` confirms the adjusted
    p-values dominate their marginal counterparts pointwise.
    """
    seed, n_trials = check_seed(seed), check_count("n_trials", n_trials, 1)
    delta, alpha = estimation._check_delta(delta), _check_alpha(alpha)
    scorer = ScorerSpec(kind="knn_distance")
    per_method = {m: {"fdr": [], "power": []} for m in ("marginal", *methods)}
    dominated = True
    rows = []
    for trial in range(n_trials):
        trial_seed = split_seed(seed, trial)
        rng = make_rng(split_seed(trial_seed, 0))
        train = DataMatrix(rng.normal(size=(2000, 8)))
        test_X, labels = gaussian_batch(rng, 500, 50)
        test = DataMatrix(test_X)
        cfg = pipeline.PipelineConfig(scorer=scorer,
                                      strategy=resampling.split(1000),
                                      seed=split_seed(trial_seed, 1))
        fp = pipeline.fit(cfg, train)
        cm = fp.calibration
        ts = resampling.test_score_matrix(cm, test)
        marginal_p = estimation.empirical_p_value(cm, ts)
        dec = decisions.benjamini_hochberg(marginal_p, alpha)
        per_method["marginal"]["fdr"].append(
            decisions.false_discovery_rate(labels, dec))
        per_method["marginal"]["power"].append(
            decisions.statistical_power(labels, dec))
        for m, method in enumerate(methods):
            table = estimation.build_adjustment(
                cm.n_entries, delta, method, seed=split_seed(trial_seed, 2 + m))
            cond_p = estimation.conditional_p_value(cm, ts, table)
            if (cond_p.values < marginal_p.values - 1e-12).any():
                dominated = False
            dec = decisions.benjamini_hochberg(cond_p, alpha)
            per_method[method]["fdr"].append(
                decisions.false_discovery_rate(labels, dec))
            per_method[method]["power"].append(
                decisions.statistical_power(labels, dec))
    p90 = {m: float(np.percentile(v["fdr"], 90.0)) for m, v in per_method.items()}
    for method, vals in per_method.items():
        for trial, (fdr, power) in enumerate(zip(vals["fdr"], vals["power"])):
            rows.append((method, trial, fdr, power, p90[method]))
    summary = {
        "mean_power": {m: float(np.mean(v["power"])) for m, v in per_method.items()},
        "mean_fdr": {m: float(np.mean(v["fdr"])) for m, v in per_method.items()},
        "p90_fdr": p90,
        "adjusted_never_below_marginal": dominated,
        "n_trials": n_trials,
        "delta": delta,
        "alpha": alpha,
    }
    return ExperimentResult(
        name="conditional",
        columns=("method", "trial", "fdr", "power", "p90_fdr"),
        rows=tuple(rows),
        summary=summary,
    )


def shift(seed, n_trials=100, alpha=0.1) -> ExperimentResult:
    """Covariate shift by logistic thinning along the principal component.

    The test batch's inliers are rejection-sampled into the thin tail of
    the training law, so an unweighted detector sees calibration ranks that
    understate how extreme the shifted inliers are.  Oracle weights use the
    true thinning function; logistic weights estimate it from covariates.
    """
    seed, n_trials = check_seed(seed), check_count("n_trials", n_trials, 1)
    alpha = _check_alpha(alpha)
    scorer = ScorerSpec(kind="knn_distance")
    methods = ("oracle", "logistic", "uniform")
    per_method = {m: {"fdr": [], "power": []} for m in methods}
    rows = []
    for trial in range(n_trials):
        trial_seed = split_seed(seed, trial)
        rng = make_rng(split_seed(trial_seed, 0))
        train = DataMatrix(_shift_inliers(rng, 2000))
        test_X = np.concatenate([
            _shifted_inliers(rng, 450),
            rng.normal(size=(50, 4)) + 3.0,
        ])
        labels = np.zeros(500, dtype=np.int64)
        labels[450:] = 1
        test = DataMatrix(test_X)
        configs = [pipeline.PipelineConfig(
            scorer=scorer, strategy=resampling.split(0.5), seed=split_seed(trial_seed, 1),
            weighting=method, ratio_function=shift_oracle_ratio if method == "oracle" else None)
            for method in methods]
        # weighting enters only at p-value time, so one calibration and one
        # scoring of the batch serve every method
        cm = pipeline.fit(configs[0], train).calibration
        ts = resampling.test_score_matrix(cm, test)
        for method, cfg in zip(methods, configs):
            fp = pipeline.FittedPipeline(config=cfg, calibration=cm)
            dec = decisions.benjamini_hochberg(pipeline._p_values(fp, test, ts, None), alpha)
            fdr = decisions.false_discovery_rate(labels, dec)
            power = decisions.statistical_power(labels, dec)
            per_method[method]["fdr"].append(fdr)
            per_method[method]["power"].append(power)
            rows.append((method, trial, fdr, power))
    summary = {
        "mean_fdr": {m: float(np.mean(v["fdr"])) for m, v in per_method.items()},
        "mean_power": {m: float(np.mean(v["power"])) for m, v in per_method.items()},
        "n_trials": n_trials,
        "alpha": alpha,
    }
    return ExperimentResult(
        name="shift",
        columns=("method", "trial", "fdr", "power"),
        rows=tuple(rows),
        summary=summary,
    )


# ------------------------------------------------------- martingale harnesses

def uniform_streams(seed, n_streams, length):
    """Null p-value streams: row i is drawn from child seed (seed, i), in (0, 1]."""
    seed = check_seed(seed)
    n_streams, length = check_count("n_streams", n_streams, 1), check_count("length", length, 1)
    out = np.empty((n_streams, length))
    for i in range(n_streams):
        out[i] = 1.0 - make_rng(split_seed(seed, i)).random(length)
    return out


def martingale_null(seed, n_streams=1000, length=500,
                    threshold=100.0) -> ExperimentResult:
    """Null crossing frequency of each betting strategy at one threshold.

    Streams are i.i.d. uniform, so the anytime bound says the fraction of
    streams whose running maximum ever reaches the threshold is at most
    1/threshold.
    """
    alarms = martingales.AlarmConfig(ville_threshold=threshold)
    threshold = alarms.ville_threshold
    p = uniform_streams(seed, n_streams, length)
    log_level = float(np.log(threshold))
    specs = (
        ("power", martingales.power(0.5)),
        ("simple_mixture", martingales.simple_mixture()),
        ("simple_jumper", martingales.simple_jumper()),
    )
    rows = []
    crossing = {}
    for name, spec in specs:
        start = martingales.init(spec, alarms)
        max_log = martingales._log_path(spec, start, p)[0].max(axis=1)
        crossed = max_log >= log_level
        crossing[name] = float(crossed.mean())
        for i in range(p.shape[0]):
            rows.append((name, i, float(max_log[i]), int(crossed[i])))
    summary = {
        "crossing_frequency": crossing,
        "threshold": threshold,
        "n_streams": p.shape[0],
        "length": p.shape[1],
    }
    return ExperimentResult(
        name="martingale_null",
        columns=("method", "trial", "max_log_martingale", "crossed"),
        rows=tuple(rows),
        summary=summary,
    )


# ---------------------------------------------------------- stream fixtures

def _stream_points(rng, anomalous, inlier_mean, anomaly_mean):
    n = anomalous.shape[0]
    X = rng.normal(size=(n, 2)) + inlier_mean
    X[anomalous] += np.asarray(anomaly_mean) - np.asarray(inlier_mean)
    return X


def single_change_stream(seed, length=2000, change_at=1000):
    """Training data plus a stream whose anomaly rate ramps from 0 to 100%.

    Before ``change_at`` every point is an inlier; afterwards the anomaly
    probability climbs linearly, reaching 1 at the final step.
    """
    seed = check_seed(seed)
    rng = make_rng(split_seed(seed, 0))
    train = rng.normal(size=(1000, 2))
    rng = make_rng(split_seed(seed, 1))
    t = np.arange(length)
    ramp = np.where(t < change_at, 0.0, (t - change_at + 1) / (length - change_at))
    anomalous = rng.random(length) < ramp
    X = _stream_points(rng, anomalous, (0.0, 0.0), (4.0, 4.0))
    return DataMatrix(train), X, anomalous


def two_burst_stream(seed, length=1500, bursts=((300, 400), (900, 1000))):
    """Training data plus a stream with two all-anomalous bursts."""
    seed = check_seed(seed)
    rng = make_rng(split_seed(seed, 0))
    train = rng.normal(size=(1000, 2))
    rng = make_rng(split_seed(seed, 1))
    anomalous = np.zeros(length, dtype=bool)
    for lo, hi in bursts:
        anomalous[lo:hi] = True
    X = _stream_points(rng, anomalous, (0.0, 0.0), (4.0, 4.0))
    return DataMatrix(train), X, anomalous


def run_experiment(name, seed, **params) -> ExperimentResult:
    """Dispatch an experiment by name; unknown names are refused."""
    if name == "strategy_sweep":
        return strategy_sweep(seed, **params)
    if name == "conditional":
        return conditional(seed, **params)
    if name == "shift":
        return shift(seed, **params)
    if name == "martingale_null":
        return martingale_null(seed, **params)
    raise InvalidSpec(f"unknown experiment {name!r}; "
                      f"expected one of {', '.join(EXPERIMENT_NAMES)}")
