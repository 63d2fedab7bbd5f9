"""The facade: detector + strategy + estimation + weighting, composed.

A PipelineConfig names what to do; ``fit`` turns it plus training data
into an immutable FittedPipeline; ``compute_p_values`` and ``select``
run test batches through it.  The facade adds no statistics of its own,
it only wires the modules together and rejects combinations whose
guarantees are undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import decisions, detectors, estimation, resampling, weighting
from .core import (
    DataMatrix,
    InvalidSpec,
    PValueVector,
    ScoreVector,
    check_seed,
    split_seed,
)
from .detectors import ScorerSpec
from .estimation import AdjustmentTable, EstimationSpec
from .resampling import CalibrationModel, StrategySpec
from .weighting import WEIGHT_KINDS

# Reserved seed streams, far above anything the strategies consume
# (cross-validation uses streams 0..k+1, bootstrapping 0..2B+2).
_TABLE_STREAM = 2**32
_SMOOTH_STREAM = 2**32 + 1


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to fit and run a detector, validated fail-closed.

    Combinations the theory does not cover are rejected here rather than
    producing numbers with silently weakened guarantees: weighting cannot
    be combined with conditional or probabilistic estimation, with
    smoothing, or with plus-mode strategies (the weighted formula needs
    one scalar score per calibration entry and per test point).
    """

    scorer: ScorerSpec
    strategy: StrategySpec
    seed: int
    estimation: EstimationSpec = EstimationSpec()
    weighting: str | None = None
    ratio_function: Callable | None = None

    def __post_init__(self):
        if not isinstance(self.scorer, ScorerSpec):
            raise InvalidSpec("scorer must be a ScorerSpec")
        if not isinstance(self.strategy, StrategySpec):
            raise InvalidSpec("strategy must be a StrategySpec")
        if not isinstance(self.estimation, EstimationSpec):
            raise InvalidSpec("estimation must be an EstimationSpec")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.weighting is not None and self.weighting not in WEIGHT_KINDS:
            raise InvalidSpec(f"unknown weighting kind {self.weighting!r}")
        if self.ratio_function is not None and self.weighting != "oracle":
            raise InvalidSpec("ratio_function applies only to oracle weighting")
        if self.weighting == "oracle" and self.ratio_function is None:
            raise InvalidSpec("oracle weighting requires a ratio_function")
        if self.weighting is not None:
            if self.estimation.regime == "conditional_empirical":
                raise InvalidSpec(
                    "weighted p-values with calibration-conditional guarantees "
                    "are not defined; drop weighting or use marginal estimation")
            if self.estimation.regime == "probabilistic":
                raise InvalidSpec(
                    "weighting requires rank-based p-values; probabilistic "
                    "estimation is not rank-based")
            if self.estimation.smoothed:
                raise InvalidSpec("weighted p-values do not support smoothing")
            if self.strategy.mode == "plus":
                raise InvalidSpec(
                    "weighting requires one score per calibration entry; use "
                    "split or a single_model strategy instead of plus mode")


@dataclass(frozen=True)
class FittedPipeline:
    """Immutable result of ``fit``; shareable across threads and batches."""

    config: PipelineConfig
    calibration: CalibrationModel
    table: AdjustmentTable | None = None

    @property
    def n_entries(self) -> int:
        return self.calibration.n_entries


def _as_matrix(data) -> DataMatrix:
    return data if isinstance(data, DataMatrix) else DataMatrix(data)


def _attach_table(config: PipelineConfig, cm: CalibrationModel) -> AdjustmentTable | None:
    est = config.estimation
    if est.regime != "conditional_empirical":
        return None
    return estimation.build_adjustment(cm.n_entries, est.delta, est.method,
                                       seed=split_seed(config.seed, _TABLE_STREAM))


def fit(config: PipelineConfig, train) -> FittedPipeline:
    """Run the configured strategy on training data and freeze the result."""
    if not isinstance(config, PipelineConfig):
        raise InvalidSpec("config must be a PipelineConfig")
    cm = resampling.calibrate(config.scorer, _as_matrix(train), config.strategy, config.seed)
    return FittedPipeline(config=config, calibration=cm,
                          table=_attach_table(config, cm))


def fit_detached(score_function, calib, polarity, seed,
                 estimation_spec: EstimationSpec = EstimationSpec(),
                 weighting_kind: str | None = None,
                 ratio_function: Callable | None = None) -> FittedPipeline:
    """Calibrate an already-trained external scorer on held-out inliers.

    The scorer must never have seen the calibration rows; nothing here can
    check that, so the exchangeability of its scores is the caller's
    responsibility.  Only split-style calibration is possible: refitting
    strategies would need to retrain the model, which is exactly what a
    detached scorer cannot do.
    """
    scorer = detectors.wrap_detached(score_function, polarity)
    calib = _as_matrix(calib)
    cm = resampling.calibrate_detached(scorer, calib)
    config = PipelineConfig(
        scorer=ScorerSpec(kind="external", polarity=polarity),
        strategy=cm.strategy,
        seed=seed,
        estimation=estimation_spec,
        weighting=weighting_kind,
        ratio_function=ratio_function,
    )
    return FittedPipeline(config=config, calibration=cm,
                          table=_attach_table(config, cm))


def _weighted_p_values(fp: FittedPipeline, X: DataMatrix,
                       ts: resampling.TestScores) -> PValueVector:
    cm = fp.calibration
    model, cal_w = weighting._fit_weights(cm.cal_rows, X, kind=fp.config.weighting,
                                          ratio_function=fp.config.ratio_function)
    test_w = weighting.weights(model, X)
    test_scores = resampling.aggregate_test_scores(cm, ts)
    values = weighting.weighted_p_values(cm.entry_scores, cal_w,
                                         test_scores, test_w)
    notes = () if model.converged else (
        "weight model gradient ascent hit its iteration cap",)
    return PValueVector(values, estimation="empirical", smoothed=False,
                        calibration_size=cm.n_entries,
                        weighting=fp.config.weighting, notes=notes)


def _test_scores(fp: FittedPipeline, X):
    if not isinstance(fp, FittedPipeline):
        raise InvalidSpec("fp must be a FittedPipeline")
    X = _as_matrix(X)
    return X, resampling.test_score_matrix(fp.calibration, X)


def _p_values(fp: FittedPipeline, X: DataMatrix, ts: resampling.TestScores,
              seed) -> PValueVector:
    if fp.config.weighting is not None:
        return _weighted_p_values(fp, X, ts)
    cm = fp.calibration
    est = fp.config.estimation
    if est.regime == "empirical":
        return estimation.empirical_p_value(cm, ts, est.smoothed, _smoothing_seed(fp, seed))
    if est.regime == "conditional_empirical":
        return estimation.conditional_p_value(cm, ts, fp.table)
    return estimation.probabilistic_p_value(cm, ts, bandwidth=est.bandwidth)


def _smoothing_seed(fp: FittedPipeline, seed):
    """``seed``, or when None a child of the pipeline seed."""
    return split_seed(fp.config.seed, _SMOOTH_STREAM) if seed is None else seed


def _aggregated(fp: FittedPipeline, ts: resampling.TestScores) -> ScoreVector:
    return ScoreVector(resampling.aggregate_test_scores(fp.calibration, ts),
                       polarity_normalized=True)


def compute_p_values(fp: FittedPipeline, X, seed=None) -> PValueVector:
    """P-values for a test batch under the fitted pipeline.

    ``seed`` feeds only the smoothing draws (when the estimation spec asks
    for smoothing); left as None it is derived from the pipeline seed, so
    repeated calls on the same batch are identical.  The weight model, when
    configured, is refit on (calibration covariates, this batch): the
    target distribution is whatever the batch is.
    """
    X, ts = _test_scores(fp, X)
    return _p_values(fp, X, ts, seed)


def score_and_p_values(fp: FittedPipeline, X, seed=None):
    """``(score_samples(fp, X), compute_p_values(fp, X, seed))`` from one
    scoring of the batch."""
    X, ts = _test_scores(fp, X)
    return _aggregated(fp, ts), _p_values(fp, X, ts, seed)


def stream_p_values(fp: FittedPipeline, X, seed=None, start=0) -> PValueVector:
    """One p-value per stream step, row i of ``X`` being step ``start + i``.

    Empirical values are always smoothed, by ``estimation._smoothing_draws``:
    a smoothed ``compute_p_values`` batch is the stream from step 0, and a
    feed in pieces, each passing the step of its first row as ``start``,
    gets the values of one call.  Conditional and probabilistic regimes pass
    through unchanged.  Weighted pipelines are refused: a density ratio
    against a one-point target batch is not meaningful.

    Every step is ranked against the same calibration set, so the values
    are uniform only on average over that set; given it they are i.i.d.
    but not uniform.  A martingale fed a long inlier stream can therefore
    grow at the rate of that discrepancy and exceed the Ville bound of
    1/threshold: the benchmark's ``stream_monitor`` feeds of seeds 2, 7, 9
    and 10 raise a Ville alarm in their all-inlier first half, at steps
    622, 3,528, 3,793 and 1.  Mending that needs a new estimation regime.
    """
    if fp.config.weighting is not None:
        raise InvalidSpec("stream monitoring does not support weighting")
    start = check_seed(start, "start")
    X, ts = _test_scores(fp, X)
    if fp.config.estimation.regime != "empirical":
        return _p_values(fp, X, ts, seed)
    return estimation._stream_p_values(fp.calibration, ts, True, _smoothing_seed(fp, seed),
                                       start)


def select(fp: FittedPipeline, X, alpha, seed=None) -> decisions.DecisionSet:
    """Flag anomalies in a batch by ``decisions.benjamini_hochberg`` at
    ``alpha``, which tags weighted p-values and notes their caveat."""
    return decisions.benjamini_hochberg(compute_p_values(fp, X, seed=seed), alpha)


def score_samples(fp: FittedPipeline, X) -> ScoreVector:
    """Aggregated polarity-normalized anomaly scores, one per test point."""
    return _aggregated(fp, _test_scores(fp, X)[1])
