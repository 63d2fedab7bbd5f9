"""Conformal anomaly detection with calibrated error control.

The package turns raw anomaly scores into statistically valid p-values and
decisions: split and resampling-based conformal calibration, batch anomaly
selection with false discovery rate control, covariate-shift-weighted
p-values, and sequential change monitoring through exchangeability
martingales.

The high-level entry points live in :mod:`confanom.pipeline`; the layers
underneath (:mod:`confanom.detectors`, :mod:`confanom.resampling`,
:mod:`confanom.estimation`, :mod:`confanom.weighting`,
:mod:`confanom.decisions`, :mod:`confanom.martingales`) are importable on
their own and are what the pipeline composes.
"""

from ._version import __version__
from .core import (ConfanomError, ConfigError, DataMatrix, DecisionSet,
                   InvalidData, PValueVector, ScoreVector, SnapshotError,
                   make_rng, split_seed)
from .decisions import (benjamini_hochberg, false_discovery_rate,
                        fixed_threshold, statistical_power)
from .detectors import ScorerSpec
from .estimation import (AdjustmentTable, EstimationSpec, build_adjustment,
                         conditional_validity_oracle, conformal_p_values)
from .experiments import EXPERIMENT_NAMES, run_experiment
from .martingales import (AlarmConfig, MartingaleSpec, run_stream,
                          write_trajectory_csv)
from .pipeline import (FittedPipeline, PipelineConfig, compute_p_values, fit,
                       fit_detached, score_samples, select, stream_p_values)
from .resampling import (StrategySpec, cross_validation, jackknife,
                         jackknife_bootstrap, split)
from .snapshot import snapshot_load, snapshot_save
from .weighting import WeightModel, fit_weight_estimator, weighted_p_values

__all__ = [
    "__version__",
    "AdjustmentTable",
    "AlarmConfig",
    "ConfanomError",
    "ConfigError",
    "DataMatrix",
    "DecisionSet",
    "EstimationSpec",
    "EXPERIMENT_NAMES",
    "FittedPipeline",
    "InvalidData",
    "MartingaleSpec",
    "PipelineConfig",
    "PValueVector",
    "ScoreVector",
    "ScorerSpec",
    "SnapshotError",
    "StrategySpec",
    "WeightModel",
    "benjamini_hochberg",
    "build_adjustment",
    "compute_p_values",
    "conditional_validity_oracle",
    "conformal_p_values",
    "cross_validation",
    "false_discovery_rate",
    "fit",
    "fit_detached",
    "fit_weight_estimator",
    "fixed_threshold",
    "jackknife",
    "jackknife_bootstrap",
    "make_rng",
    "run_experiment",
    "run_stream",
    "score_samples",
    "select",
    "snapshot_load",
    "snapshot_save",
    "split",
    "split_seed",
    "statistical_power",
    "stream_p_values",
    "weighted_p_values",
    "write_trajectory_csv",
]
