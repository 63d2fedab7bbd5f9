import numpy as np
import pytest

from confanom import pipeline, resampling
from confanom.core import InvalidHyperparameter, InvalidSpec
from confanom.experiments import (EXPERIMENT_NAMES, conditional,
                                  martingale_null, run_experiment, shift,
                                  shift_oracle_ratio, single_change_stream,
                                  strategy_sweep, two_burst_stream,
                                  uniform_streams)
from confanom.martingales import (AlarmConfig, init, power, run_stream,
                                  simple_jumper, simple_mixture, update)


class TestStrategySweep:
    def test_structure(self):
        result = strategy_sweep(seed=1, n_trials=2, train_sizes=(100,),
                                levels=(0.1, 0.2))
        assert result.name == "strategy_sweep"
        assert result.columns == ("method", "train_size", "level", "trial",
                                  "fdr", "power")
        # 2 trials x 1 size x 3 methods x 2 levels
        assert len(result.rows) == 12
        assert set(r[0] for r in result.rows) == {"split", "cv_plus", "jab_plus"}
        assert result.summary["n_trials"] == 2
        for key, value in result.summary["mean_fdr"].items():
            assert 0.0 <= value <= 1.0

    def test_deterministic(self):
        a = strategy_sweep(seed=3, n_trials=1, train_sizes=(100,), levels=(0.1,))
        b = strategy_sweep(seed=3, n_trials=1, train_sizes=(100,), levels=(0.1,))
        assert a.rows == b.rows


class TestConditional:
    def test_structure_and_domination(self):
        result = conditional(seed=2, n_trials=2)
        assert result.columns == ("method", "trial", "fdr", "power", "p90_fdr")
        methods = set(r[0] for r in result.rows)
        assert methods == {"marginal", "asymptotic", "simes", "mc"}
        assert result.summary["adjusted_never_below_marginal"] is True
        for method in ("asymptotic", "simes", "mc"):
            assert (result.summary["mean_power"][method]
                    <= result.summary["mean_power"]["marginal"] + 1e-12)


class TestShift:
    def test_structure(self):
        result = shift(seed=4, n_trials=3)
        assert result.columns == ("method", "trial", "fdr", "power")
        assert len(result.rows) == 9
        assert set(r[0] for r in result.rows) == {"oracle", "logistic", "uniform"}
        assert result.summary["alpha"] == 0.1

    def test_one_calibration_per_trial(self, monkeypatch):
        # the methods share scorer, strategy and seed; weighting enters only
        # at p-value time, so each trial fits and scores its batch once
        calls, fit, score = [], pipeline.fit, resampling.test_score_matrix
        monkeypatch.setattr(pipeline, "fit",
                            lambda *args: calls.append("fit") or fit(*args))
        monkeypatch.setattr(resampling, "test_score_matrix",
                            lambda *args: calls.append("score") or score(*args))
        shift(seed=4, n_trials=2)
        assert calls == ["fit", "score"] * 2

    def test_oracle_ratio_is_the_thinning_function(self):
        X = np.array([[2.0, 0, 0, 0], [-50.0, 0, 0, 0]])
        r = shift_oracle_ratio(X)
        assert r[0] == pytest.approx(0.5)
        assert r[1] == pytest.approx(0.0, abs=1e-12)


class TestMartingaleNull:
    def test_structure_and_bound(self):
        result = martingale_null(seed=5, n_streams=50, length=100,
                                 threshold=20.0)
        assert result.columns == ("method", "trial", "max_log_martingale",
                                  "crossed")
        assert len(result.rows) == 150
        for name, freq in result.summary["crossing_frequency"].items():
            assert freq <= 1 / 20.0 + 3 * np.sqrt(0.05 * 0.95 / 50)

    def test_uniform_streams_deterministic_and_in_range(self):
        a = uniform_streams(seed=6, n_streams=3, length=40)
        b = uniform_streams(seed=6, n_streams=3, length=40)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 0.0) and np.all(a <= 1.0)
        # row i depends only on (seed, i), not on how many rows were asked for
        c = uniform_streams(seed=6, n_streams=1, length=40)
        np.testing.assert_array_equal(a[0], c[0])

    def test_rows_equal_run_stream(self):
        result = martingale_null(seed=7, n_streams=4, length=60, threshold=20.0)
        p = uniform_streams(seed=7, n_streams=4, length=60)
        alarms = AlarmConfig(ville_threshold=20.0)
        specs = {"power": power(0.5), "simple_mixture": simple_mixture(),
                 "simple_jumper": simple_jumper()}
        for method, i, max_log, crossed in result.rows:
            final, trajectory = run_stream(specs[method], alarms, p[i])
            assert max_log == trajectory.log_m.max()
            assert crossed == int(any(kind == "ville"
                                      for _, kind in final.alarm_history))


class TestVectorizedPaths:
    @pytest.mark.parametrize("spec", [power(0.5), simple_mixture(),
                                      simple_jumper()])
    def test_matches_sequential_updates(self, spec):
        alarms = AlarmConfig(ville_threshold=1e12)
        p = uniform_streams(seed=7, n_streams=2, length=30)
        for i in range(2):
            _, trajectory = run_stream(spec, alarms, p[i])
            state = init(spec, alarms)
            for t in range(30):
                state = update(spec, state, p[i, t], alarms)
                assert trajectory.log_m[t] == pytest.approx(state.log_m,
                                                            abs=1e-9)


class TestStreamFixtures:
    def test_single_change_shapes(self):
        train, X, anomalous = single_change_stream(seed=8, length=400,
                                                   change_at=200)
        assert train.values.shape == (1000, 2)
        assert X.shape == (400, 2)
        assert anomalous.shape == (400,)
        assert not anomalous[:200].any()
        assert anomalous[200:].mean() > 0.3
        # ramp reaches certainty at the end
        assert anomalous[-1]

    def test_two_burst_shapes(self):
        train, X, anomalous = two_burst_stream(seed=9, length=600,
                                               bursts=((100, 150), (400, 450)))
        assert anomalous.sum() == 100
        assert anomalous[100:150].all() and anomalous[400:450].all()
        assert not anomalous[:100].any()
        # anomalous points actually sit at the shifted mean
        assert X[anomalous].mean() > 2.0

    def test_deterministic(self):
        a = single_change_stream(seed=10, length=100, change_at=50)
        b = single_change_stream(seed=10, length=100, change_at=50)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])


class TestCounts:
    @pytest.mark.parametrize("name, key", [("strategy_sweep", "n_trials"),
                                           ("conditional", "n_trials"), ("shift", "n_trials"),
                                           ("martingale_null", "n_streams")])
    @pytest.mark.parametrize("count", [0, -1, 2.7, "3", True])
    def test_trial_counts_are_positive_integers(self, name, key, count):
        # 0 once gave an IndexError or NaN means, -1 an empty table and 2.7
        # two trials
        with pytest.raises(InvalidHyperparameter, match=key):
            run_experiment(name, seed=0, **{key: count})


class TestDispatch:
    def test_known_names(self):
        assert EXPERIMENT_NAMES == ("strategy_sweep", "conditional", "shift",
                                    "martingale_null")
        result = run_experiment("martingale_null", seed=11, n_streams=5,
                                length=20)
        assert result.name == "martingale_null"

    def test_unknown_name(self):
        with pytest.raises(InvalidSpec, match="unknown experiment"):
            run_experiment("fdr_sweep", seed=0)
