import csv
import dataclasses
import math

import numpy as np
import pytest

from confanom.core import InvalidData, InvalidSpec, make_rng
from confanom.martingales import (ALARM_KINDS, P_FLOOR, TRAJECTORY_COLUMNS,
                                  AlarmConfig, MartingaleSpec, init, power,
                                  run_stream, simple_jumper, simple_mixture,
                                  trajectory_rows, update, write_trajectory_csv)

VILLE = AlarmConfig(ville_threshold=100.0)
BOTH = AlarmConfig(ville_threshold=100.0, restarted_ville_threshold=100.0)
ALL = AlarmConfig(ville_threshold=100.0, restarted_ville_threshold=100.0,
                  cusum_threshold=100.0, sr_threshold=100.0)
SPECS = [power(0.5), simple_mixture(), simple_jumper()]
STATE_FIELDS = ("step", "log_m", "log_m_restarted", "log_min_m", "log_sr",
                "sum_log_p", "triggered_alarms", "alarm_history", "floored_count")


def run(spec, alarms, ps):
    state = init(spec, alarms)
    for p in ps:
        state = update(spec, state, p, alarms)
    return state


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            MartingaleSpec(kind="kelly")

    def test_power_epsilon_bounds(self):
        with pytest.raises(InvalidSpec):
            power(0.0)
        with pytest.raises(InvalidSpec):
            power(1.5)
        assert power(1.0).epsilon == 1.0

    def test_power_rejects_foreign_params(self):
        with pytest.raises(InvalidSpec):
            MartingaleSpec(kind="power", epsilon=0.5, jump_rate=0.1)

    def test_jumper_states_validated(self):
        with pytest.raises(InvalidSpec):
            simple_jumper(jumper_states=(0.5, 0.5))
        with pytest.raises(InvalidSpec):
            simple_jumper(jumper_states=(-2.0, 0.0))
        with pytest.raises(InvalidSpec):
            simple_jumper(jump_rate=0.0)

    def test_alarm_config_needs_one_threshold(self):
        with pytest.raises(InvalidSpec):
            AlarmConfig()
        with pytest.raises(InvalidSpec):
            AlarmConfig(ville_threshold=1.0)
        with pytest.raises(InvalidSpec):
            AlarmConfig(sr_threshold=0.0)
        assert AlarmConfig(sr_threshold=0.5).sr_threshold == 0.5


class TestPowerMartingale:
    def test_crossing_at_step_three(self):
        # epsilon = 0.5, p = 0.01: f = 0.5 * 0.01^-0.5 = 5 each step, so
        # M_2 = 25 < 100 <= M_3 = 125
        spec = power(0.5)
        state = init(spec, VILLE)
        values = []
        for _ in range(3):
            state = update(spec, state, 0.01, VILLE)
            values.append(state.martingale)
        assert values[0] == pytest.approx(5.0, rel=1e-12)
        assert values[1] == pytest.approx(25.0, rel=1e-12)
        assert values[2] == pytest.approx(125.0, rel=1e-12)
        assert state.alarm_history == ((3, "ville"),)

    def test_fair_p_value_keeps_capital(self):
        # at epsilon = 0.5 a p-value of 0.25 gives f = 1 exactly
        spec = power(0.5)
        state = update(spec, init(spec, VILLE), 0.25, VILLE)
        assert state.martingale == pytest.approx(1.0, rel=1e-12)

    def test_epsilon_one_is_identity(self):
        spec = power(1.0)
        state = run(spec, VILLE, make_rng(1).random(50))
        assert state.martingale == pytest.approx(1.0, abs=1e-12)

    def test_large_p_values_shrink_capital(self):
        spec = power(0.5)
        state = run(spec, VILLE, [0.9] * 20)
        assert state.martingale < 1.0


class TestMixtureMartingale:
    def test_first_observation_p_one(self):
        # M_1 = integral of eps * 1^(eps-1) d(eps) = 1/2
        spec = simple_mixture()
        state = run(spec, VILLE, [1.0])
        assert state.martingale == pytest.approx(0.5, rel=1e-9)

    def test_matches_high_resolution_trapezoid(self):
        # independent quadrature of integral eps^n prod(p_i)^(eps-1) d(eps)
        rng = make_rng(2)
        ps = rng.uniform(0.05, 1.0, size=5)
        spec = simple_mixture()
        state = run(spec, VILLE, ps)
        eps = np.linspace(1e-9, 1.0, 1_000_001)
        integrand = eps ** 5 * np.exp((eps - 1.0) * np.log(ps).sum())
        expected = np.trapezoid(integrand, eps)
        assert state.martingale == pytest.approx(expected, rel=1e-6)

    def test_small_p_grows_capital(self):
        spec = simple_mixture()
        state = run(spec, VILLE, [0.01] * 10)
        assert state.martingale > 100.0

    @pytest.mark.parametrize("n", [1, 2, 10, 1000, 10**5, 10**7])
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.9, 0.99, 0.995, 0.998, 0.999,
                                       1.0, 1.001, 1.01, 1.3, 3.0,
                                       -math.log(P_FLOOR)])
    def test_matches_quadrature(self, n, ratio):
        # a = -sum log p ranges from 0 (every p = 1) to n * 27.6 (every p at
        # the floor); the state is placed at step n - 1 so one update
        # evaluates the mixture at step n without an n-step stream
        mpmath = pytest.importorskip("mpmath")
        spec = simple_mixture()
        state = dataclasses.replace(init(spec, VILLE), step=n - 1,
                                    sum_log_p=-ratio * (n - 1))
        state = update(spec, state, math.exp(-ratio), VILLE)
        mpmath.mp.dps = 40
        N, a = mpmath.mpf(n), mpmath.mpf(-state.sum_log_p)

        def integrand(eps):
            return mpmath.exp(N * mpmath.log(eps) + a * (1 - eps)) if eps > 0 else 0

        # split at the integrand's peak and a few of its widths either side
        peak = min(mpmath.mpf(1), N / a) if a > 0 else mpmath.mpf(1)
        width = mpmath.sqrt(N) / max(a, N)
        points = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {
            peak + c * width for c in (-40, -10, -3, 0, 3, 10)
            if 0 < peak + c * width < 1})
        want = float(mpmath.log(mpmath.quad(integrand, points)))
        assert abs(state.log_m - want) <= 1e-8 * max(1.0, abs(want))


class TestJumperMartingale:
    def test_fair_point_keeps_total_capital(self):
        # p = 1/2 makes every bet 1 + s(p - 1/2) = 1; mixing redistributes
        # but cannot change the total
        spec = simple_jumper()
        state = run(spec, VILLE, [0.5] * 30)
        assert state.martingale == pytest.approx(1.0, rel=1e-12)

    def test_small_p_grows_capital(self):
        spec = simple_jumper()
        state = run(spec, VILLE, [0.01] * 100)
        assert state.martingale > 100.0

    def test_capitals_stay_normalized_in_state(self):
        spec = simple_jumper()
        state = run(spec, VILLE, make_rng(3).random(20))
        assert state.jumper_capitals.sum() == pytest.approx(1.0, rel=1e-9)


class TestUpdateMechanics:
    def test_p_floor_counted(self):
        spec = power(0.5)
        state = init(spec, VILLE)
        state = update(spec, state, 0.0, VILLE)
        assert state.floored_count == 1
        assert math.isfinite(state.log_m)
        state = update(spec, state, 0.5, VILLE)
        assert state.floored_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.2])
    def test_p_outside_unit_interval_refused(self, bad):
        # one NaN used to turn log M into NaN and silence every later alarm
        spec = power(0.5)
        alarms = AlarmConfig(ville_threshold=100)
        with pytest.raises(InvalidData, match="stream step 2 ") as err:
            run_stream(spec, alarms, [0.5, bad] + [1e-3] * 10)
        assert err.value.row == 1
        state = update(spec, init(spec, alarms), 0.5, alarms)
        with pytest.raises(InvalidData, match="stream step 2 "):
            update(spec, state, bad, alarms)
        # the refused update left the state as it was, and the stream goes on
        assert state == update(spec, init(spec, alarms), 0.5, alarms)
        final, _ = run_stream(spec, alarms, [0.5] + [1e-3] * 10)
        assert "ville" in final.triggered_alarms

    def test_cusum_is_ratio_to_running_min(self):
        spec = power(0.5)
        ps = [0.9, 0.9, 0.01, 0.01]
        state = run(spec, VILLE, ps)
        logs = np.cumsum([math.log(0.5) - 0.5 * math.log(p) for p in ps])
        expected_cusum = math.exp(logs[-1] - logs.min())
        assert state.cusum == pytest.approx(expected_cusum, rel=1e-9)

    def test_sr_recursion(self):
        # SR_n = (SR_{n-1} + 1) * f_n with SR_0 = 0
        spec = power(0.5)
        alarms = AlarmConfig(sr_threshold=1e12)
        ps = [0.3, 0.6, 0.1]
        state = run(spec, alarms, ps)
        sr = 0.0
        for p in ps:
            f = 0.5 * p ** (-0.5)
            sr = (sr + 1.0) * f
        assert state.sr == pytest.approx(sr, rel=1e-9)

    def test_log_domain_survives_long_extreme_streams(self):
        spec = power(0.5)
        state = run(spec, VILLE, [1e-6] * 2000)
        assert math.isfinite(state.log_m)
        assert state.martingale == math.inf  # the linear value overflows

    def test_state_is_immutable(self):
        spec = power(0.5)
        state = init(spec, VILLE)
        with pytest.raises(AttributeError):
            state.log_m = 1.0


class TestAlarms:
    def test_ville_rising_edge_only(self):
        # the plain ville alarm logs once on crossing and stays triggered
        spec = power(0.5)
        state = run(spec, VILLE, [0.01] * 9)
        assert state.alarm_history == ((3, "ville"),)
        assert "ville" in state.triggered_alarms

    def test_restarted_logs_every_crossing(self):
        # f = 5 per step: the restarted process crosses 100 every 3 steps
        spec = power(0.5)
        state = run(spec, BOTH, [0.01] * 9)
        restarted = [s for s, kind in state.alarm_history
                     if kind == "restarted_ville"]
        assert restarted == [3, 6, 9]

    def test_restarted_resets_to_one(self):
        spec = power(0.5)
        state = run(spec, BOTH, [0.01] * 3)
        assert state.restarted_martingale == pytest.approx(1.0, abs=1e-12)

    def test_alarm_clears_and_retriggers(self):
        # M = 125 at step 3, one fair-ish step drops it to ~62.8, the next
        # small p pushes it back over 100: two rising edges
        spec = power(0.5)
        ps = [0.01] * 3 + [0.99, 0.01]
        state = run(spec, VILLE, ps)
        ville_events = [s for s, kind in state.alarm_history if kind == "ville"]
        assert ville_events == [3, 5]

    def test_sr_alarm(self):
        spec = power(0.5)
        alarms = AlarmConfig(sr_threshold=50.0)
        state = run(spec, alarms, [0.01] * 3)
        assert any(kind == "sr" for _, kind in state.alarm_history)

    def test_cusum_alarm(self):
        spec = power(0.5)
        alarms = AlarmConfig(cusum_threshold=50.0)
        state = run(spec, alarms, [0.9] * 10 + [0.01] * 3)
        assert any(kind == "cusum" for _, kind in state.alarm_history)

    def test_alarm_kinds_constant(self):
        assert ALARM_KINDS == ("ville", "restarted_ville", "cusum", "sr")


def _ramp_stream(seed, length=400):
    # uniform, then ever smaller p-values, with one p below the floor: every
    # alarm fires and clears on the way
    ps = 1.0 - make_rng(seed).random(length)
    ps[length // 2:] **= 5
    ps[length // 3] = 0.0
    return ps


class TestRunStream:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_equals_iterated_update(self, spec):
        ps = _ramp_stream(4)
        final, trajectory = run_stream(spec, ALL, ps)
        state = run(spec, ALL, ps)
        for name in STATE_FIELDS:
            assert getattr(final, name) == getattr(state, name), name
        assert {kind for _, kind in final.alarm_history} == set(ALARM_KINDS)
        assert final.floored_count == 1
        assert len(trajectory) == len(ps)
        assert trajectory.log_m[-1] == state.log_m

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_split_stream_continues_with_update(self, spec):
        ps = _ramp_stream(5, length=60)
        whole, _ = run_stream(spec, ALL, ps)
        for cut in range(len(ps) + 1):
            state, _ = run_stream(spec, ALL, ps[:cut])
            for p in ps[cut:]:
                state = update(spec, state, p, ALL)
            for name in STATE_FIELDS:
                assert getattr(state, name) == getattr(whole, name), (cut, name)
            if spec.kind == "simple_jumper":
                np.testing.assert_array_equal(state.jumper_capitals,
                                              whole.jumper_capitals)

    def test_trajectory_new_alarms_match_history(self):
        spec = power(0.5)
        final, trajectory = run_stream(spec, BOTH, [0.01] * 6)
        flattened = [(int(step), kind)
                     for step, row in zip(trajectory.step, trajectory.new_alarms)
                     for kind, raised in zip(ALARM_KINDS, row) if raised]
        assert tuple(flattened) == final.alarm_history

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(InvalidSpec):
            run_stream(power(0.5), VILLE, np.full((2, 3), 0.5))


class TestTrajectoryCsv:
    def test_exact_columns_and_values(self, tmp_path):
        spec = power(0.5)
        final, trajectory = run_stream(spec, VILLE, [0.01, 0.25, 0.5])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, trajectory, VILLE)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == TRAJECTORY_COLUMNS
        assert len(rows) == 4
        first = dict(zip(rows[0], rows[1]))
        assert first["step"] == "1"
        assert float(first["martingale"]) == pytest.approx(5.0)
        assert first["ville_threshold"] == "100.0"
        assert first["restarted_ville_threshold"] == ""

    def test_alarm_cell_joins_kinds(self):
        spec = power(0.5)
        final, trajectory = run_stream(spec, BOTH, [0.01] * 3)
        rows = trajectory_rows(trajectory, BOTH)
        assert rows[2][5] == "ville;restarted_ville"

    def test_float_cells_round_trip(self, tmp_path):
        spec = simple_mixture()
        final, trajectory = run_stream(spec, VILLE, make_rng(5).random(10))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, trajectory, VILLE)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        for i, row in enumerate(rows):
            assert float(row[1]) == float(np.exp(trajectory.log_m[i]))
            assert float(row[4]) == float(np.exp(trajectory.log_sr[i]))
            assert float(row[8]) == trajectory.log_m[i]

    def test_log_martingale_survives_overflow(self, tmp_path):
        # log M reaches about 12,400; exp(log M) is inf past 709
        spec = power(0.5)
        final, trajectory = run_stream(spec, VILLE, [1e-6] * 2000)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, trajectory, VILLE)
        with open(path, newline="") as handle:
            last = list(csv.reader(handle))[-1]
        cell = last[TRAJECTORY_COLUMNS.index("log_martingale")]
        assert final.log_m > 709
        assert last[1] == "inf"
        assert math.isfinite(float(cell))
        assert cell == repr(final.log_m)


class TestVilleBound:
    def test_quick_null_crossing_rate(self):
        # Ville: P(sup M >= 20) <= 1/20 under uniform p-values
        rng = make_rng(6)
        spec = power(0.5)
        alarms = AlarmConfig(ville_threshold=20.0)
        crossings = 0
        trials = 400
        for _ in range(trials):
            state, _ = run_stream(spec, alarms, rng.random(100))
            crossings += bool(state.alarm_history)
        bound = 1 / 20
        assert crossings / trials <= bound + 3 * np.sqrt(bound * (1 - bound) / trials)
