"""Sequential evidence processes over streams of conformal p-values.

A nonnegative martingale started at 1 is a betting capital against the
hypothesis that the stream's p-values are i.i.d. uniform.  Ville's
inequality bounds the probability that the capital ever reaches a level
lambda by 1/lambda, so crossing a threshold is anytime-valid evidence
that exchangeability has broken, without any correction for how long the
stream has been watched.

Three betting strategies are provided:

* ``power``: multiplies by epsilon * p ** (epsilon - 1) each step.
* ``simple_mixture``: integrates the power martingale over epsilon in
  (0, 1], removing the need to pick epsilon in advance.  The integral is
  evaluated exactly, in closed form through the incomplete gamma
  function, from the step count and the running sum of log p-values.
* ``simple_jumper``: a small portfolio of linear bets 1 + s * (p - 1/2)
  over states s, with capital slowly re-mixed between states.

All arithmetic is in log space; martingale values routinely exceed the
float range on long anomalous streams.  One private kernel maps an array
of p-values (one stream per row) to the log-martingale path, and both
``run_stream`` and the one-observation ``update`` go through it, so a
stream folded step by step gives the same bits as the whole stream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidData, InvalidSpec, _readonly

MARTINGALE_KINDS = ("power", "simple_mixture", "simple_jumper")
ALARM_KINDS = ("ville", "restarted_ville", "cusum", "sr")

# Conformal p-values are at least 1/(n+1), but probabilistic estimation
# can emit arbitrarily small values; flooring keeps the log domain sane.
P_FLOOR = 1e-12

_DEFAULT_JUMPER_STATES = (-1.0, 0.0, 1.0)
_DEFAULT_JUMP_RATE = 0.01

TRAJECTORY_COLUMNS = (
    "step",
    "martingale",
    "restarted_martingale",
    "cusum",
    "sr",
    "alarms",
    "ville_threshold",
    "restarted_ville_threshold",
    "log_martingale",
)


@dataclass(frozen=True)
class MartingaleSpec:
    """Betting strategy selector; parameters are accepted only by the kind that uses them."""

    kind: str
    epsilon: float | None = None
    jumper_states: tuple[float, ...] | None = None
    jump_rate: float | None = None

    def __post_init__(self):
        if self.kind not in MARTINGALE_KINDS:
            raise InvalidSpec(f"unknown martingale kind {self.kind!r}")
        if self.kind == "power":
            if self.epsilon is None:
                raise InvalidSpec("power requires epsilon")
            eps = float(self.epsilon)
            if not 0.0 < eps <= 1.0:
                raise InvalidSpec(f"epsilon must be in (0, 1], got {self.epsilon}")
            object.__setattr__(self, "epsilon", eps)
            self._reject("power", jumper_states=self.jumper_states,
                         jump_rate=self.jump_rate)
        elif self.kind == "simple_mixture":
            self._reject("simple_mixture", epsilon=self.epsilon,
                         jumper_states=self.jumper_states, jump_rate=self.jump_rate)
        else:
            states = _DEFAULT_JUMPER_STATES if self.jumper_states is None else self.jumper_states
            states = tuple(float(s) for s in states)
            if not states:
                raise InvalidSpec("jumper_states must be non-empty")
            if any(not -1.0 <= s <= 1.0 for s in states):
                raise InvalidSpec("jumper_states must lie in [-1, 1]")
            if any(b <= a for a, b in zip(states, states[1:])):
                raise InvalidSpec("jumper_states must be strictly increasing")
            rate = _DEFAULT_JUMP_RATE if self.jump_rate is None else float(self.jump_rate)
            if not 0.0 < rate < 1.0:
                raise InvalidSpec(f"jump_rate must be in (0, 1), got {self.jump_rate}")
            object.__setattr__(self, "jumper_states", states)
            object.__setattr__(self, "jump_rate", rate)
            self._reject("simple_jumper", epsilon=self.epsilon)

    def _reject(self, kind, **foreign):
        for name, value in foreign.items():
            if value is not None:
                raise InvalidSpec(f"{name} does not apply to kind {kind!r}")


def power(epsilon) -> MartingaleSpec:
    return MartingaleSpec(kind="power", epsilon=epsilon)


def simple_mixture() -> MartingaleSpec:
    return MartingaleSpec(kind="simple_mixture")


def simple_jumper(jumper_states=_DEFAULT_JUMPER_STATES,
                  jump_rate=_DEFAULT_JUMP_RATE) -> MartingaleSpec:
    return MartingaleSpec(kind="simple_jumper", jumper_states=jumper_states,
                          jump_rate=jump_rate)


@dataclass(frozen=True)
class AlarmConfig:
    """Alarm thresholds; an absent threshold disables that statistic's alarm."""

    ville_threshold: float | None = None
    restarted_ville_threshold: float | None = None
    cusum_threshold: float | None = None
    sr_threshold: float | None = None

    def __post_init__(self):
        for name in ("ville_threshold", "restarted_ville_threshold", "cusum_threshold"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not value > 1.0:
                    raise InvalidSpec(f"{name} must exceed 1, got {value}")
                object.__setattr__(self, name, value)
        if self.sr_threshold is not None:
            value = float(self.sr_threshold)
            if not value > 0.0:
                raise InvalidSpec(f"sr_threshold must be positive, got {value}")
            object.__setattr__(self, "sr_threshold", value)
        if all(getattr(self, n) is None for n in
               ("ville_threshold", "restarted_ville_threshold",
                "cusum_threshold", "sr_threshold")):
            raise InvalidSpec("at least one alarm threshold must be set")


@dataclass(frozen=True)
class MartingaleState:
    """Everything a strictly sequential stream needs to continue.

    ``log_m`` is the log martingale value (0 at start).  ``sum_log_p``
    carries the running sum of log p-values so the mixture integral can
    be evaluated without replaying the stream.  ``jumper_capitals``
    is kept normalized to sum 1; the unnormalized total is exactly the
    martingale value, which lives in ``log_m`` instead so the capitals
    never overflow.
    """

    step: int
    log_m: float
    log_m_restarted: float
    log_min_m: float
    log_sr: float
    sum_log_p: float
    jumper_capitals: np.ndarray | None
    triggered_alarms: frozenset[str]
    alarm_history: tuple[tuple[int, str], ...]
    floored_count: int

    def __post_init__(self):
        if self.jumper_capitals is not None:
            caps = np.asarray(self.jumper_capitals, dtype=np.float64)
            object.__setattr__(self, "jumper_capitals", _readonly(caps))

    @property
    def martingale(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_m))

    @property
    def restarted_martingale(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_m_restarted))

    @property
    def cusum(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_m - self.log_min_m))

    @property
    def sr(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_sr))


@dataclass(frozen=True)
class Trajectory:
    """Per-step log statistics of a stream run, one array entry per observation.

    ``new_alarms`` is a boolean (steps, len(ALARM_KINDS)) matrix of the
    alarms each step raised, columns in ALARM_KINDS order.
    """

    step: np.ndarray
    log_m: np.ndarray
    log_m_restarted: np.ndarray
    log_min_m: np.ndarray
    log_sr: np.ndarray
    new_alarms: np.ndarray

    def __post_init__(self):
        for name in ("step", "log_m", "log_m_restarted", "log_min_m", "log_sr",
                     "new_alarms"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def __len__(self):
        return self.step.shape[0]


def init(spec: MartingaleSpec, alarms: AlarmConfig) -> MartingaleState:
    """Fresh state: every process starts with capital exactly 1."""
    if not isinstance(spec, MartingaleSpec):
        raise InvalidSpec("spec must be a MartingaleSpec")
    if not isinstance(alarms, AlarmConfig):
        raise InvalidSpec("alarms must be an AlarmConfig")
    capitals = None
    if spec.kind == "simple_jumper":
        k = len(spec.jumper_states)
        capitals = np.full(k, 1.0 / k)
    return MartingaleState(
        step=0,
        log_m=0.0,
        log_m_restarted=0.0,
        log_min_m=0.0,
        log_sr=float("-inf"),
        sum_log_p=0.0,
        jumper_capitals=capitals,
        triggered_alarms=frozenset(),
        alarm_history=(),
        floored_count=0,
    )


def _running(ufunc, start, values):
    """``ufunc`` accumulated along the last axis of ``values``, seeded with ``start``.

    Seeding (rather than combining ``start`` afterwards) keeps the order of
    operations of a step-by-step fold, so a stream split anywhere gives
    the same bits as the whole.
    """
    head = np.full(values.shape[:-1] + (1,), start)
    return ufunc.accumulate(np.concatenate((head, values), axis=-1), axis=-1)[..., 1:]


def _log_mixture(n, a):
    """log I_n, I_n = integral over (0, 1] of eps**n * exp(a * (1 - eps)) d eps.

    ``a`` = -sum log p over the first ``n`` p-values.  Where a < n + 1,
    I_n = 1F1(1; n + 2; a) / (n + 1): Kummer's power series of the
    regularised lower incomplete gamma P(n + 1, a), exact at a = 0
    (every p equal to 1).  Elsewhere
    log I_n = a + ln Gamma(n + 1) + ln P(n + 1, a) - (n + 1) ln a, with
    P(n + 1, a) at least about 1/2.  ``gammainc`` is kept out of the
    first region: it underflows there, and from n near 10**6 it loses up
    to three digits of P in that tail.
    """
    # scipy.special is a large share of the package's import time and only
    # the mixture martingale needs it, so it is imported on first use
    from scipy import special
    n, a = np.broadcast_arrays(np.asarray(n, dtype=np.float64), a)
    out = np.empty(a.shape)
    series = a < n + 1.0
    ns, as_ = n[series], a[series]
    out[series] = np.log(special.hyp1f1(1.0, ns + 2.0, as_)) - np.log(ns + 1.0)
    nd, ad = n[~series], a[~series]
    out[~series] = (ad + special.gammaln(nd + 1.0)
                    + np.log(special.gammainc(nd + 1.0, ad)) - (nd + 1.0) * np.log(ad))
    return out


def _jumper_factors(spec, capitals, p):
    states = np.asarray(spec.jumper_states)
    rate = spec.jump_rate
    log_f = np.empty(p.shape)
    for t in range(p.shape[-1]):
        mixed = ((1.0 - rate) * capitals
                 + rate * capitals.sum(axis=-1, keepdims=True) / states.shape[0])
        bet = mixed * (1.0 + states * (p[..., t, None] - 0.5))
        total = bet.sum(axis=-1, keepdims=True)
        log_f[..., t] = np.log(total / mixed.sum(axis=-1, keepdims=True))[..., 0]
        capitals = bet / total
    return log_f, capitals


def _log_path(spec, state, p):
    """The log martingale along the last axis of ``p``, continuing from ``state``.

    Leading axes of ``p`` are independent streams that all start from
    ``state``.  p-values are clamped to [P_FLOOR, 1].  Returns the log
    martingale after each step, the log betting factors, the running sum
    of log p and the jumper capitals after the last step (None for the
    other kinds).
    """
    p = np.clip(p, P_FLOOR, 1.0)
    sum_log_p = _running(np.add, state.sum_log_p, np.log(p))
    if spec.kind == "simple_mixture":
        n = state.step + np.arange(1, p.shape[-1] + 1)
        log_m = _log_mixture(n, -sum_log_p)
        return log_m, np.diff(log_m, prepend=state.log_m), sum_log_p, None
    capitals = None
    if spec.kind == "power":
        log_f = math.log(spec.epsilon) + (spec.epsilon - 1.0) * np.log(p)
    else:
        log_f, capitals = _jumper_factors(spec, state.jumper_capitals, p)
    return _running(np.add, state.log_m, log_f), log_f, sum_log_p, capitals


def _log_level(threshold):
    # an unset threshold is never reached
    return math.inf if threshold is None else math.log(threshold)


def _restarted_and_sr(log_f, log_restarted, log_sr, restart_level):
    """The restarted log martingale and log Shiryaev-Roberts statistic per step.

    Both depend on their own past (the restarted process resets to
    capital 1 each time it reaches its level; SR_n = (SR_{n-1} + 1) f_n),
    so they are one pass over the log factors.  Also returns the mask of
    steps where the restarted process crossed its level.
    """
    restarted, sr, crossed = [], [], []
    for f in log_f.tolist():
        log_sr = float(np.logaddexp(log_sr, 0.0)) + f
        log_restarted += f
        hit = log_restarted >= restart_level
        if hit:
            log_restarted = 0.0
        restarted.append(log_restarted)
        sr.append(log_sr)
        crossed.append(hit)
    return np.array(restarted), np.array(sr), np.array(crossed, dtype=bool)


def _advance(spec, state, p_stream, alarms):
    p = np.asarray(p_stream, dtype=np.float64)
    if p.ndim != 1:
        raise InvalidSpec(f"p-value stream must be one-dimensional, got {p.ndim}-D")
    # one NaN would silence every later alarm, so the stream fails closed;
    # NaN fails both comparisons
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidData(state.step + i, message=(
            f"p-value at stream step {state.step + i + 1} is {float(p[i])!r}; "
            "p-values must lie in [0, 1]"))
    log_m, log_f, sum_log_p, capitals = _log_path(spec, state, p)
    log_min_m = _running(np.minimum, state.log_min_m, log_m)
    log_restarted, log_sr, restarted = _restarted_and_sr(
        log_f, state.log_m_restarted, state.log_sr,
        _log_level(alarms.restarted_ville_threshold))

    # columns in ALARM_KINDS order
    triggered = np.column_stack((
        log_m >= _log_level(alarms.ville_threshold),
        restarted,
        log_m - log_min_m >= _log_level(alarms.cusum_threshold),
        log_sr >= _log_level(alarms.sr_threshold)))
    before = np.vstack(([kind in state.triggered_alarms for kind in ALARM_KINDS],
                        triggered))[:-1]
    # History keeps rising edges; the restarted process logs every
    # crossing since it resets to capital 1 the moment it fires.
    new_alarms = triggered & ~before
    new_alarms[:, 1] = restarted

    steps = state.step + np.arange(1, p.shape[0] + 1)
    rows, kinds = np.nonzero(new_alarms)
    events = tuple((int(steps[t]), ALARM_KINDS[k])
                   for t, k in zip(rows.tolist(), kinds.tolist()))
    trajectory = Trajectory(step=steps, log_m=log_m, log_m_restarted=log_restarted,
                            log_min_m=log_min_m, log_sr=log_sr, new_alarms=new_alarms)
    if not len(trajectory):
        return state, trajectory
    final = MartingaleState(
        step=int(steps[-1]),
        log_m=float(log_m[-1]),
        log_m_restarted=float(log_restarted[-1]),
        log_min_m=float(log_min_m[-1]),
        log_sr=float(log_sr[-1]),
        sum_log_p=float(sum_log_p[-1]),
        jumper_capitals=capitals,
        triggered_alarms=frozenset(kind for kind, on in zip(ALARM_KINDS, triggered[-1])
                                   if on),
        alarm_history=state.alarm_history + events,
        floored_count=state.floored_count + int(np.count_nonzero(p < P_FLOOR)),
    )
    return final, trajectory


def update(spec: MartingaleSpec, state: MartingaleState, p,
           alarms: AlarmConfig) -> MartingaleState:
    """Advance one observation and re-evaluate every configured alarm.

    A p-value outside [0, 1] (NaN and infinities included) raises
    InvalidData naming its stream step; the state is immutable, so a
    refused update leaves it as it was.
    """
    return _advance(spec, state, [p], alarms)[0]


def run_stream(spec: MartingaleSpec, alarms: AlarmConfig, p_stream):
    """Run a fresh process over a one-dimensional p-value stream.

    Returns the final state and the Trajectory, one entry per observation.
    The result equals ``update`` folded over the stream, bit for bit.  The
    first p-value outside [0, 1] (NaN and infinities included) raises
    InvalidData naming its step, counted from 1.
    """
    return _advance(spec, init(spec, alarms), p_stream, alarms)


def _cells(values):
    return [repr(v) for v in values.tolist()]


def trajectory_rows(trajectory, alarms: AlarmConfig):
    """Plot-ready rows matching TRAJECTORY_COLUMNS, thresholds as constant columns.

    The linear statistics overflow to ``inf`` past log M = 709; the last
    column keeps log M itself.
    """
    steps = len(trajectory)
    ville = "" if alarms.ville_threshold is None else repr(alarms.ville_threshold)
    restarted = ("" if alarms.restarted_ville_threshold is None
                 else repr(alarms.restarted_ville_threshold))
    with np.errstate(over="ignore"):
        linear = [_cells(np.exp(log)) for log in (
            trajectory.log_m, trajectory.log_m_restarted,
            trajectory.log_m - trajectory.log_min_m, trajectory.log_sr)]
    new_alarms = [";".join(kind for kind, on in zip(ALARM_KINDS, row) if on)
                  for row in trajectory.new_alarms.tolist()]
    return list(zip(
        _cells(trajectory.step), *linear, new_alarms,
        [ville] * steps, [restarted] * steps, _cells(trajectory.log_m)))


def write_trajectory_csv(path, trajectory, alarms: AlarmConfig):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_COLUMNS)
        writer.writerows(trajectory_rows(trajectory, alarms))
