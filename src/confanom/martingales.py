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
  the incomplete gamma ratio of the step count and the running sum of
  log p-values, computed with numpy alone (no scipy) to about 1e-14.
* ``simple_jumper``: a small portfolio of linear bets 1 + s * (p - 1/2)
  over states s, with capital slowly re-mixed between states.

All arithmetic is in log space; martingale values routinely exceed the
float range on long anomalous streams.  One private kernel maps an array
of p-values (one stream per row) to the log-martingale path, and both
``run_stream`` and the one-observation ``update`` go through it, so a
stream folded step by step gives the same bits as the whole stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidData, InvalidSpec, _readonly, check_real, write_csv

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
            eps = check_real("epsilon", self.epsilon, InvalidSpec)
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
            if not np.iterable(states):
                raise InvalidSpec(f"jumper_states must be a sequence of numbers, got {states!r}")
            states = tuple(check_real("jumper_states", s, InvalidSpec) for s in states)
            if not states:
                raise InvalidSpec("jumper_states must be non-empty")
            if any(not -1.0 <= s <= 1.0 for s in states):
                raise InvalidSpec("jumper_states must lie in [-1, 1]")
            if any(b <= a for a, b in zip(states, states[1:])):
                raise InvalidSpec("jumper_states must be strictly increasing")
            rate = (_DEFAULT_JUMP_RATE if self.jump_rate is None
                    else check_real("jump_rate", self.jump_rate, InvalidSpec))
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
                value = check_real(name, value, InvalidSpec)
                if not value > 1.0:
                    raise InvalidSpec(f"{name} must exceed 1, got {value}")
                object.__setattr__(self, name, value)
        if self.sr_threshold is not None:
            value = check_real("sr_threshold", self.sr_threshold, InvalidSpec)
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


# The mixture's incomplete gamma ratio, computed with numpy and ``math``
# only: the regions and methods follow Gil, Segura & Temme (2012),
# "Efficient and accurate algorithms for the computation and inversion of
# the incomplete gamma function ratios", SIAM J. Sci. Comput. 34(6).
# Temme's uniform expansion serves nu >= _TEMME_NU with |eta| <= _TEMME_ETA;
# outside that window Kummer's series (a < nu) or the Legendre continued
# fraction (a >= nu) converges in a bounded number of terms.
_TEMME_NU = 50.0
_TEMME_ETA = 0.3
_TEMME_ORDERS = 7
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's error term ln Gamma(v + 1) - (v + 1/2) ln v + v - ln sqrt(2 pi)
# at v = 0..15 (entry 0 is unused); from 16 on, five terms of its series
# reach rounding
_STIRLERR = np.array([0.0] + [math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v
                              - _HALF_LN_2PI for v in range(1, 16)])
# 2**k / (2k + 1)!!, the series of exp(z**2) erf(z) sqrt(pi) / (2 z) in z**2,
# to rounding for z < 2
_ERF_SERIES = tuple(math.prod(2.0 / (2 * j + 3) for j in range(k)) for k in range(34))


def _stirlerr(nu):
    """Stirling's error term of ln Gamma(nu + 1), for integers nu >= 1."""
    v = np.maximum(nu, 16.0)
    vv = v * v
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / vv) / vv) / vv) / vv) / v
    return np.where(nu < 16.0, _STIRLERR[np.minimum(nu, 15.0).astype(np.intp)], series)


def _bd0(x, m):
    """Loader's deviance x ln(x / m) + m - x, by its series where m is near x."""
    with np.errstate(divide="ignore"):
        out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    xs, d = x[near], x[near] - m[near]
    v = d / (xs + m[near])
    s = d * v
    term = 2.0 * xs * v
    v2 = v * v
    # |v| < 0.1, so nine terms reach rounding
    for j in range(3, 21, 2):
        term *= v2
        s += term / j
    out[near] = s
    return out


def _erfcx(z):
    """exp(z**2) erfc(z) for z >= 0.

    Below 2 from the series erf z = 2/sqrt(pi) exp(-z**2) sum (2 z**2)**k
    z / (2k + 1)!!, which loses at most a factor 200 to cancellation;
    above 2 from Laplace's continued fraction, evaluated from a fixed depth.
    """
    out = np.empty(z.shape)
    low = z < 2.0
    x = z[low]
    w = x * x
    acc = np.zeros(x.shape)
    for c in reversed(_ERF_SERIES):
        acc *= w
        acc += c
    out[low] = np.exp(w) - (2.0 / math.sqrt(math.pi)) * x * acc
    x = z[~low]
    t = x.copy()
    for k in range(48, 0, -1):
        t = x + (0.5 * k) / t
    out[~low] = 1.0 / (math.sqrt(math.pi) * t)
    return out


def _converge(step, state, done):
    """Iterate ``step`` on every entry of ``state`` until ``done`` holds for it.

    ``state`` is a tuple of equal-length arrays whose first entry is the
    result; finished entries leave the working set, so each entry costs its
    own number of terms.
    """
    out = np.empty(state[0].shape)
    idx = np.arange(out.size)
    k = 1
    while idx.size:
        state = step(k, state)
        k += 1
        fin = done(state)
        if fin.any():
            out[idx[fin]] = state[0][fin]
            keep = ~fin
            idx = idx[keep]
            state = tuple(s[keep] for s in state)
    return out


def _kummer(nu, a):
    """1F1(1; nu + 1; a) = sum over k of a**k / ((nu + 1) ... (nu + k)), for a < nu."""
    def step(k, state):
        s, t, nu, a = state
        t = t * (a / (nu + k))
        return s + t, t, nu, a
    one = np.ones(a.shape)
    return _converge(step, (one, one, nu, a), lambda st: st[1] <= 1e-17 * st[0])


def _legendre_cf(nu, a):
    """Q(nu, a) / (a**nu exp(-a) / Gamma(nu)) by Legendre's continued fraction,
    for a >= nu, evaluated forward by the modified Lentz method."""
    tiny = 1e-300

    def step(i, state):
        h, c, d, b, nu, delta = state
        an = i * (nu - i)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        return h * delta, c, d, b, nu, delta

    b = a + 1.0 - nu
    d = 1.0 / b
    # a few units in the last place: delta stops moving once it is within
    # rounding of 1, so a tighter test might never be met
    return _converge(step, (d, np.full(a.shape, 1.0 / tiny), d, b, nu, d),
                     lambda st: np.abs(st[5] - 1.0) <= 1e-15)


@functools.cache
def _temme_coefficients():
    """Taylor coefficients in eta of Temme's c_k(eta), k < _TEMME_ORDERS.

    With u = lambda - 1 = b1 eta + b2 eta**2 + ... the inverse of
    eta**2 / 2 = u - ln(1 + u) (b1 = 1), and 1 / u = (e0 + e1 eta + ...) / eta:
    c_0 = 1 / u - 1 / eta and c_k = c_{k-1}' / eta + (-1)**k g_k / u, where
    g_k = (2k + 1)!! b_{2k+1} are the coefficients of Stirling's series.
    Each row keeps the terms that reach 1e-17 for nu >= _TEMME_NU and
    |eta| <= _TEMME_ETA.
    """
    size = 2 * _TEMME_ORDERS + 40
    b = [0.0, 1.0]
    for m in range(2, size + 2):
        b.append((b[m - 1] - sum((m + 1 - i) * b[i] * b[m + 1 - i]
                                 for i in range(2, m))) / (m + 1))
    e = [1.0]
    for m in range(1, size + 1):
        e.append(-sum(b[j + 1] * e[m - j] for j in range(1, m + 1)))
    c, g, rows = e[1:], 1.0, []
    for k in range(_TEMME_ORDERS):
        if k:
            g *= 2 * k + 1
            gk = (-1) ** k * g * b[2 * k + 1]
            c = [(i + 2) * c[i + 2] + gk * e[i + 1] for i in range(len(c) - 2)]
        reach = [abs(x) * _TEMME_ETA ** i * _TEMME_NU ** -k for i, x in enumerate(c)]
        rows.append(tuple(c[:1 + max(i for i, r in enumerate(reach) if r > 1e-17)]))
    return tuple(rows)


def _temme_sum(eta, nu):
    """sum over k of c_k(eta) nu**-k, Temme's series in 1 / nu."""
    total = np.zeros(eta.shape)
    for row in reversed(_temme_coefficients()):
        acc = np.full(eta.shape, row[-1])
        for c in row[-2::-1]:
            acc *= eta
            acc += c
        total /= nu
        total += acc
    return total


def _log_mixture(n, a):
    """log I_n, I_n = integral over (0, 1] of eps**n * exp(a * (1 - eps)) d eps.

    ``a`` = -sum log p over the first ``n`` p-values, and
    I_n = exp(a) Gamma(nu) P(nu, a) / a**nu with nu = n + 1.  Three regions:

    * a < nu outside Temme's window: Kummer's series,
      I_n = 1F1(1; nu + 1; a) / nu, exact at a = 0 (every p equal to 1).
    * a >= nu outside the window: with D = a**nu exp(-a) / Gamma(nu),
      ln D = ln nu - stirlerr(nu) - bd0(nu, a) - ln sqrt(2 pi nu) never
      subtracts two nu ln nu terms; Q(nu, a) = D h with h from Legendre's
      continued fraction, and log I_n = log1p(-Q) - ln D.
    * nu >= 50 and |eta| <= 0.3, eta = sign(a - nu) sqrt(2 bd0 / nu):
      Temme's uniform expansion with y = eta sqrt(nu / 2) and
      R = exp(-y**2) S / sqrt(2 pi nu), S the series in 1 / nu:
      Q = erfc(y) / 2 + R where a >= nu, and P = erfc(-y) / 2 - R where
      a < nu.  There y**2 = bd0 cancels against ln D, so only the scaled
      exp(y**2) erfc(|y|) is needed and nothing underflows.

    Each region costs a bounded number of terms for n up to 10**7 and
    beyond, and the result matches 40-digit quadrature to about 1e-14
    relative.  No scipy module is imported.
    """
    nu = np.asarray(n, dtype=np.float64) + 1.0
    # -ln D - bd0, from n alone before it is broadcast against a
    base = _HALF_LN_2PI - 0.5 * np.log(nu) + _stirlerr(nu)
    # a >= 0; adding 0.0 turns -0.0 (every p equal to 1) into 0.0
    nu, a, base = np.broadcast_arrays(nu, np.asarray(a, dtype=np.float64) + 0.0, base)
    shape = a.shape
    nu, a, base = nu.ravel(), a.ravel(), base.ravel()
    out = np.empty(a.shape)
    dev = _bd0(nu, a)
    eta = np.sqrt(2.0 * dev / nu)
    eta[a < nu] *= -1.0
    temme = (nu >= _TEMME_NU) & (np.abs(eta) <= _TEMME_ETA)
    series = ~temme & (a < nu)
    fraction = ~temme & ~series
    if series.any():
        out[series] = np.log(_kummer(nu[series], a[series])) - np.log(nu[series])
    if fraction.any():
        lead = base[fraction] + dev[fraction]
        h = _legendre_cf(nu[fraction], a[fraction])
        out[fraction] = np.log1p(-np.exp(-lead) * h) + lead
    if temme.any():
        e, v = eta[temme], nu[temme]
        y = e * np.sqrt(0.5 * v)
        s = _temme_sum(e, v) / np.sqrt(2.0 * np.pi * v)
        lower = e < 0.0
        np.negative(s, out=s, where=lower)
        bracket = 0.5 * _erfcx(np.abs(y)) + s
        value = base[temme].copy()
        value[lower] += np.log(bracket[lower])
        upper = ~lower
        d = dev[temme][upper]
        value[upper] += np.log1p(-np.exp(-d) * bracket[upper]) + d
        out[temme] = value
    return out.reshape(shape)


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


_LN2 = math.log(2.0)


def _restarted_and_sr(log_f, log_restarted, log_sr, restart_level):
    """The restarted log martingale and log Shiryaev-Roberts statistic per step.

    Both depend on their own past (the restarted process resets to
    capital 1 each time it reaches its level; SR_n = (SR_{n-1} + 1) f_n),
    so they are one pass over the log factors.  Also returns the mask of
    steps where the restarted process crossed its level.  ln(SR + 1)
    follows the branches of numpy's ``logaddexp(log_sr, 0)`` with the same
    libm calls, so the fold gives its bits at a fraction of its cost.
    """
    restarted, sr, crossed = [], [], []
    for f in log_f.tolist():
        if log_sr > 0.0:
            log_sr += math.log1p(math.exp(-log_sr))
        elif log_sr < 0.0:
            log_sr = math.log1p(math.exp(log_sr))
        elif log_sr == 0.0:
            log_sr = _LN2
        log_sr += f
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


def write_trajectory_csv(path, trajectory, alarms: AlarmConfig):
    """Write the trajectory by ``core.write_csv``: TRAJECTORY_COLUMNS, then
    one row per step.

    Thresholds fill constant columns (empty when unset).  The linear
    statistics overflow to ``inf`` past log M = 709; the last column keeps
    log M itself.
    """
    thresholds = ",".join("" if t is None else repr(t) for t in (
        alarms.ville_threshold, alarms.restarted_ville_threshold))
    row = "%d,%r,%r,%r,%r,%s," + thresholds + ",%r"
    # the alarm cell of every pattern of a step's alarm bits
    labels = [";".join(kind for k, kind in enumerate(ALARM_KINDS) if code >> k & 1)
              for code in range(1 << len(ALARM_KINDS))]
    codes = trajectory.new_alarms @ (1 << np.arange(len(ALARM_KINDS)))
    with np.errstate(over="ignore"):
        linear = [np.exp(log).tolist() for log in (
            trajectory.log_m, trajectory.log_m_restarted,
            trajectory.log_m - trajectory.log_min_m, trajectory.log_sr)]
    rows = zip(trajectory.step.tolist(), *linear, [labels[c] for c in codes.tolist()],
               trajectory.log_m.tolist())
    write_csv(path, TRAJECTORY_COLUMNS, row, rows)
