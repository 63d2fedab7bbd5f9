"""P-value estimation: exact empirical (conformal), calibration-conditional
empirical, and probabilistic (KDE, non-conformal).

The empirical regime implements the rank-count p-value

    p = (#{i : S_i >= s_test} + 1) / (n + 1)

which is super-uniform under exchangeability; the smoothed variant breaks
ties with a uniform draw U in (0, 1],

    p = (#{i : S_i > s_test} + U (#{i : S_i = s_test} + 1)) / (n + 1),

and is exactly Uniform(0, 1) (Bates et al. 2023, "Testing for outliers with
conformal p-values"); ``_smoothing_draws`` makes every draw U.  The
conditional regime replaces the raw rank with a simultaneous
upper-confidence-band adjustment so super-uniformity holds with probability
at least 1 - delta over the draw of the calibration set itself. The
probabilistic regime replaces rank counting with a Gaussian KDE tail mass; it
produces arbitrarily small, off-grid p-values and is flagged non-conformal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EmptyCalibration,
    InvalidDelta,
    InvalidHyperparameter,
    PValueVector,
    ShapeMismatch,
    TableMismatch,
    _readonly,
    check_count,
    check_finite,
    check_real,
    check_seed,
    make_rng,
    philox_uniform,
)
from .resampling import _tail_counts, aggregate_test_scores, paired_rank_counts

REGIMES = ("empirical", "conditional_empirical", "probabilistic")
CONDITIONAL_METHODS = ("simes", "mc", "asymptotic")

PROBABILISTIC_FLOOR = 1e-12
_MC_DRAWS = 10_000
_MC_CHUNK = 500
# draws of the first chunk whose exact minima bracket gamma in _band_mc
_MC_PILOT = 100
# relative shift of the bracket's ends in _band_mc, far above the rounding of
# betainc and betainccinv
_MC_MARGIN = 1e-6


@dataclass(frozen=True)
class EstimationSpec:
    """Configuration of the p-value regime.

    method/delta apply to conditional_empirical, smoothed to empirical,
    bandwidth (a positive number or 'silverman') to probabilistic.
    """

    regime: str = "empirical"
    method: str | None = None
    delta: float | None = None
    smoothed: bool = False
    bandwidth: float | str | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InvalidHyperparameter(f"unknown estimation regime {self.regime!r}")
        if self.regime == "conditional_empirical":
            if self.method not in CONDITIONAL_METHODS:
                raise InvalidHyperparameter(
                    f"conditional estimation requires method in {CONDITIONAL_METHODS}")
            object.__setattr__(self, "delta", _check_delta(self.delta))
            if self.smoothed:
                raise InvalidHyperparameter("smoothing applies to the empirical regime only")
        else:
            if self.method is not None or self.delta is not None:
                raise InvalidHyperparameter(
                    "method/delta apply to the conditional_empirical regime only")
        if self.regime == "probabilistic":
            if self.smoothed:
                raise InvalidHyperparameter("smoothing applies to the empirical regime only")
            bw = self.bandwidth if self.bandwidth is not None else "silverman"
            # the checked float, so that a numpy or int bandwidth saves as a
            # JSON number
            object.__setattr__(self, "bandwidth", _check_bandwidth(bw))
        elif self.bandwidth is not None:
            raise InvalidHyperparameter("bandwidth applies to the probabilistic regime only")


def _check_delta(delta):
    """The conditional regime's delta, a real number in (0, 1)."""
    delta = check_real("delta", delta, InvalidDelta)
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must be in (0, 1), got {delta!r}")
    return delta


def _check_bandwidth(bandwidth):
    """A KDE bandwidth: 'silverman', or the positive real number returned."""
    if isinstance(bandwidth, str) and bandwidth == "silverman":
        return bandwidth
    h = check_real("bandwidth", bandwidth, InvalidHyperparameter)
    if h <= 0.0:
        raise InvalidHyperparameter(f"bandwidth must be positive or 'silverman', got {h!r}")
    return h


def conformal_p_values(cal_scores, test_scores, smoothed=False, seed=None):
    """Rank-count conformal p-values of test scores against calibration scores.

    The detector-free core primitive: both inputs are plain score arrays
    under the higher-is-anomalous convention.

    Parameters
    ----------
    cal_scores : array of shape (n,)
    test_scores : array of shape (m,)
    smoothed : bool
        When true, ties are broken with per-test-point uniform draws and the
        result is exactly uniform under exchangeability; requires ``seed``.
    seed : int, optional

    Returns
    -------
    PValueVector
    """
    cal = check_finite(np.asarray(cal_scores, dtype=np.float64).reshape(-1),
                       "calibration score")
    t = check_finite(np.asarray(test_scores, dtype=np.float64).reshape(-1), "test score")
    if cal.shape[0] == 0:
        raise EmptyCalibration("no calibration scores")
    ge, gt = _tail_counts(np.sort(cal), t)
    return _rank_p_values(ge, gt, cal.shape[0], smoothed, seed)


def empirical_p_value(cm, ts, smoothed=False, seed=None):
    """Empirical conformal p-values for test scores paired to a calibration
    model (plus-mode entries compare against the test score under the entry's
    own models).  A smoothed batch is the stream that starts at step 0."""
    return _stream_p_values(cm, ts, smoothed, seed, 0)


def _stream_p_values(cm, ts, smoothed, seed, start):
    """``empirical_p_value`` of test rows at stream steps start, start + 1, ..."""
    ge, gt = paired_rank_counts(cm, ts)
    return _rank_p_values(ge, gt, cm.n_entries, smoothed, seed, start)


def _rank_p_values(ge, gt, n, smoothed, seed, start=0):
    """Empirical p-values from each test point's counts of the n entries at
    least as large (``ge``) and larger (``gt``): (ge + 1)/(n + 1), or
    smoothed by the draws of ``_smoothing_draws``."""
    if not smoothed:
        return PValueVector((ge + 1) / (n + 1), estimation="empirical",
                            smoothed=False, calibration_size=n)
    u = _smoothing_draws(seed, ge.shape[0], start)
    return PValueVector((gt + u * (ge - gt + 1)) / (n + 1), estimation="empirical",
                        smoothed=True, calibration_size=n)


def _smoothing_draws(seed, m, start):
    """Tie-breaking draws U in (0, 1] for m smoothed p-values: row i of a
    batch, or stream step start + i, draws 1 - u with u the first double of
    Philox counter block start + i keyed by ``seed`` (the first word of
    ``Philox(key=seed, counter=start + i)``, made a double by
    ``core.philox_uniform`` as ``Generator.random`` makes it).  A draw
    depends only on (seed, step), so a batch is the stream that starts at
    step 0, and a stream fed in pieces, each passing the step of its first
    row as ``start``, gets exactly the values of one call."""
    if seed is None:
        raise InvalidHyperparameter("smoothed p-values require a seed")
    # a Philox block is four 64-bit words and a double takes its first word
    words = np.random.Philox(key=check_seed(seed), counter=start).random_raw(4 * m)[::4]
    return 1.0 - philox_uniform(words)


@dataclass(frozen=True)
class AdjustmentTable:
    """Rank-to-adjusted-p-value map for calibration-conditional estimation.

    ``adjusted[r-1]`` is the p-value assigned to raw rank r in 1..n+1; it is
    nondecreasing, at least the marginal grid value r/(n+1), and ends at 1.
    """

    n: int
    delta: float
    method: str
    adjusted: np.ndarray

    def __post_init__(self):
        adj = _readonly(np.asarray(self.adjusted, dtype=np.float64))
        if adj.shape != (self.n + 1,):
            raise ShapeMismatch(
                f"adjusted must have length n + 1 = {self.n + 1}, got shape {adj.shape}")
        r = np.arange(1, self.n + 2)
        if (np.diff(adj) < 0).any():
            raise InvalidHyperparameter("adjusted values must be nondecreasing")
        if (adj < r / (self.n + 1) - 1e-12).any():
            raise InvalidHyperparameter("adjusted values must dominate the grid")
        if adj[-1] != 1.0:
            raise InvalidHyperparameter("rank n + 1 must map to 1")
        object.__setattr__(self, "adjusted", adj)


def _band_asymptotic(n, delta):
    r = np.arange(1, n + 1)
    return r / n + np.sqrt(np.log(1.0 / delta) / (2.0 * n))


def _band_simes(n, delta):
    """The Simes-type band of Bates, Candes, Lei, Romano & Sesia (2023,
    "Testing for outliers with conformal p-values"), from the generalized
    Simes inequality of Sarkar (2008) with k = max(1, floor(n / 2)):
    b_{n+1-i} = 1 - (delta prod_{l<k} (i - l) / (n - l))^(1/k) for i >= k
    and 1 for i < k, so that n uniforms' order statistics all lie at or
    below their b with probability at least 1 - delta.  Each product comes
    from log-gamma differences, with no scipy.  The ranks above n + 1 - k,
    about n/2, map to 1, but at the lowest ranks, where BH reads the band,
    it lies under the mc band (at n = 1000 and delta = 0.1, b_1 is 0.0046
    against 0.0058)."""
    k = max(1, n // 2)
    log_factorial = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    i = np.arange(n, k - 1, -1)  # b_1 takes i = n, b_{n+1-k} takes i = k
    log_product = (log_factorial[i] - log_factorial[i - k]
                   - (log_factorial[n] - log_factorial[n - k]))
    band = np.ones(n)
    band[:i.shape[0]] = -np.expm1((math.log(delta) + log_product) / k)
    return band


def _band_mc(n, delta, seed):
    """Per-rank Beta quantiles at the level gamma, the floor(delta * draws)-th
    smallest over _MC_DRAWS sorted uniform draws of min_r SF_r(U_(r)), where
    SF_r is the Beta(r, n - r + 1) survival.

    min_r SF_r(U_(r)) <= g exactly when some U_(r) reaches the band
    betainccinv(r, n - r + 1, g), so comparisons against the bands of a
    bracket [g_lo, g_hi], taken from the exact minima of the first
    _MC_PILOT draws and shifted out by a relative margin against rounding,
    find the draws surely below it and surely above it.  Only the draws in
    between get their exact minima, and only over their cells at or above
    the upper band: any other cell's survival lies above the bracket, so a
    minimum that can be gamma is the same over these cells as over all of
    them.  A bracket that does not hold gamma is widened and the same draws
    replayed, so gamma is that of the full computation, bit for bit.
    """
    if seed is None:
        raise InvalidHyperparameter("the mc adjustment requires a seed")
    # scipy.special is a large share of the package's import time and only
    # the mc adjustment and the probabilistic regime need it, so it is
    # imported on first use
    from scipy import special
    r = np.arange(1, n + 1)
    k = int(np.floor(delta * _MC_DRAWS))

    def chunks():
        rng = make_rng(seed)
        for lo in range(0, _MC_DRAWS, _MC_CHUNK):
            yield np.sort(rng.random((min(_MC_CHUNK, _MC_DRAWS - lo), n)), axis=1)

    def min_sf(u, cells):
        """Per row of ``u``, the least Beta survival over its ``cells``."""
        rank = np.nonzero(cells)[1]
        sf = np.full(u.shape, np.inf)
        sf[cells] = special.betainc(n - rank, rank + 1, 1.0 - u[cells])
        return sf.min(axis=1)

    u = next(chunks())[:_MC_PILOT]
    pilot = np.sort(min_sf(u, np.ones(u.shape, dtype=bool)))
    width = 0.04
    while True:
        lo = int(np.floor((delta - width) * pilot.size))
        hi = int(np.ceil((delta + width) * pilot.size))
        g_lo = pilot[lo] if lo >= 0 else 0.0
        g_hi = pilot[hi] if hi < pilot.size else 1.0
        band_lo = special.betainccinv(r, n - r + 1, g_lo * (1.0 - _MC_MARGIN))
        band_hi = special.betainccinv(r, n - r + 1, min(g_hi * (1.0 + _MC_MARGIN), 1.0))
        below, mins = 0, []
        for u in chunks():
            rest = u[~(u >= band_lo).any(axis=1)]
            below += u.shape[0] - rest.shape[0]
            high = rest >= band_hi
            ambiguous = high.any(axis=1)
            mins.append(min_sf(rest[ambiguous], high[ambiguous]))
        mins = np.sort(np.concatenate(mins))
        if below <= k < below + mins.size and g_lo <= mins[k - below] <= g_hi:
            return special.betainccinv(r, n - r + 1, mins[k - below])
        width *= 2.0


def build_adjustment(n, delta, method, seed=None):
    """Build the simultaneous upper-band adjustment for n calibration entries.

    All three methods produce an upper confidence band b_1 <= ... <= b_n for
    the order statistics of n uniforms at joint level 1 - delta; the adjusted
    p-value for raw rank r is b_r (clamped to the marginal grid from below),
    and rank n + 1 maps to 1.

    Methods: 'asymptotic' is the one-sided Dvoretzky-Kiefer-Wolfowitz band;
    'mc' calibrates per-rank Beta quantiles to the simulated distribution of
    the worst rank; 'simes' is the closed-form band of the generalized
    Simes inequality (see ``_band_simes``).
    """
    n = check_count("n", n, 1)
    delta = _check_delta(delta)
    if method == "asymptotic":
        band = _band_asymptotic(n, delta)
    elif method == "simes":
        band = _band_simes(n, delta)
    elif method == "mc":
        band = _band_mc(n, delta, seed)
    else:
        raise InvalidHyperparameter(f"unknown adjustment method {method!r}")
    r = np.arange(1, n + 1)
    band = np.maximum.accumulate(np.minimum(np.maximum(band, r / (n + 1.0)), 1.0))
    adjusted = np.append(band, 1.0)
    return AdjustmentTable(n=n, delta=delta, method=method, adjusted=adjusted)


def conditional_p_value(cm, ts, table):
    """Map raw empirical ranks through an AdjustmentTable, yielding p-values
    that stay super-uniform conditionally on the realized calibration set
    with probability at least 1 - delta."""
    if table.n != cm.n_entries:
        raise TableMismatch(
            f"table built for n={table.n}, calibration has {cm.n_entries} entries")
    ge, _ = paired_rank_counts(cm, ts)
    ranks = ge + 1
    return PValueVector(table.adjusted[ranks - 1], estimation="conditional_empirical",
                        smoothed=False, calibration_size=cm.n_entries)


def silverman_bandwidth(scores):
    """Silverman's reference rule, h = 0.9 min(sd, IQR/1.34) n^(-1/5)."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    sd = float(np.std(s, ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    iqr = float(q75 - q25)
    return 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)


def probabilistic_p_value(cm, ts, bandwidth="silverman"):
    """KDE tail-mass p-values: p = mean_i SF_normal((s_test - S_i) / h).

    Values are continuous, can fall below the conformal floor, and carry no
    finite-sample guarantee; the result is flagged non-conformal. Degenerate
    calibration scores (zero spread) fall back to the empirical regime with a
    note instead of erroring.
    """
    n = cm.n_entries
    if n < 2:
        raise EmptyCalibration("probabilistic estimation needs at least 2 entries")
    h = _check_bandwidth(bandwidth)
    if h == "silverman":
        h = silverman_bandwidth(cm.entry_scores)
    if not np.isfinite(h) or h <= 0.0:
        fallback = empirical_p_value(cm, ts, smoothed=False)
        return PValueVector(fallback.values, estimation="empirical", smoothed=False,
                            calibration_size=n,
                            notes=("degenerate calibration scores: probabilistic "
                                   "estimation fell back to empirical",))
    from scipy import special  # imported on first use, see _band_mc
    t = aggregate_test_scores(cm, ts)
    entries = cm.entry_scores
    out = np.empty(t.shape[0], dtype=np.float64)
    chunk = max(1, int(2_000_000 // max(n, 1)))
    for lo in range(0, t.shape[0], chunk):
        hi = min(lo + chunk, t.shape[0])
        z = (entries[None, :] - t[lo:hi, None]) / h
        out[lo:hi] = special.ndtr(z).mean(axis=1)
    out = np.clip(out, PROBABILISTIC_FLOOR, 1.0)
    return PValueVector(out, estimation="probabilistic", smoothed=False,
                        calibration_size=n)


def conditional_validity_oracle(table, n_reps=1000, seed=1):
    """Fraction of fresh calibration draws on which the table's conditional
    guarantee would fail.

    Conditionally on a realized calibration set of uniforms, the adjusted
    p-value of a uniform test point fails super-uniformity exactly when some
    order statistic of n fresh uniforms exceeds the band, so the failure
    frequency over draws estimates the band's joint violation probability
    and must stay near or below delta.
    """
    n_reps = check_count("n_reps", n_reps, 1)
    rng = make_rng(seed)
    band = table.adjusted[: table.n]
    failures = 0
    chunk = max(1, int(2_000_000 // max(table.n, 1)))
    done = 0
    while done < n_reps:
        m = min(chunk, n_reps - done)
        u = np.sort(rng.random((m, table.n)), axis=1)
        failures += int((u > band[None, :]).any(axis=1).sum())
        done += m
    return failures / n_reps
