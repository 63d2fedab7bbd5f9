"""Shared data containers, input validation, seeded randomness, and the
CSV writer.

Every setting, matrix and snapshot header from outside goes through one
checker per kind of input: :func:`check_count` (counts), :func:`check_seed`
(seeds and stream steps), :func:`check_real` (reals) and
:func:`check_finite` (arrays, as :class:`DataMatrix` checks every matrix).
Counts, seeds and reals refuse bools, strings and non-finite values rather
than coerce them; each caller keeps its own range check and exception type.
Every spec takes only the settings of its kind (:func:`check_settings`).

Every container is immutable after construction and holds read-only numpy
arrays, so values can be shared freely across threads and between pipeline
stages. All randomness in the package flows through explicit integer seeds;
:func:`split_seed` derives statistically independent child streams so that
results never depend on iteration or scheduling order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

MAX_SEED = 2**64


class ConfanomError(Exception):
    """Base class for every error raised by this package."""


class InvalidData(ConfanomError):
    """A non-finite entry was found in numeric input.

    Carries the 0-based ``row`` and ``col`` of the first offending entry
    (``col`` is None for 1-D input).
    """

    def __init__(self, row, col=None, message=None):
        self.row = int(row)
        self.col = None if col is None else int(col)
        if message is None:
            where = f"row {self.row}" if self.col is None else f"row {self.row}, column {self.col}"
            message = f"non-finite value at {where}"
        super().__init__(message)


class InvalidLabel(ConfanomError):
    pass


class ShapeMismatch(ConfanomError):
    pass


class EmptyTrainingSet(ConfanomError):
    pass


class KTooLarge(ConfanomError):
    pass


class InvalidHyperparameter(ConfanomError):
    pass


class DimensionMismatch(ConfanomError):
    pass


class AmbiguousPolarity(ConfanomError):
    pass


class CalibrationTooLarge(ConfanomError):
    pass


class KOutOfRange(ConfanomError):
    pass


class NoOutOfBagRows(ConfanomError):
    pass


class EmptyCalibration(ConfanomError):
    pass


class InvalidDelta(ConfanomError):
    pass


class TableMismatch(ConfanomError):
    pass


class EmptyInput(ConfanomError):
    pass


class NoAnomalies(ConfanomError):
    pass


class InvalidSpec(ConfanomError):
    pass


class InvalidAlpha(ConfanomError):
    pass


class ConfigError(ConfanomError):
    pass


class SnapshotError(ConfanomError):
    pass


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def check_finite(values, what):
    """Return an array unchanged, or raise InvalidData naming its first NaN
    or infinite entry: its position in 1-D input, its row and column in 2-D."""
    finite = np.isfinite(values)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        where = f"position {at[0]}" if len(at) == 1 else f"row {at[0]}, column {at[1]}"
        raise InvalidData(*at, message=f"non-finite {what} at {where}: {values[at]!r}")
    return values


def check_seed(seed, name="seed"):
    """Validate and normalize a seed, or a stream step ``name``, to a plain
    int in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidHyperparameter(f"{name} must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise InvalidHyperparameter(f"{name} must be a 64-bit unsigned integer")
    return seed


def check_count(name, value, least, error=InvalidHyperparameter):
    """Validate a count and normalize it to a plain int: like seeds, counts
    refuse floats, strings and bools rather than truncating.  ``error`` is
    the exception the caller raises for the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value}")
    return int(value)


def check_real(name, value, error):
    """Validate a real-valued setting and normalize it to a float: bools,
    strings, other non-numbers, NaN and infinities raise ``error``, the
    caller's exception for the setting; the caller checks the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    return value


def check_settings(spec, kind_field, settings, error):
    """Fill the unset (None) settings of ``spec``'s kind from ``settings``
    (kind -> setting -> default) and raise ``error``, naming the field and
    the kind, for an unknown kind or a set field of another kind."""
    kind = getattr(spec, kind_field)
    if not isinstance(kind, str) or kind not in settings:
        raise error(f"unknown {type(spec).__name__} {kind_field} {kind!r}")
    for name in (f.name for f in fields(spec) if f.name != kind_field):
        if name in settings[kind] and getattr(spec, name) is None:
            object.__setattr__(spec, name, settings[kind][name])
        elif name not in settings[kind] and getattr(spec, name) is not None:
            raise error(f"{name} does not apply to {kind_field} {kind!r}")


def _check_alpha(alpha):
    """A significance level in (0, 1), refused with InvalidAlpha."""
    alpha = check_real("alpha", alpha, InvalidAlpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def split_seed(seed, stream_id):
    """Derive a child seed for an independent random stream.

    Deterministic in ``(seed, stream_id)``; distinct stream ids give
    statistically independent streams regardless of the order in which they
    are consumed, so parallel fits stay reproducible.

    Parameters
    ----------
    seed : int
        Parent seed in [0, 2**64).
    stream_id : int
        Nonnegative stream index.

    Returns
    -------
    int
        Child seed in [0, 2**64).
    """
    seed = check_seed(seed)
    stream_id = check_count("stream_id", stream_id, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed):
    """Generator for the given seed. All package randomness goes through
    here, except two counter-based streams: the smoothing draws of
    ``estimation._smoothing_draws`` and the isolation-forest draws of
    ``detectors.fit_plan``, which come from :func:`philox_block`."""
    return np.random.default_rng(check_seed(seed))


# Philox4x64-10 multipliers and key increments, as numpy's Philox uses them
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# elements per pass, small enough that the temporaries stay in cache
_PHILOX_CHUNK = 1 << 14


def _mulhilo(m, x):
    # 64 x 64 -> 128-bit product from 32-bit halves, carrying as Warren's
    # mulhu does (Hacker's Delight, sec. 8-2): no partial sum overflows
    m0, m1, x0, x1 = m & _LOW32, m >> _SHIFT32, x & _LOW32, x >> _SHIFT32
    t = m1 * x0 + ((m0 * x0) >> _SHIFT32)
    return m1 * x1 + (t >> _SHIFT32) + ((m0 * x1 + (t & _LOW32)) >> _SHIFT32), m * x


def philox_block(key, tweak, counter, stream):
    """Counter block ``(counter, stream)`` of the Philox stream keyed by
    ``(key, tweak)``, for many blocks at once.

    Returns a (4, n) uint64 array: column i holds the four words that
    ``np.random.Philox(key=key[i] + 2**64 * tweak[i],
    counter=counter[i] + 2**64 * stream).random_raw(4)`` returns, so a
    draw depends only on its key and block, never on which other draws are
    made or in what order.  ``counter`` must lie below 2**63.
    """
    key, tweak = np.broadcast_arrays(np.asarray(key, np.uint64), np.asarray(tweak, np.uint64))
    counter = np.asarray(counter, np.uint64)
    out = np.empty((4, counter.shape[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo in range(0, counter.shape[0], _PHILOX_CHUNK):
            part = slice(lo, lo + _PHILOX_CHUNK)
            k0, k1 = key[part], tweak[part]
            # numpy's Philox increments its counter before each block
            x0 = counter[part] + np.uint64(1)
            x1 = np.full_like(x0, stream)
            x2 = x3 = np.zeros_like(x0)
            for r in range(10):
                if r:
                    k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
                hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
                hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
                x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            out[:, part] = x0, x1, x2, x3
    return out


def philox_uniform(words):
    """Doubles in [0, 1) from 64-bit words, as ``Generator.random`` makes them."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def philox_choice(key, tweak, sizes, counts, stream):
    """``counts[i]`` distinct integers below ``sizes[i]`` for every i, drawn
    from the Philox stream keyed by ``(key[i], tweak[i])``.

    A partial Fisher-Yates shuffle of ``range(sizes[i])`` (Knuth's Algorithm
    P) whose j-th uniform is word j % 4 of counter block ``(j // 4, stream)``.
    Returns the draws of all i, concatenated in order.  The swaps touch every
    position below min(largest size, 4 x largest count) and, past that, only
    each shuffle's distinct picks, each in a slot that starts out holding its
    position: a draw costs its counts, not its sizes.
    """
    n, width = counts.shape[0], int(counts.max())
    blocks = (width + 3) // 4
    words = philox_block(np.repeat(key, blocks), np.repeat(tweak, blocks),
                         np.tile(np.arange(blocks), n), stream)
    u = philox_uniform(words.T.reshape(n, -1))[:, :width].T
    # step j of shuffle i swaps positions j and pick[j, i]; past counts[i]
    # it swaps j with itself
    j = np.arange(width)[:, None]
    span = np.maximum(sizes - j, 1)
    pick = np.where(j < counts, j + np.minimum((u * span).astype(np.int64), span - 1), j)
    # position p < near of shuffle i sits in slot p * n + i; each distinct
    # far pick (p, i), p >= near, takes a slot after those, holding p
    top = int(sizes.max())
    near = min(top, 4 * width)
    slot = pick * n + np.arange(n)
    far = pick >= near
    held, slot[far] = np.unique(slot[far], return_inverse=True)
    slot[far] += near * n
    # int32 where the sizes fit: a swap moves half the bytes
    dtype = np.int32 if top < 2**31 else np.int64
    perm = np.concatenate([np.repeat(np.arange(near, dtype=dtype), n), (held // n).astype(dtype)])
    for j, to in enumerate(slot):
        row = slice(j * n, (j + 1) * n)
        perm[row], perm[to] = perm[to], perm[row].copy()
    return perm[:width * n].reshape(width, n).T[np.arange(width) < counts[:, None]]


@dataclass(frozen=True)
class DataMatrix:
    """Dense numeric observation matrix with optional binary labels, and the
    one place a matrix from outside the package is checked: ragged,
    non-numeric or featureless values and lengths that disagree raise
    ShapeMismatch, values without rows EmptyInput, a NaN or infinite entry
    InvalidData naming its row and column, a label not 0 or 1 InvalidLabel.

    Parameters
    ----------
    values : array-like of shape (n_rows, n_cols)
        Features, row per observation, copied to a read-only float64 array.
    labels : array-like of shape (n_rows,), optional
        0 for inliers, 1 for anomalies.
    column_names : sequence of str, optional
        One name per column.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            v = np.array(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeMismatch(f"values must be a rectangular numeric array: {exc}") from None
        if v.ndim != 2:
            raise ShapeMismatch(f"values must be 2-D, got {v.ndim}-D")
        if v.shape[0] < 1:
            raise EmptyInput("values must have at least one row")
        if v.shape[1] < 1:
            raise ShapeMismatch("values must have at least one column")
        object.__setattr__(self, "values", _readonly(check_finite(v, "value")))
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.ndim != 1 or lab.shape[0] != v.shape[0]:
                raise ShapeMismatch(
                    f"labels length {lab.shape} does not match n_rows {v.shape[0]}"
                )
            ok = np.isin(lab, (0, 1))
            if not ok.all():
                i = int(np.nonzero(~ok)[0][0])
                raise InvalidLabel(f"label at row {i} is not 0 or 1: {lab[i]!r}")
            object.__setattr__(self, "labels", _readonly(lab.astype(np.int64)))
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != v.shape[1]:
                raise ShapeMismatch(
                    f"{len(names)} column names for {v.shape[1]} columns"
                )
            object.__setattr__(self, "column_names", names)

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    """Anomaly scores for a batch of observations.

    ``polarity_normalized`` records that larger values mean more anomalous.
    """

    scores: np.ndarray
    polarity_normalized: bool = False

    def __post_init__(self):
        s = _readonly(np.asarray(self.scores, dtype=np.float64))
        if s.ndim != 1:
            raise ShapeMismatch(f"scores must be 1-D, got {s.ndim}-D")
        object.__setattr__(self, "scores", check_finite(s, "score"))

    def __len__(self):
        return self.scores.shape[0]


_ESTIMATION_TAGS = ("empirical", "conditional_empirical", "probabilistic")


@dataclass(frozen=True)
class PValueVector:
    """Per-observation p-values with the metadata of how they were produced.

    Parameters
    ----------
    values : ndarray in (0, 1]
    estimation : {'empirical', 'conditional_empirical', 'probabilistic'}
    smoothed : bool
        Whether randomized tie-breaking was applied.
    calibration_size : int
        Number of calibration entries behind every value.
    weighting : str or None
        Weight model kind when weighted rank counts were used.
    notes : tuple of str
        Warnings surfaced by the producing operation.
    """

    values: np.ndarray
    estimation: str
    smoothed: bool
    calibration_size: int
    weighting: str | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        v = _readonly(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1:
            raise ShapeMismatch("p-values must be 1-D")
        if self.estimation not in _ESTIMATION_TAGS:
            raise InvalidSpec(f"unknown estimation tag {self.estimation!r}")
        n = check_count("calibration_size", self.calibration_size, 1, EmptyCalibration)
        outside = ~((v > 0.0) & (v <= 1.0))
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise InvalidData(i, message=f"p-values must lie in (0, 1], got {v[i]!r} "
                                         f"at position {i}")
        # the grid invariant only makes sense for plain rank counts
        if (self.estimation == "empirical" and not self.smoothed
                and self.weighting is None and v.size):
            k = np.rint(v * (n + 1))
            on_grid = (k >= 1) & (k <= n + 1) & (v == k / (n + 1))
            if not on_grid.all():
                i = int(np.nonzero(~on_grid)[0][0])
                raise InvalidData(i, message=(
                    f"unsmoothed empirical p-value {v[i]!r} is off the grid "
                    f"k/{n + 1}"))
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "calibration_size", n)
        object.__setattr__(self, "notes", tuple(self.notes))

    def __len__(self):
        return self.values.shape[0]

    @property
    def conformal(self) -> bool:
        """False only for the probabilistic (KDE) regime, whose guarantee is
        asymptotic rather than finite-sample."""
        return self.estimation != "probabilistic"


_PROCEDURES = ("bh", "weighted_bh", "fixed_threshold")


@dataclass(frozen=True)
class DecisionSet:
    """Binary anomaly decisions plus the rule that produced them."""

    flags: np.ndarray
    procedure: str
    alpha: float
    rejection_threshold: float
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        f = np.asarray(self.flags)
        if f.ndim != 1:
            raise ShapeMismatch("flags must be 1-D")
        if not np.isin(f, (0, 1)).all():
            raise InvalidLabel("flags must be 0 or 1")
        object.__setattr__(self, "flags", _readonly(f.astype(np.int64)))
        if self.procedure not in _PROCEDURES:
            raise InvalidSpec(f"unknown procedure {self.procedure!r}")
        thr = check_real("rejection_threshold", self.rejection_threshold, InvalidSpec)
        if not 0.0 <= thr <= 1.0:
            raise InvalidSpec("rejection_threshold must be in [0, 1]")
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "rejection_threshold", thr)
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def n_flagged(self):
        return int(self.flags.sum())

    def __len__(self):
        return self.flags.shape[0]


def write_csv(path, header, row_format, rows):
    """Write a CSV file: the ``header`` names, then ``row_format % row`` for
    each row, every line ending in CRLF.

    These are the bytes ``csv.writer`` gives for cells that need no quoting:
    numbers, and names free of commas, quotes and line breaks, which is all
    the package writes.  A float cell formatted by ``%r`` reads back as the
    same double.
    """
    line = row_format + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(line % row for row in rows)
