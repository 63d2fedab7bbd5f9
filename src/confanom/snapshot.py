"""Pipeline persistence as a versioned, self-describing binary container.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a JSON header (configuration,
package version and array index), the payload, and a trailing SHA-256 over
everything before it.  The payload is the arrays in index order, each by
byte plane (byte 0 of every element in C order, then byte 1, and so on, so
that the high bytes of small values and the exponents of floats sit
together), deflated as one zlib stream (RFC 1950/1951) at zlib's default
level.  Loads verify magic, version, and digest before touching any
content, so a truncated or corrupted file is refused whole rather than
half-loaded, and nothing is inflated before the digest holds.  The index
then gives the payload's raw size, summed in Python integers so no shape
can overflow it.  An index that asks for more than deflate's 1032:1
expansion limit allows for the stored bytes is refused before inflating;
the stream is inflated to at most one byte past that size and refused if it
is not a valid zlib stream, inflates short or long, is unfinished, or is
followed by other bytes.  The stored bytes depend on the zlib build (zlib
and zlib-ng deflate differently), but every valid file loads under any
build, since inflating is fixed by the format.

The header gives each setting once: the pipeline configuration (weighting,
seed, and each of the scorer, strategy and estimation specs as its kind and
the settings of that kind, defaults filled in, and no others), the package
version and the array index.  Everything else follows from it: the
calibration's strategy and mode are the configured strategy's, and an
adjustment table's size, delta and method are the entry count and the
configured estimation's.

Format version 15 stores a calibration's rows once (``calibration/rows``,
at most ``MAX_ROW_CELLS`` row x feature cells, checked from the index
before anything inflates, at save and at load) and only the SHA-256 of its
plan (``calibration/plan_digest``): a plan is a deterministic function of
the strategy, the row count and the seed, so the loader rebuilds it with
``resampling.kept_plan`` and refuses a file whose rebuilt plan has another
digest (an edited strategy or seed, or a numpy whose ``Generator`` streams
differ: NEP 19 does not promise them across numpy versions, so a file loads
only under a numpy that draws the plans as the saving one did).  Plans
above ``MAX_PLAN_MODELS`` models or ``MAX_PLAN_CELLS`` model x row cells are
refused before anything is built, at save and at load, so a pipeline above
them can be fitted but not saved.  The bound is on the plan a load draws: a
cross-validation or jackknife single_model load draws only its one refit
model, a JaB single_model load the bootstraps that name its entries too.

An isolation forest adds one array, ``trees/digest``:
``detectors.forest_digest`` of the fitted features, thresholds and leaf
sizes.  No tree is stored.  A forest is a pure function of its rows, its
plan and its seed (every draw comes from counter-keyed Philox), so a load is
a fit: the loader calls ``detectors.fit_plan`` on the stored rows with the
rebuilt plan and the stored seed, as the fit did, and refuses a file whose
regrown forest has another digest (an edited scorer setting or edited
training rows).  Where the kept plan is the strategy's (split, CV+,
jackknife+, JaB+), the regrown models are the ones that scored the entries,
so the file holds no entry scores: the loader scores the entries again with
``resampling.score_entries``, as ``calibrate`` did.  Every other file stores
them (``calibration/entry_scores``): a k-NN file, since scoring again costs a
distance pass quadratic in the rows, and a single_model file, whose entries
come from plan models that a load does not build.  A forest whose fit or
entry scoring would cost a load more than it runs is refused likewise, at
save and at load before a tree grows: ``detectors.fit_cost`` counts the
work in the kernels' own units, and each of its charges is held to one
bound (the subsample rows drawn, each swap-loop step charged as
``_SHUFFLE_STEP_ROWS`` rows, to ``MAX_FOREST_ROWS``; the cells grown
through to ``MAX_FOREST_CELLS``; the node steps of a scored row to
``MAX_FOREST_WALK`` and of the entries' scoring to ``MAX_FOREST_SCORE``).
A calibration-conditional pipeline adds ``table/adjusted``, its
n_entries + 1 adjusted p-values.

The file digest only detects damage: anyone can recompute it.  This module
checks the container: magic, version, digest, the deflate bounds, the array
index (every name a string, every dtype a string in numpy's own spelling,
every shape entry a JSON integer), each array's dtype and rank, finite
scores, the plan bound and digest, the forest bounds and digest, and that
every array belongs to the configuration (a table under another regime,
entry scores in a file whose load scores its entries again, or tree
features, leaf sizes or split rows, do not).  What is built from the header
and arrays checks its own input: the spec constructors every setting,
through ``core``'s checkers (a delta of "0.1" or a bandwidth of Infinity is
refused like any other), ``DataMatrix`` the rows, ``fit_plan`` a model's
training rows and k, ``AdjustmentTable`` its length and ``CalibrationModel``
its score count.  A file of another version is refused, and the message
names both versions.

Only built-in detectors can be saved: an external scorer is an opaque
callable and an oracle weighting carries a user function, neither of
which survives a file round-trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import zlib

import numpy as np

from ._version import __version__
from .core import ConfanomError, DataMatrix, SnapshotError, check_finite
from .detectors import ForestPlan, ScorerSpec, fit_cost, fit_plan, forest_digest
from .estimation import AdjustmentTable, EstimationSpec
from .pipeline import FittedPipeline, PipelineConfig
from .resampling import (CalibrationModel, StrategySpec, kept_plan, plan_models,
                         refits_every_row_in_order, score_entries)

MAGIC = b"CANOMSNP"
FORMAT_VERSION = 15
_DIGEST_BYTES = 32
# deflate codes at most 258 bytes in two bits, so a stream of s bytes
# inflates to at most 1032 s bytes
_MAX_INFLATION = 1032
# the largest plan a load draws: a JaB single_model load draws the
# bootstraps that name its entries too, a CV or jackknife single_model load
# only its refit model.  Only JaB plans reach the model bound, each
# bootstrap being a seeded draw; CV and jackknife plans are one permutation
# and reach the cell bound first.  Each cell costs a uint16 count and a
# mask byte
MAX_PLAN_MODELS = 1 << 14
MAX_PLAN_CELLS = 1 << 26
# the row x feature cells of calibration/rows, which constant rows deflate
# about 1000:1; a one-model load at the bound takes about 0.4 s and 230 MB
MAX_ROW_CELLS = 1 << 22
# The forest bounds, each on a charge detectors.fit_cost counts before
# anything is drawn: the file holds no tree, so only the header bounds the
# work a load runs.  MAX_FOREST_ROWS bounds the subsample rows drawn, about
# 114 ns each at a depth cap of 1, each swap-loop step, about 2.5 us besides
# its rows, charged as _SHUFFLE_STEP_ROWS rows
MAX_FOREST_ROWS = 1 << 24
_SHUFFLE_STEP_ROWS = 24
# the row x feature cells the growth reads, 2-3.5 ns each
MAX_FOREST_CELLS = 1 << 29
# the node steps one scored row takes: trees cheap enough to grow may still
# be too many to score a row through
MAX_FOREST_WALK = 1 << 17
# the node steps a load takes to score a forest's entries again, 5-15 ns
# each on two cores, the more the more trees
MAX_FOREST_SCORE = 1 << 26


def _planes(a):
    """The bytes of ``a`` by byte plane: byte 0 of every element in C order,
    then byte 1, and so on."""
    flat = np.ascontiguousarray(a).reshape(-1)
    return flat.view(np.uint8).reshape(flat.shape[0], a.itemsize).T.tobytes()


def _check_plan_size(strategy, n_rows):
    """Refuse a plan larger than a load draws: the strategy's, or for a
    cross-validation or jackknife single_model calibration its one refit."""
    models = 1 if refits_every_row_in_order(strategy) else plan_models(strategy, n_rows)
    if models > MAX_PLAN_MODELS or models * n_rows > MAX_PLAN_CELLS:
        raise SnapshotError(
            f"a plan of {models} models over {n_rows} rows is larger than a snapshot "
            f"rebuilds ({MAX_PLAN_MODELS} models, {MAX_PLAN_CELLS} model x row cells)")


def _check_row_cells(shape):
    """Refuse stored rows of more cells than a snapshot loads."""
    if math.prod(shape) > MAX_ROW_CELLS:
        raise SnapshotError(f"calibration rows of shape {tuple(shape)} hold more than the "
                            f"{MAX_ROW_CELLS} row x feature cells a snapshot stores")


def _check_forest_size(spec, counts, n_features, oob=None):
    """Refuse a forest of models trained on ``counts`` whose fit, or, where
    a load scores the entries again (``oob`` their models), whose scoring of
    them would cost more than a snapshot loads: each bound against its
    charge from ``fit_cost``."""
    cost = fit_cost(spec, counts, n_features, oob)
    for charged, bound, work in (
            (cost["rows"] + _SHUFFLE_STEP_ROWS * cost["shuffle_steps"], MAX_FOREST_ROWS,
             f"subsample rows drawn ({cost['rows']} rows in {cost['shuffle_steps']} shuffle "
             f"steps, a step charged as {_SHUFFLE_STEP_ROWS} rows)"),
            (cost["cells"], MAX_FOREST_CELLS, "row x feature cells grown through"),
            (cost["walk"], MAX_FOREST_WALK, "node steps per scored row"),
            (cost["entry_steps"], MAX_FOREST_SCORE, "node steps to score the entries again")):
        if charged > bound:
            raise SnapshotError(
                f"a forest of {spec.n_trees} trees per model over {n_features} features "
                f"costs {charged} {work}, more than a snapshot loads ({bound})")


def _stores_entry_scores(config):
    """Whether a file of ``config`` stores its entry scores.  A forest
    calibration that keeps its strategy's plan does not: its kept models are
    the ones that scored the entries, and a load grows them again.  k-NN
    files do, since scoring again costs a distance pass quadratic in the
    rows, and so do single_model files, whose entries come from plan models
    a load does not build."""
    return config.scorer.kind != "isolation_forest" or config.strategy.mode == "single_model"


def _plan_digest(plan):
    """SHA-256 of a kept plan: its train counts as <u2, entry rows as <i8 and
    out-of-bag mask as one byte per cell, each in C order, concatenated."""
    digest = hashlib.sha256()
    for a, dtype in ((plan.train_counts, "<u2"), (plan.entry_rows, "<i8"), (plan.oob, "|b1")):
        digest.update(np.ascontiguousarray(a, dtype))
    return digest.digest()


def snapshot_save(fp: FittedPipeline, path):
    """Write a fitted pipeline to ``path``; round-trips bit-exactly."""
    if not isinstance(fp, FittedPipeline):
        raise SnapshotError("only a FittedPipeline can be snapshotted")
    if fp.config.weighting == "oracle":
        raise SnapshotError(
            "oracle weighting cannot be snapshotted: the ratio function is "
            "a user-supplied callable")
    if fp.config.scorer.kind == "external":
        raise SnapshotError(
            "external scorers cannot be snapshotted: the scoring function is "
            "an opaque callable")

    cm = fp.calibration
    _check_row_cells(cm.rows.shape)
    _check_plan_size(fp.config.strategy, cm.rows.shape[0])
    stored = _stores_entry_scores(fp.config)
    arrays = {"calibration/entry_scores": cm.entry_scores} if stored else {}
    arrays["calibration/plan_digest"] = np.frombuffer(_plan_digest(cm), np.uint8)
    arrays["calibration/rows"] = cm.rows
    if isinstance(cm.scorer, ForestPlan):
        plan = cm.scorer
        _check_forest_size(plan.spec, cm.train_counts, plan.n_features,
                           None if stored else cm.oob)
        arrays["trees/digest"] = np.frombuffer(
            forest_digest(plan.feature, plan.threshold, plan.leaf_size), np.uint8)
    if fp.table is not None:
        arrays["table/adjusted"] = fp.table.adjusted
    # each spec's kind and the settings of that kind: its fields that are set
    specs = {part: dataclasses.asdict(getattr(fp.config, part))
             for part in ("scorer", "strategy", "estimation")}
    specs = {part: {k: v for k, v in fields.items() if v is not None}
             for part, fields in specs.items()}
    header = {
        "package_version": __version__,
        "config": {**specs, "weighting": fp.config.weighting, "seed": fp.config.seed},
        "arrays": [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                   for name, a in arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(_planes(a) for a in arrays.values())
    body = b"".join([
        MAGIC,
        FORMAT_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        zlib.compress(payload),
    ])
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as handle:
        handle.write(body)
        handle.write(digest)


def _inflate(stored, size):
    """The ``size`` payload bytes that the zlib stream ``stored`` holds."""
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(stored, size + 1)
    except zlib.error as exc:
        raise SnapshotError(f"the snapshot payload is not a valid zlib stream ({exc})") from None
    if len(payload) > size:
        raise SnapshotError(f"the snapshot payload inflates past the {size} bytes of its index")
    if not inflater.eof:
        raise SnapshotError("the snapshot payload's zlib stream is unfinished")
    if len(payload) < size:
        raise SnapshotError(
            f"the snapshot payload inflates to {len(payload)} bytes, not the {size} "
            f"of its index")
    if inflater.unused_data:
        raise SnapshotError("bytes follow the snapshot payload's zlib stream")
    return payload


class _Arrays:
    """The payload arrays by name, handed out only with the dtype and rank
    the format expects."""

    def __init__(self, index, stored):
        entries = {}
        for entry in index:
            name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
            # one index per array: shape entries are JSON integers, names are
            # strings, dtypes strings in numpy's spelling ("<f8", not "f8")
            if (type(name) is not str or type(dtype) is not str or name in entries
                    or any(type(v) is not int or v < 0 for v in shape)
                    or np.dtype(dtype).str != dtype or np.dtype(dtype).kind not in "iuf"):
                raise SnapshotError(f"snapshot array {name!r} is malformed")
            entries[name] = np.dtype(dtype), shape
        sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in entries.values()]
        if sum(sizes) > _MAX_INFLATION * len(stored):
            raise SnapshotError(f"the array index asks for {sum(sizes)} payload bytes, more "
                                f"than {len(stored)} deflated bytes can hold")
        if "calibration/rows" in entries:
            _check_row_cells(entries["calibration/rows"][1])
        payload = _inflate(stored, sum(sizes))
        self.arrays, self.used, offset = {}, set(), 0
        for (name, (dtype, shape)), nbytes in zip(entries.items(), sizes):
            planes = np.frombuffer(payload, np.uint8, nbytes, offset).reshape(dtype.itemsize, -1)
            self.arrays[name] = planes.T.copy().view(dtype).reshape(shape)
            offset += nbytes

    def get(self, name, dtype, ndim):
        """The array ``name`` of rank ``ndim`` and dtype ``dtype``."""
        array = self.arrays.get(name)
        self.used.add(name)
        if array is None or array.dtype.str != dtype or array.ndim != ndim:
            raise SnapshotError(f"snapshot array {name!r} is missing or malformed")
        return array


def _expect(ok, what):
    if not ok:
        raise SnapshotError(f"malformed snapshot: {what}")


def _load_calibration(arrays, config):
    """Rebuild the configured strategy's plan over the stored rows, check it
    against the stored digest, fit its models, score the entries again
    where the file does not store their scores, then build the calibration
    model."""
    spec, strategy = config.scorer, config.strategy
    rows = DataMatrix(arrays.get("calibration/rows", "<f8", 2)).values
    stored = _stores_entry_scores(config)
    entry_scores = check_finite(arrays.get("calibration/entry_scores", "<f8", 1),
                                "calibration score") if stored else None
    digest = arrays.get("calibration/plan_digest", "|u1", 1)
    n_rows = rows.shape[0]
    # DataMatrix refuses empty, featureless or non-finite rows, kept_plan
    # too few rows, fit_plan small models, and CalibrationModel a wrong score
    # count; the size checks come before anything is drawn
    _check_plan_size(strategy, n_rows)
    plan = kept_plan(strategy, n_rows, config.seed)
    _expect(digest.tobytes() == _plan_digest(plan),
            "the plan digest is not that of the plan the strategy and seed give over "
            "these rows (an edited strategy or seed, or other numpy random streams)")
    forest = None
    if spec.kind == "isolation_forest":
        _check_forest_size(spec, plan.train_counts, rows.shape[1], None if stored else plan.oob)
        forest = arrays.get("trees/digest", "|u1", 1).tobytes()
    scorer = fit_plan(spec, rows, plan.train_counts, config.seed, plan.streams)
    _expect(forest is None
            or forest == forest_digest(scorer.feature, scorer.threshold, scorer.leaf_size),
            "the forest digest is not that of the forest the configuration grows over "
            "these rows (an edited scorer setting or rows)")
    if not stored:
        entry_scores = score_entries(scorer, rows, plan, strategy.aggregation)
    return CalibrationModel(
        entry_scores=entry_scores, entry_rows=plan.entry_rows, oob=plan.oob, rows=rows,
        train_counts=plan.train_counts, scorer=scorer, strategy=strategy)


def snapshot_load(path) -> FittedPipeline:
    """Read a snapshot back into a FittedPipeline, refusing damaged files.

    Everything after the digest is untrusted: a malformed header or array
    raises SnapshotError, never a foreign exception or a hang.
    """
    return snapshot_inspect(path)[0]


def snapshot_inspect(path):
    """``snapshot_load``'s pipeline, the package version that wrote the file,
    the raw payload bytes of each array by name and the stored (deflated)
    payload bytes."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) + 4 + 8 + _DIGEST_BYTES:
        raise SnapshotError("snapshot file is truncated")
    if blob[:len(MAGIC)] != MAGIC:
        raise SnapshotError("not a pipeline snapshot (bad magic)")
    version = int.from_bytes(blob[8:12], "little")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})")
    body, digest = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError("snapshot integrity check failed "
                            "(file truncated or corrupted)")
    header_end = 20 + int.from_bytes(blob[12:20], "little")
    if header_end > len(body):
        raise SnapshotError("snapshot file is truncated")
    try:
        header = json.loads(body[20:header_end].decode("utf-8"))
        _expect(sorted(header) == ["arrays", "config", "package_version"]
                and isinstance(header["package_version"], str),
                "the header has sections other than config, arrays and package_version")
        arrays = _Arrays(header["arrays"], body[header_end:])
        cfg = header["config"]
        config = PipelineConfig(
            scorer=ScorerSpec(**cfg["scorer"]), strategy=StrategySpec(**cfg["strategy"]),
            seed=cfg["seed"], estimation=EstimationSpec(**cfg["estimation"]),
            weighting=cfg["weighting"])
        cm = _load_calibration(arrays, config)
        table, est = None, config.estimation
        if est.regime == "conditional_empirical":
            table = AdjustmentTable(n=cm.n_entries, delta=est.delta, method=est.method,
                                    adjusted=arrays.get("table/adjusted", "<f8", 1))
        unused = sorted(set(arrays.arrays) - arrays.used)
        _expect(not unused, f"arrays {unused} do not belong to this configuration")
    except SnapshotError:
        raise
    except (ConfanomError, KeyError, TypeError, ValueError, IndexError,
            AttributeError, OverflowError, RecursionError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    return (FittedPipeline(config=config, calibration=cm, table=table),
            header["package_version"], {name: a.nbytes for name, a in arrays.arrays.items()},
            len(body) - header_end)
