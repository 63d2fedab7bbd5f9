"""Pipeline persistence as a versioned, self-describing binary container.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a JSON header (configuration,
package version and array index), the payload, and a trailing SHA-256 over
everything before it.  The payload is the arrays in index order, each by
byte plane (byte 0 of every element in C order, then byte 1, and so on, so
that the high bytes of small values and the exponents of floats sit
together), deflated as one zlib stream (RFC 1950/1951) at zlib's default
level.  The stored bytes depend on the zlib build (zlib and zlib-ng deflate
differently), but every valid file loads under any build, since inflating
is fixed by the format.

The header gives each setting once: the pipeline configuration (weighting,
seed, and each of the scorer, strategy and estimation specs as its kind and
the settings of that kind, defaults filled in, and no others), the package
version and the array index.  Everything else follows from the
configuration, the arrays of the file too: ``_layout`` gives the name, dtype
and rank of each, a save writes exactly those, and a load refuses an index
that does not list each of them once, in any order, with its dtype and a
shape of its rank.

Format version 15 stores a calibration's rows once (``calibration/rows``,
at most ``MAX_ROW_CELLS`` row x feature cells) and only the SHA-256 of its
plan (``calibration/plan_digest``): a plan is a deterministic function of
the strategy, the row count and the seed, so the loader rebuilds it with
``resampling.kept_plan`` and refuses a file whose rebuilt plan has another
digest (an edited strategy or seed, or a numpy whose ``Generator`` streams
differ: NEP 19 does not promise them across numpy versions, so a file loads
only under a numpy that draws the plans as the saving one did).  Plans
above ``MAX_PLAN_MODELS`` models or ``MAX_PLAN_CELLS`` model x row cells are
refused, at save and at load, so a pipeline above them can be fitted but
not saved.  The bound is on the plan a load draws: a cross-validation or
jackknife single_model load draws only its one refit model, a JaB
single_model load the bootstraps that name its entries too.

An isolation forest adds ``trees/digest``: ``detectors.forest_digest`` of
the fitted features, thresholds and leaf sizes.  No tree is stored.  A
forest is a pure function of its rows, its plan and its seed (every draw
comes from counter-keyed Philox), so a load is a fit: the loader calls
``detectors.fit_plan`` on the stored rows with the rebuilt plan and the
stored seed, and refuses a file whose regrown forest has another digest (an
edited scorer setting or edited training rows).  Where the kept plan is the
strategy's, the file holds no entry scores: the loader scores the entries
again with ``resampling.score_entries``, as ``calibrate`` did.  Every other
file stores them (``calibration/entry_scores``).  A forest whose fit or
entry scoring would cost a load more than the ``MAX_FOREST_*`` bounds on
``detectors.fit_cost``'s charges is refused, at save and at load before a
tree grows.  A calibration-conditional pipeline adds ``table/adjusted``, its
n_entries + 1 adjusted p-values.

The file digest only detects damage: anyone can recompute it.  A load checks
magic, version and digest before it reads any content, so a truncated or
corrupted file is refused whole.  It then builds the configuration from the
header and checks the index against its layout before anything inflates: the
digests are 32 bytes, the rows have at least one feature and are within
``MAX_ROW_CELLS``, there is at most one entry score per row and a table of
at most rows + 1 values, the plan bound holds for the rows' count, and the
raw size is within deflate's 1032:1 expansion of the stored bytes.  So the
rows bound what a file can make a load inflate, about 100 MB at
``MAX_ROW_CELLS``, whatever its size.  The stream is inflated to at most one
byte past that size and refused if it is not a valid zlib stream, inflates
short or long, is unfinished, or is followed by other bytes.  What is built
from the header and arrays checks its own input: the spec constructors every
setting, through ``core``'s checkers (a delta of "0.1" or a bandwidth of
Infinity is refused like any other), ``DataMatrix`` the rows,
``check_finite`` stored scores, ``fit_plan`` a model's training rows and k,
``AdjustmentTable`` its length and ``CalibrationModel`` its score count.  A
file of another version is refused, and the message names both versions.

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


def _layout(config):
    """The dtype and rank of every array a file of ``config`` holds, by name
    in the order a save writes them.  Entry scores are stored unless a load
    grows the models that scored them: k-NN scoring is quadratic in the rows,
    and a single_model load builds only its refit."""
    forest = config.scorer.kind == "isolation_forest"
    layout = {} if forest and config.strategy.mode != "single_model" else {
        "calibration/entry_scores": ("<f8", 1)}
    layout.update({"calibration/plan_digest": ("|u1", 1), "calibration/rows": ("<f8", 2)})
    if forest:
        layout["trees/digest"] = ("|u1", 1)
    if config.estimation.regime == "conditional_empirical":
        layout["table/adjusted"] = ("<f8", 1)
    return layout


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

    cm, layout = fp.calibration, _layout(fp.config)
    arrays = {"calibration/entry_scores": cm.entry_scores,
              "calibration/plan_digest": np.frombuffer(_plan_digest(cm), np.uint8),
              "calibration/rows": cm.rows, "table/adjusted": getattr(fp.table, "adjusted", None)}
    if isinstance(cm.scorer, ForestPlan):
        plan = cm.scorer
        _check_forest_size(plan.spec, cm.train_counts, plan.n_features,
                           None if "calibration/entry_scores" in layout else cm.oob)
        arrays["trees/digest"] = np.frombuffer(
            forest_digest(plan.feature, plan.threshold, plan.leaf_size), np.uint8)
    arrays = {name: np.asarray(arrays[name], dtype) for name, (dtype, _) in layout.items()}
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
    _check_index(header["arrays"], fp.config)
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


def _expect(ok, what):
    if not ok:
        raise SnapshotError(f"malformed snapshot: {what}")


def _check_index(index, config):
    """Each array's dtype and shape by name, in ``index`` order, once the index
    lists ``config``'s layout and the rows bound it as the module describes.
    A save checks what it writes, a load what it would inflate."""
    layout = _layout(config)
    names = [entry["name"] for entry in index]
    stray = [name for name in names if name not in layout]
    _expect(not stray, f"arrays {stray} do not belong to this configuration")
    _expect(sorted(names) == sorted(layout),
            f"the index lists arrays {names}, not each of {list(layout)} once")
    shapes = {}
    for entry in index:
        name, shape = entry["name"], entry["shape"]
        dtype, rank = layout[name]
        if (entry["dtype"] != dtype or type(shape) is not list or len(shape) != rank
                or any(type(v) is not int or v < 0 for v in shape)):
            raise SnapshotError(f"snapshot array {name!r} is malformed: not {dtype} of rank "
                                f"{rank} with sides that are non-negative integers")
        shapes[name] = shape
    for name in ("calibration/plan_digest", "trees/digest"):
        size = shapes.get(name, [_DIGEST_BYTES])[0]
        _expect(size == _DIGEST_BYTES, f"{name} holds {size} bytes, not a 32-byte digest")
    rows = shapes["calibration/rows"]
    _expect(rows[1] >= 1, f"calibration rows of shape {tuple(rows)} have no feature")
    _expect(math.prod(rows) <= MAX_ROW_CELLS, f"calibration rows of shape {tuple(rows)} hold "
            f"more than the {MAX_ROW_CELLS} row x feature cells a snapshot stores")
    for name, most in (("calibration/entry_scores", rows[0]), ("table/adjusted", rows[0] + 1)):
        count = shapes.get(name, [0])[0]
        _expect(count <= most, f"{count} {name} values over {rows[0]} rows, more than {most}")
    _check_plan_size(config.strategy, rows[0])
    return {name: (np.dtype(layout[name][0]), shape) for name, shape in shapes.items()}


def _read_arrays(index, stored, config):
    """The arrays of ``config``'s layout by name, from the deflated payload
    ``stored`` as ``index`` lays it out, once ``_check_index`` holds."""
    index = _check_index(index, config)
    sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in index.values()]
    if sum(sizes) > _MAX_INFLATION * len(stored):
        raise SnapshotError(f"the array index asks for {sum(sizes)} payload bytes, more "
                            f"than {len(stored)} deflated bytes can hold")
    payload, arrays, offset = _inflate(stored, sum(sizes)), {}, 0
    for (name, (dtype, shape)), nbytes in zip(index.items(), sizes):
        planes = np.frombuffer(payload, np.uint8, nbytes, offset).reshape(dtype.itemsize, -1)
        arrays[name] = planes.T.copy().view(dtype).reshape(shape)
        offset += nbytes
    return arrays


def _load_calibration(arrays, config):
    """Rebuild the configured strategy's plan over the stored rows, check it
    against the stored digest, fit its models, score the entries again
    where the file does not store their scores, then build the calibration
    model."""
    spec, strategy = config.scorer, config.strategy
    rows = DataMatrix(arrays["calibration/rows"]).values
    entry_scores = arrays.get("calibration/entry_scores")
    if entry_scores is not None:
        check_finite(entry_scores, "calibration score")
    # DataMatrix refuses empty, featureless or non-finite rows, kept_plan
    # too few rows, fit_plan small models, and CalibrationModel a wrong score
    # count; the forest bounds come before a tree grows
    plan = kept_plan(strategy, rows.shape[0], config.seed)
    _expect(arrays["calibration/plan_digest"].tobytes() == _plan_digest(plan),
            "the plan digest is not that of the plan the strategy and seed give over "
            "these rows (an edited strategy or seed, or other numpy random streams)")
    forest = spec.kind == "isolation_forest"
    if forest:
        _check_forest_size(spec, plan.train_counts, rows.shape[1],
                           None if entry_scores is not None else plan.oob)
    scorer = fit_plan(spec, rows, plan.train_counts, config.seed, plan.streams)
    _expect(not forest or arrays["trees/digest"].tobytes()
            == forest_digest(scorer.feature, scorer.threshold, scorer.leaf_size),
            "the forest digest is not that of the forest the configuration grows over "
            "these rows (an edited scorer setting or rows)")
    if entry_scores is None:
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
        cfg = header["config"]
        config = PipelineConfig(
            scorer=ScorerSpec(**cfg["scorer"]), strategy=StrategySpec(**cfg["strategy"]),
            seed=cfg["seed"], estimation=EstimationSpec(**cfg["estimation"]),
            weighting=cfg["weighting"])
        arrays = _read_arrays(header["arrays"], body[header_end:], config)
        cm = _load_calibration(arrays, config)
        table, est = None, config.estimation
        if est.regime == "conditional_empirical":
            table = AdjustmentTable(n=cm.n_entries, delta=est.delta, method=est.method,
                                    adjusted=arrays["table/adjusted"])
    except SnapshotError:
        raise
    except (ConfanomError, KeyError, TypeError, ValueError, IndexError,
            AttributeError, OverflowError, RecursionError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    return (FittedPipeline(config=config, calibration=cm, table=table),
            header["package_version"], {name: a.nbytes for name, a in arrays.items()},
            len(body) - header_end)
