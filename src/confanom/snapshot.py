"""Pipeline persistence as a versioned, self-describing binary container.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a JSON header (configuration, model
metadata, and an array index), the raw array payloads in index order,
and a trailing SHA-256 over everything before it.  Loads verify magic,
version, and digest before touching any content, so a truncated or
corrupted file is refused whole rather than half-loaded.

Format version 4 stores a calibration as its plan: the training rows once
(``calibration/rows``), each retained model as a row of
``calibration/train_counts`` (uint16, models x rows), each entry's row
index (``calibration/entry_rows``) and score, and the entry-to-model
pairing as a bit-packed mask (``calibration/oob_bits``).  Isolation
forests add the node fields of all their trees, model by model and tree by
tree, as four concatenated arrays (``trees/feature`` and so on) cut into
trees by ``trees/offsets``; an inner node's children are ``left`` and
``left + 1``.  The digest only detects damage:
anyone can recompute it, so every array is checked for shape, range and
tree topology before anything is built from it.

Only built-in detectors can be saved: an external scorer is an opaque
callable and an oracle weighting carries a user function, neither of
which survives a file round-trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from ._version import __version__
from .core import ConfanomError, SnapshotError
from .detectors import (
    IsolationForestScorer,
    KnnPlan,
    ModelSet,
    ScorerSpec,
)
from .estimation import AdjustmentTable, EstimationSpec
from .pipeline import FittedPipeline, PipelineConfig
from .resampling import CalibrationModel, StrategySpec

MAGIC = b"CANOMSNP"
FORMAT_VERSION = 4
_DIGEST_BYTES = 32
_TREE_ARRAYS = (("feature", "<i4"), ("threshold", "<f8"), ("left", "<i4"),
                ("size", "<i4"))


def _spec_dict(spec):
    return dataclasses.asdict(spec)


class _ArrayStore:
    """Accumulates named arrays for the payload and its header index."""

    def __init__(self):
        self.index = []
        self.payload = []

    def add(self, name, array):
        array = np.ascontiguousarray(array)
        self.index.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        })
        self.payload.append(array.tobytes())


def snapshot_save(fp: FittedPipeline, path):
    """Write a fitted pipeline to ``path``; round-trips bit-exactly."""
    if not isinstance(fp, FittedPipeline):
        raise SnapshotError("only a FittedPipeline can be snapshotted")
    if fp.config.weighting == "oracle":
        raise SnapshotError(
            "oracle weighting cannot be snapshotted: the ratio function is "
            "a user-supplied callable")
    if fp.calibration.detached or fp.config.scorer.kind == "external":
        raise SnapshotError(
            "external scorers cannot be snapshotted: the scoring function is "
            "an opaque callable")

    store = _ArrayStore()
    cm = fp.calibration
    store.add("calibration/entry_scores", cm.entry_scores)
    store.add("calibration/entry_rows", cm.entry_rows)
    store.add("calibration/oob_bits", np.packbits(cm.oob, axis=1))
    store.add("calibration/rows", cm.rows)
    store.add("calibration/train_counts", cm.train_counts)
    if not isinstance(cm.scorer, KnnPlan):
        for field, _ in _TREE_ARRAYS:
            store.add(f"trees/{field}", np.concatenate([getattr(m, field) for m in cm.models]))
        tree_sizes = np.concatenate([np.diff(m.offsets) for m in cm.models])
        store.add("trees/offsets", np.concatenate([[0], np.cumsum(tree_sizes)]).astype("<i8"))
    table_meta = None
    if fp.table is not None:
        store.add("table/adjusted", fp.table.adjusted)
        table_meta = {
            "n": fp.table.n,
            "delta": fp.table.delta,
            "method": fp.table.method,
        }
    header = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "config": {
            "scorer": _spec_dict(fp.config.scorer),
            "strategy": _spec_dict(fp.config.strategy),
            "estimation": _spec_dict(fp.config.estimation),
            "weighting": fp.config.weighting,
            "seed": fp.config.seed,
        },
        "calibration": {
            "mode": cm.mode,
            "strategy": _spec_dict(cm.strategy),
        },
        "table": table_meta,
        "arrays": store.index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([
        MAGIC,
        FORMAT_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        *store.payload,
    ])
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as handle:
        handle.write(body)
        handle.write(digest)


class _Arrays:
    """The payload arrays by name, handed out only with the dtype and rank
    the format expects."""

    def __init__(self, index, payload):
        self.arrays = {}
        offset = 0
        for entry in index:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(v) for v in entry["shape"])
            if name in self.arrays or dtype.kind not in "iuf" or min(shape, default=0) < 0:
                raise SnapshotError(f"snapshot array {name!r} is malformed")
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            chunk = payload[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise SnapshotError("snapshot file is truncated")
            self.arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
            offset += nbytes
        if offset != len(payload):
            raise SnapshotError("snapshot payload does not match its index")

    def get(self, name, dtype, ndim):
        array = self.arrays.get(name)
        if array is None or array.dtype != np.dtype(dtype) or array.ndim != ndim:
            raise SnapshotError(f"snapshot array {name!r} is missing or malformed")
        return array


def _expect(ok, what):
    if not ok:
        raise SnapshotError(f"malformed snapshot: {what}")


def _load_forests(arrays, spec, sizes, n_features):
    """Rebuild one isolation forest per model after checking that the
    offsets cut the node arrays into non-empty trees and that each tree is
    one: an inner node's children ``left`` and ``left + 1`` sit after it
    and inside its tree, every node but the root is the child of exactly
    one node, features index real columns, and subtree sizes index the
    model's c(m) table.  The tree count and each subsample size follow from
    the spec and the model's counts, as they do when fitting."""
    n_trees = int(spec.n_trees)
    psi = np.minimum(int(spec.subsample_size), sizes)
    fields = [arrays.get(f"trees/{field}", dtype, 1) for field, dtype in _TREE_ARRAYS]
    offsets = arrays.get("trees/offsets", "<i8", 1)
    n_nodes = fields[0].shape[0]
    _expect(offsets.shape == (sizes.shape[0] * n_trees + 1,) and offsets[0] == 0
            and offsets[-1] == n_nodes and (offsets[1:] > offsets[:-1]).all()
            and all(a.shape == (n_nodes,) for a in fields),
            "tree offsets do not cut the node arrays into trees")
    feature, threshold, left, size = fields
    tree = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    node, end = np.arange(n_nodes) - offsets[tree], offsets[tree + 1] - offsets[tree]
    inner = feature >= 0
    ok = ((feature < n_features) & np.isfinite(threshold)
          & (size >= 0) & (size <= psi[tree // n_trees])
          & ~(inner & ((left <= node) | (left >= end - 1))))
    if ok.all():
        child = (left + offsets[tree])[inner]
        parents = np.bincount(np.concatenate([child, child + 1]), minlength=n_nodes)
        ok = parents == (node > 0)
    t = int(tree[np.argmin(ok)])  # the first failing tree, if any
    _expect(ok.all(), f"tree {t % n_trees} of model{t // n_trees} is not a valid isolation tree")
    cuts = offsets[::n_trees]
    return ModelSet(
        IsolationForestScorer(spec, *(a[lo:hi] for a in fields),
                              offsets[i * n_trees:(i + 1) * n_trees + 1] - lo,
                              int(psi[i]), n_features, int(sizes[i]))
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])))


def _load_calibration(cal, arrays, spec):
    """Cross-check the plan arrays, then build the calibration model."""
    rows = arrays.get("calibration/rows", "<f8", 2)
    counts = arrays.get("calibration/train_counts", "<u2", 2)
    entry_scores = arrays.get("calibration/entry_scores", "<f8", 1)
    entry_rows = arrays.get("calibration/entry_rows", "<i8", 1)
    bits = arrays.get("calibration/oob_bits", "|u1", 2)
    (n_rows, n_features), n_models, n_entries = rows.shape, counts.shape[0], entry_scores.shape[0]
    _expect(n_rows >= 1 and n_features >= 1 and n_models >= 1 and n_entries >= 1
            and counts.shape[1] == n_rows and entry_rows.shape == (n_entries,)
            and bits.shape == (n_entries, (n_models + 7) // 8),
            "calibration array shapes disagree")
    _expect(np.isfinite(rows).all() and np.isfinite(entry_scores).all(),
            "non-finite calibration rows or scores")
    _expect(((entry_rows >= 0) & (entry_rows < n_rows)).all(),
            "entry row index out of range")
    oob = np.unpackbits(bits, axis=1, count=n_models).astype(bool)
    _expect(oob.any(axis=1).all(), "an entry is paired with no model")
    if cal["mode"] == "single_model":
        _expect(n_models == 1 and oob.all(), "single_model pairing is not model 0")
    else:
        _expect(not (counts[:, entry_rows].T.astype(bool) & oob).any(),
                "an entry is paired with a model trained on its row")
    # every plan trains a model on at most n rows in total, which also
    # bounds what expanding a model's rows can allocate
    sizes = counts.sum(axis=1)
    _expect(sizes.max() <= n_rows, "a model trains on more rows than the data holds")
    if spec.kind == "knn_distance":
        _expect(sizes.min() > max(1, spec.k), "a k-NN model has too few training rows")
        scorer = KnnPlan(spec, rows, counts)
    else:
        _expect(spec.kind == "isolation_forest" and sizes.min() >= 2,
                "a forest model has too few training rows")
        scorer = _load_forests(arrays, spec, sizes, n_features)
    return CalibrationModel(
        entry_scores=entry_scores, entry_rows=entry_rows, oob=oob, rows=rows,
        train_counts=counts, scorer=scorer, mode=cal["mode"],
        strategy=StrategySpec(**cal["strategy"]))


def snapshot_load(path) -> FittedPipeline:
    """Read a snapshot back into a FittedPipeline, refusing damaged files.

    Everything after the digest is untrusted: a malformed header or array
    raises SnapshotError, never a foreign exception or a hang.
    """
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
    header_len = int.from_bytes(blob[12:20], "little")
    header_end = 20 + header_len
    if header_end > len(body):
        raise SnapshotError("snapshot file is truncated")
    try:
        header = json.loads(body[20:header_end].decode("utf-8"))
        arrays = _Arrays(header["arrays"], body[header_end:])
        cfg = header["config"]
        scorer_spec = ScorerSpec(**cfg["scorer"])
        config = PipelineConfig(
            scorer=scorer_spec,
            strategy=StrategySpec(**cfg["strategy"]),
            seed=cfg["seed"],
            estimation=EstimationSpec(**cfg["estimation"]),
            weighting=cfg["weighting"],
        )
        cm = _load_calibration(header["calibration"], arrays, scorer_spec)
        table = None
        if header["table"] is not None:
            tm = header["table"]
            _expect(tm["n"] == cm.n_entries, "adjustment table size differs from the entries")
            table = AdjustmentTable(n=tm["n"], delta=tm["delta"], method=tm["method"],
                                    adjusted=arrays.get("table/adjusted", "<f8", 1))
    except SnapshotError:
        raise
    except (ConfanomError, KeyError, TypeError, ValueError, IndexError,
            AttributeError, RecursionError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    return FittedPipeline(config=config, calibration=cm, table=table)
