"""Pipeline persistence as a versioned, self-describing binary container.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a JSON header (configuration,
package version and array index), the raw array payloads in index order,
and a trailing SHA-256 over everything before it.  Loads verify magic,
version, and digest before touching any content, so a truncated or
corrupted file is refused whole rather than half-loaded.

The header gives each setting once: the pipeline configuration (scorer,
strategy, estimation, weighting, seed), the package version and the array
index.  Everything else follows from it: the calibration's strategy and
mode are the configured strategy's, and an adjustment table's size, delta
and method are the entry count and the configured estimation's.

Format version 6 stores a calibration as its plan: the training rows once
(``calibration/rows``), each retained model as a row of
``calibration/train_counts`` (models x rows; uint8 if all are below 256,
else uint16), each entry's row index and score, and the entry-to-model
pairing as a bit-packed mask (``calibration/oob_bits``).  Isolation
forests add their trees, model by model and tree by tree, by level-order
shape: ``trees/feature`` per node (-1 for a leaf), ``trees/threshold`` per
inner node and ``trees/leaf_size`` per leaf, cut by ``trees/offsets``; a
tree's r-th inner node has children 2r + 1 and 2r + 2.  A
calibration-conditional pipeline adds ``table/adjusted``, its n_entries + 1
adjusted p-values.  The digest only detects damage: anyone can recompute
it, so every array is checked for shape, range, tree shape and depth before
anything is built from it.  The arrays must also be the configuration's: a
plus-mode strategy has as many models as it fits, each a bootstrap of n
rows or a fold model trained once on every row outside its fold, a
single_model refit trains once on every row, and a file is refused if
a conditional configuration has no table, a table has the wrong length, or
an array (a table under another regime, say) belongs to no part of the
configuration.  Files of earlier formats (5 repeated the strategy and the
table's settings in the header) are refused by their version.

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
from .detectors import ForestPlan, KnnPlan, ScorerSpec
from .estimation import AdjustmentTable, EstimationSpec
from .pipeline import FittedPipeline, PipelineConfig
from .resampling import CalibrationModel, StrategySpec

MAGIC = b"CANOMSNP"
FORMAT_VERSION = 6
_DIGEST_BYTES = 32
_TREE_ARRAYS = (("feature", "<i4"), ("threshold", "<f8"), ("leaf_size", "<i4"))


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
    if fp.config.scorer.kind == "external":
        raise SnapshotError(
            "external scorers cannot be snapshotted: the scoring function is "
            "an opaque callable")

    store = _ArrayStore()
    cm = fp.calibration
    store.add("calibration/entry_scores", cm.entry_scores)
    store.add("calibration/entry_rows", cm.entry_rows)
    store.add("calibration/oob_bits", np.packbits(cm.oob, axis=1))
    store.add("calibration/rows", cm.rows)
    counts = cm.train_counts
    store.add("calibration/train_counts", counts.astype("<u1") if counts.max() < 256 else counts)
    if isinstance(cm.scorer, ForestPlan):
        for field, dtype in _TREE_ARRAYS + (("offsets", "<i8"),):
            store.add(f"trees/{field}", getattr(cm.scorer, field).astype(dtype))
    if fp.table is not None:
        store.add("table/adjusted", fp.table.adjusted)
    header = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "config": {
            "scorer": dataclasses.asdict(fp.config.scorer),
            "strategy": dataclasses.asdict(fp.config.strategy),
            "estimation": dataclasses.asdict(fp.config.estimation),
            "weighting": fp.config.weighting,
            "seed": fp.config.seed,
        },
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
        self.arrays, self.used = {}, set()
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
        self.used.add(name)
        if array is None or array.dtype.str not in dtype.split() or array.ndim != ndim:
            raise SnapshotError(f"snapshot array {name!r} is missing or malformed")
        return array


def _expect(ok, what):
    if not ok:
        raise SnapshotError(f"malformed snapshot: {what}")


def _load_forests(arrays, spec, sizes, n_features):
    """Rebuild the forest plan after checking that the offsets cut the node
    array into trees of 1 + 2r nodes, r inner, the r-th at a position of at
    most 2r: every other node then has one parent before it, the inner node
    with children 2r + 1 and 2r + 2.  Features index real columns, thresholds
    are finite, leaf sizes index the model's c(m) table and no tree is deeper
    than its model's cap.  Tree count and subsample sizes follow from the spec."""
    n_trees, psi = spec.n_trees, np.minimum(spec.subsample_size, sizes)
    feature, threshold, leaf_size = (arrays.get(f"trees/{f}", d, 1) for f, d in _TREE_ARRAYS)
    offsets = arrays.get("trees/offsets", "<i8", 1)
    n_nodes, root, stop = feature.shape[0], offsets[:-1], offsets[1:]
    _expect(offsets.shape == (sizes.shape[0] * n_trees + 1,) and offsets[0] == 0
            and offsets[-1] == n_nodes and (stop > root).all(),
            "tree offsets do not cut the node arrays into trees")
    inner = feature >= 0
    before = np.concatenate([[0], np.cumsum(inner)])  # inner nodes before each position
    _expect(threshold.shape == (before[-1],) and leaf_size.shape == (n_nodes - before[-1],),
            "thresholds or leaf sizes disagree with the inner and leaf counts")
    tree = np.repeat(np.arange(root.shape[0]), np.diff(offsets))
    ok = (feature >= -1) & (feature < n_features)
    ok &= ~inner | (np.arange(n_nodes) - root[tree] <= 2 * (before[:-1] - before[root][tree]))
    ok[inner] &= np.isfinite(threshold)
    ok[~inner] &= (leaf_size >= 0) & (leaf_size <= psi[tree[~inner] // n_trees])
    good = stop - root == 1 + 2 * (before[stop] - before[root])
    good[tree[~ok]] = False
    t = int(np.argmin(good))  # the first failing tree, if any
    _expect(good.all(), f"tree {t % n_trees} of model {t // n_trees} is not a valid isolation tree")
    # levels 0 to k of a tree end where the children of their inner nodes end
    cap, end, level = np.repeat(spec.depth_caps(psi), n_trees), root + 1, 0
    while level < cap.max() and (end < stop).any():
        level += 1
        end = np.where(level <= cap, root + 1 + 2 * (before[end] - before[root]), end)
    t = int(np.argmax(end < stop))
    _expect(end[t] == stop[t], f"tree {t % n_trees} of model {t // n_trees} is deeper than its cap")
    return ForestPlan(spec, feature, threshold, leaf_size, offsets, psi, n_features)


def _load_calibration(arrays, config):
    """Cross-check the plan arrays against each other and against the
    configured strategy, then build the calibration model."""
    spec, strategy = config.scorer, config.strategy
    rows = arrays.get("calibration/rows", "<f8", 2)
    counts = arrays.get("calibration/train_counts", "|u1 <u2", 2).astype(np.uint16)
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
    # a single-model calibration binds every entry to its one model
    cm = CalibrationModel(
        entry_scores=entry_scores, entry_rows=entry_rows, oob=oob, rows=rows,
        train_counts=counts, scorer=scorer, strategy=strategy)
    if strategy.mode == "plus":
        models = {"cross_validation": strategy.k, "jackknife": n_rows,
                  "jackknife_bootstrap": strategy.n_bootstraps}[strategy.kind]
        _expect(n_models == models, f"{n_models} models where the strategy fits {models}")
        # a bootstrap draws as many rows as the data holds; a fold model
        # trains once on every row outside its fold and scores the fold
        if strategy.kind == "jackknife_bootstrap":
            _expect((sizes == n_rows).all(),
                    "a bootstrap model must draw as many rows as the data holds")
        else:
            _expect(n_entries == n_rows and (entry_rows == np.arange(n_rows)).all()
                    and (oob.sum(axis=1) == 1).all() and (counts == ~oob.T).all(),
                    "a fold model must train once on every row outside its fold")
    # a single_model refit trains once on every row, the entries' rows included
    if strategy.mode == "single_model":
        _expect((counts == 1).all(), "a single_model refit must train once on every row")
    else:
        _expect(not (counts[:, entry_rows].T.astype(bool) & oob).any(),
                "an entry is paired with a model trained on its row")
    return cm


def snapshot_load(path) -> FittedPipeline:
    """Read a snapshot back into a FittedPipeline, refusing damaged files.

    Everything after the digest is untrusted: a malformed header or array
    raises SnapshotError, never a foreign exception or a hang.
    """
    return snapshot_inspect(path)[0]


def snapshot_inspect(path):
    """``snapshot_load``'s pipeline and the payload bytes of each array by name."""
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
        _expect(sorted(header) == ["arrays", "config", "format_version", "package_version"],
                "the header has sections other than config, arrays and versions")
        arrays = _Arrays(header["arrays"], body[header_end:])
        cfg = header["config"]
        config = PipelineConfig(
            scorer=ScorerSpec(**cfg["scorer"]),
            strategy=StrategySpec(**cfg["strategy"]),
            seed=cfg["seed"],
            estimation=EstimationSpec(**cfg["estimation"]),
            weighting=cfg["weighting"],
        )
        cm = _load_calibration(arrays, config)
        table, est = None, config.estimation
        if est.regime == "conditional_empirical":
            adjusted = arrays.get("table/adjusted", "<f8", 1)
            _expect(adjusted.shape == (cm.n_entries + 1,),
                    f"an adjustment table of {adjusted.shape[0]} ranks for "
                    f"{cm.n_entries} entries")
            table = AdjustmentTable(n=cm.n_entries, delta=est.delta, method=est.method,
                                    adjusted=adjusted)
        unused = sorted(set(arrays.arrays) - arrays.used)
        _expect(not unused, f"arrays {unused} do not belong to this configuration")
    except SnapshotError:
        raise
    except (ConfanomError, KeyError, TypeError, ValueError, IndexError,
            AttributeError, OverflowError, RecursionError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    return (FittedPipeline(config=config, calibration=cm, table=table),
            {name: a.nbytes for name, a in arrays.arrays.items()})
