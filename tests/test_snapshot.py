import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import re
import tempfile
import time
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confanom import detectors, snapshot
from confanom.cli import main
from confanom.core import ConfanomError, DataMatrix, SnapshotError
from confanom.detectors import ScorerSpec
from confanom.estimation import EstimationSpec
from confanom.pipeline import (PipelineConfig, compute_p_values, fit,
                               fit_detached, score_samples, stream_p_values)
from confanom.resampling import (cross_validation, jackknife, jackknife_bootstrap, kept_plan,
                                  split)
from confanom.snapshot import (FORMAT_VERSION, MAGIC, snapshot_load,
                               snapshot_save)

from conftest import forest_digest, gaussian_matrix

KNN = ScorerSpec(kind="knn_distance", k=4)
FOREST = ScorerSpec(kind="isolation_forest", n_trees=12, subsample_size=32)
SMALL_FOREST = ScorerSpec(kind="isolation_forest", n_trees=3, subsample_size=16)
STRATEGIES = {
    "split": split(0.4),
    "cv_plus": cross_validation(4), "cv_single": cross_validation(4, "single_model"),
    "jackknife_plus": jackknife(), "jackknife_single": jackknife("single_model"),
    "jab_plus": jackknife_bootstrap(6), "jab_single": jackknife_bootstrap(6, "single_model"),
}
PLAN_MISMATCH = "plan digest is not that of the plan the strategy and seed give"
FOREST_MISMATCH = "forest digest is not that of the forest the configuration grows"


def round_trip(tmp_path, config, train):
    fitted = fit(config, train)
    path = tmp_path / "pipeline.snap"
    snapshot_save(fitted, path)
    return fitted, snapshot_load(path)


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", list(STRATEGIES.values()), ids=list(STRATEGIES))
    @pytest.mark.parametrize("scorer", [KNN, SMALL_FOREST], ids=["knn", "forest"])
    def test_plan_rebuilt_bit_for_bit(self, tmp_path, scorer, strategy):
        # the file holds no plan: the loader rebuilds it from strategy and seed
        config = PipelineConfig(scorer=scorer, strategy=strategy, seed=9)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(0, 30, d=2))
        for name in ("train_counts", "oob", "entry_rows", "entry_scores"):
            a, b = getattr(loaded.calibration, name), getattr(original.calibration, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        # a forest file whose plan is the strategy's holds no entry scores:
        # the load scores the entries again under the forest it grows
        _, arrays = read_snapshot(tmp_path / "pipeline.snap")
        stored = scorer.kind == "knn_distance" or strategy.mode == "single_model"
        assert ("calibration/entry_scores" in arrays) == stored
        X = gaussian_matrix(1, 12, d=2)
        for p_values in (compute_p_values, stream_p_values):
            assert p_values(loaded, X).values.tobytes() == p_values(original, X).values.tobytes()

    def test_knn_split(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.4), seed=9)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(0, 100))
        assert loaded.config == original.config

    def test_forest_cv_plus(self, tmp_path):
        config = PipelineConfig(scorer=FOREST,
                                strategy=cross_validation(k=4, mode="plus"),
                                seed=10)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(2, 80))
        X = gaussian_matrix(3, 20)
        np.testing.assert_array_equal(score_samples(loaded, X).scores,
                                      score_samples(original, X).scores)
        assert loaded.calibration.entry_models == original.calibration.entry_models

    def test_conditional_table_preserved(self, tmp_path):
        config = PipelineConfig(
            scorer=KNN, strategy=split(0.5), seed=11,
            estimation=EstimationSpec(regime="conditional_empirical",
                                      method="mc", delta=0.1))
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(4, 120))
        assert loaded.table.method == loaded.config.estimation.method == "mc"
        assert loaded.table.delta == loaded.config.estimation.delta == 0.1
        assert loaded.table.n == loaded.n_entries
        np.testing.assert_array_equal(loaded.table.adjusted,
                                      original.table.adjusted)
        X = gaussian_matrix(5, 15)
        np.testing.assert_array_equal(compute_p_values(loaded, X).values,
                                      compute_p_values(original, X).values)

    def test_logistic_weighting_survives(self, tmp_path):
        # the weight model is refit per batch, so only the kind needs to
        # persist; the calibration rows it trains on ride along as arrays
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=12,
                                weighting="logistic")
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(6, 140))
        assert loaded.config.weighting == "logistic"
        np.testing.assert_array_equal(loaded.calibration.cal_rows,
                                      original.calibration.cal_rows)
        X = gaussian_matrix(7, 30)
        np.testing.assert_array_equal(compute_p_values(loaded, X).values,
                                      compute_p_values(original, X).values)

    def test_bootstrap_single_model(self, tmp_path):
        config = PipelineConfig(
            scorer=FOREST,
            strategy=jackknife_bootstrap(n_bootstraps=6, mode="single_model"),
            seed=13)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(8, 60))
        assert loaded.calibration.dropped_rows == original.calibration.dropped_rows

    def test_smoothed_streams_replay_identically(self, tmp_path):
        # smoothing always derives from the stored pipeline seed, so a
        # reloaded pipeline replays the exact same stream p-values.  A numpy
        # bool is stored as the bool: np.True_ once made json refuse the header
        for smoothed in (True, np.True_):
            config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=14,
                                    estimation=EstimationSpec(smoothed=smoothed))
            original, loaded = round_trip(tmp_path, config, gaussian_matrix(10, 90))
            stream = gaussian_matrix(11, 35)
            np.testing.assert_array_equal(stream_p_values(loaded, stream).values,
                                          stream_p_values(original, stream).values)

    def test_numeric_bandwidth_saved_as_float(self, tmp_path):
        # a bandwidth is kept as the checked float: an np.float32 once passed
        # every check and then made json refuse the header, and an int 2 is
        # saved as 2.0
        for given in (np.float32(0.5), 2):
            config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=32,
                                    estimation=EstimationSpec(regime="probabilistic",
                                                              bandwidth=given))
            original, loaded = round_trip(tmp_path, config, gaussian_matrix(32, 60))
            bandwidth = loaded.config.estimation.bandwidth
            assert type(bandwidth) is float and bandwidth == float(given)
            X = gaussian_matrix(33, 10)
            assert (compute_p_values(loaded, X).values.tobytes()
                    == compute_p_values(original, X).values.tobytes())

    def test_save_is_deterministic(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=15)
        fitted = fit(config, gaussian_matrix(12, 70))
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        snapshot_save(fitted, a)
        snapshot_save(fitted, b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=30, deadline=None)
@given(n_features=st.integers(1, 140), varied=st.integers(0, 139), n_rows=st.integers(8, 700),
       subsample_size=st.integers(2, 600), max_depth=st.sampled_from([1, 2, None]),
       n_trees=st.integers(1, 4), bootstraps=st.sampled_from([0, 2, 3]),
       seed=st.integers(0, 2 ** 16))
# 140 features, splits only on those past 127
@example(n_features=140, varied=128, n_rows=200, subsample_size=64, max_depth=None,
         n_trees=2, bootstraps=0, seed=1)
# subsamples of 256 and 257 rows (a split of 0.2 of 700 rows trains on 560)
@example(n_features=2, varied=0, n_rows=700, subsample_size=256, max_depth=None, n_trees=2,
         bootstraps=0, seed=3)
@example(n_features=1, varied=0, n_rows=700, subsample_size=257, max_depth=1, n_trees=2,
         bootstraps=0, seed=2)
def test_forest_round_trip_narrowest(n_features, varied, n_rows, subsample_size, max_depth,
                                     n_trees, bootstraps, seed):
    # whatever the width of the rows and the size of the forest, the file
    # holds no tree, only the forest's 32-byte digest, and the load grows
    # the fit's forest again; columns before ``varied`` are constant, so
    # every split is on a later one
    rows = np.random.default_rng(seed).normal(size=(n_rows, n_features))
    rows[:, :min(varied, n_features - 1)] = 0.0
    scorer = ScorerSpec(kind="isolation_forest", n_trees=n_trees,
                        subsample_size=subsample_size, max_depth=max_depth)
    strategy = jackknife_bootstrap(bootstraps) if bootstraps else split(0.2)
    fitted = fit(PipelineConfig(scorer=scorer, strategy=strategy, seed=seed), DataMatrix(rows))
    plan = fitted.calibration.scorer
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "forest.snap"
        snapshot_save(fitted, path)
        loaded = snapshot_load(path).calibration.scorer
        header, _ = read_snapshot(path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["snapshot", "--inspect", str(path)]) == 0
    probe = np.random.default_rng(seed + 1).normal(size=(20, n_features))
    assert loaded.score_raw(probe).tobytes() == plan.score_raw(probe).tobytes()
    for name in ("feature", "leaf_size", "depth"):
        assert getattr(loaded, name).tobytes() == getattr(plan, name).tobytes()
    assert loaded.threshold.view(np.uint64).tobytes() == plan.threshold.view(np.uint64).tobytes()
    dtypes = {entry["name"]: np.dtype(entry["dtype"]) for entry in header["arrays"]}
    assert dtypes["trees/digest"] == np.uint8
    array_bytes = json.loads(out.getvalue())["array_bytes"]
    assert [name for name in array_bytes if name.startswith("trees/")] == ["trees/digest"]
    assert array_bytes["trees/digest"] == 32


TINY = np.finfo(np.float64).smallest_subnormal


@st.composite
def awkward_rows(draw):
    """Rows whose values tie, change sign at zero, neighbour each other or
    are subnormal, some rows repeated and some columns constant: the bounds
    of a split may then be -0.0 against 0.0, or one ulp apart.  Some draws
    have enough rows for a psi above 256 under every strategy below."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = float(np.round(rng.normal(), 1))
    palette = np.array([-0.0, 0.0, x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                        -x, TINY, -TINY, 3 * TINY, 1.0, -1.0, 1e300, -1e300])
    palette = palette[:draw(st.integers(2, palette.size))]
    d, n = draw(st.integers(1, 5)), draw(st.integers(10, 60) | st.integers(400, 440))
    rows = palette[rng.integers(palette.size, size=(n, d))]
    rows[rng.integers(n, size=n // 3)] = rows[0]  # repeated rows
    rows[:, :draw(st.integers(0, d - 1))] = rows[0, 0]  # constant columns
    return rows


@settings(max_examples=50, deadline=None)
@given(rows=awkward_rows(), max_depth=st.sampled_from([None, 1, 2, 3, 40]),
       n_trees=st.integers(1, 6),
       subsample_size=st.integers(2, 64) | st.sampled_from([256, 257, 300]),
       strategy=st.sampled_from([split(0.3), cross_validation(3), jackknife_bootstrap(3),
                                 cross_validation(3, "single_model"), jackknife("single_model"),
                                 jackknife_bootstrap(3, "single_model")]),
       seed=st.integers(0, 2 ** 32))
@example(rows=np.array([[-0.0], [0.0], [TINY], [-TINY]] * 100), max_depth=None, n_trees=3,
         subsample_size=300, strategy=jackknife_bootstrap(3), seed=1)
def test_split_rows_rebuild_thresholds(rows, max_depth, n_trees, subsample_size, strategy, seed):
    # the file holds no tree, only its digest: a load fits the forest again
    # from the stored rows, the rebuilt plan and the seed, so that each
    # node's rows give its feature, range and threshold as in the fit.
    # Features, thresholds, leaf sizes and depths come out as the fit's bit
    # for bit, and so do the entry scores they give and the smoothed stream
    # p-values, for one-model, single_model and plus-mode forests, bootstrap
    # subsamples that repeat rows, ties, -0.0 against 0.0, constant columns
    # and psi below, at and above 256
    scorer = ScorerSpec(kind="isolation_forest", n_trees=n_trees, subsample_size=subsample_size,
                        max_depth=max_depth)
    config = PipelineConfig(scorer=scorer, strategy=strategy, seed=seed,
                            estimation=EstimationSpec(smoothed=True))
    fitted = fit(config, DataMatrix(rows))
    plan = fitted.calibration.scorer
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "forest.snap"
        snapshot_save(fitted, path)
        loaded_pipeline = snapshot_load(path)
        _, arrays = read_snapshot(path)
    assert [name for name in arrays if name.startswith("trees/")] == ["trees/digest"]
    assert arrays["trees/digest"].tobytes() == forest_digest(plan.feature, plan.threshold,
                                                             plan.leaf_size)
    loaded = loaded_pipeline.calibration.scorer
    for name in ("feature", "leaf_size", "depth", "offsets", "psi"):
        assert getattr(loaded, name).tobytes() == getattr(plan, name).tobytes()
    assert loaded.threshold.view(np.uint64).tobytes() == plan.threshold.view(np.uint64).tobytes()
    # scored again at load, or stored for single_model
    assert (loaded_pipeline.calibration.entry_scores.tobytes()
            == fitted.calibration.entry_scores.tobytes())
    probe = np.vstack([rows[:20], -rows[:20], np.zeros((1, rows.shape[1]))])
    assert loaded.score_raw(probe).tobytes() == plan.score_raw(probe).tobytes()
    assert (stream_p_values(loaded_pipeline, DataMatrix(probe)).values.tobytes()
            == stream_p_values(fitted, DataMatrix(probe)).values.tobytes())
    # each tree's leaves hold its psi subsample rows
    leaves = np.repeat(np.arange(plan.offsets.size - 1), np.diff(plan.offsets))[plan.feature < 0]
    np.testing.assert_array_equal(np.bincount(leaves, weights=plan.leaf_size),
                                  np.repeat(plan.psi, n_trees))


class TestRefusals:
    def test_external_scorer_refused(self, tmp_path):
        fitted = fit_detached(lambda X: X[:, 0], gaussian_matrix(13, 40),
                              polarity="higher_is_anomalous", seed=0)
        with pytest.raises(SnapshotError, match="opaque callable"):
            snapshot_save(fitted, tmp_path / "x.snap")

    def test_oracle_weighting_refused(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=16,
                                weighting="oracle",
                                ratio_function=lambda X: np.ones(len(X)))
        fitted = fit(config, gaussian_matrix(14, 60))
        with pytest.raises(SnapshotError, match="oracle"):
            snapshot_save(fitted, tmp_path / "x.snap")

    def test_only_fitted_pipelines(self, tmp_path):
        with pytest.raises(SnapshotError):
            snapshot_save({"config": None}, tmp_path / "x.snap")


class TestDamage:
    @pytest.fixture
    def saved(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=17)
        snapshot_save(fit(config, gaussian_matrix(15, 60)),
                      tmp_path / "good.snap")
        return tmp_path / "good.snap"

    def test_truncation_detected(self, saved, tmp_path):
        blob = saved.read_bytes()
        bad = tmp_path / "cut.snap"
        bad.write_bytes(blob[:-40])
        with pytest.raises(SnapshotError, match="integrity check failed"):
            snapshot_load(bad)

    def test_flipped_payload_byte_detected(self, saved, tmp_path):
        blob = bytearray(saved.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "flip.snap"
        bad.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="integrity check failed"):
            snapshot_load(bad)

    def test_future_version_refused_by_name(self, saved, tmp_path):
        blob = bytearray(saved.read_bytes())
        blob[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        bad = tmp_path / "future.snap"
        bad.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as exc:
            snapshot_load(bad)
        message = str(exc.value)
        assert str(FORMAT_VERSION + 1) in message
        assert f"version {FORMAT_VERSION}" in message

    def test_bad_magic(self, saved, tmp_path):
        blob = bytearray(saved.read_bytes())
        blob[:8] = b"NOTASNAP"
        bad = tmp_path / "magic.snap"
        bad.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="bad magic"):
            snapshot_load(bad)

    def test_tiny_file(self, tmp_path):
        bad = tmp_path / "tiny.snap"
        bad.write_bytes(MAGIC)
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_load(bad)


def read_snapshot(path):
    """Header and named arrays of a snapshot file."""
    blob = path.read_bytes()
    end = 20 + int.from_bytes(blob[12:20], "little")
    header = json.loads(blob[20:end])
    payload, offset, arrays = zlib.decompress(blob[end:-32]), 0, {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        nbytes = dtype.itemsize * int(np.prod(entry["shape"]))
        planes = np.frombuffer(payload[offset:offset + nbytes], np.uint8)
        arrays[entry["name"]] = planes.reshape(dtype.itemsize, -1).T.copy().view(dtype).reshape(
            entry["shape"])
        offset += nbytes
    return header, arrays


def raw_payload(arrays):
    """The arrays in order, as a file's payload inflates to: each array's
    bytes by byte plane, every element's byte 0, then every byte 1, ..."""
    raw = [(np.ascontiguousarray(a).tobytes(), a.itemsize) for a in arrays.values()]
    return b"".join(b[i::size] for b, size in raw for i in range(size))


def write_snapshot(path, header, arrays, stored=None, shapes={}, dtypes={},
                   version=FORMAT_VERSION):
    """Write crafted content with a recomputed, valid digest; the payload is
    the arrays deflated unless ``stored`` gives its bytes, the index takes
    an array's shape and dtype from ``shapes`` and ``dtypes`` where those
    name it, and the format version field holds ``version``."""
    header["arrays"] = [{"name": name, "dtype": dtypes.get(name, a.dtype.str),
                         "shape": list(shapes.get(name, a.shape))}
                        for name, a in arrays.items()]
    header_bytes = json.dumps(header).encode("utf-8")
    body = b"".join([MAGIC, version.to_bytes(4, "little"),
                     len(header_bytes).to_bytes(8, "little"), header_bytes,
                     zlib.compress(raw_payload(arrays)) if stored is None else stored])
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def crafted(strategy=None, rows=None, **scorer):
    """A header edit of the split forest file: scorer settings ``scorer``,
    its rows replaced by ``rows``, and with ``strategy`` that strategy
    under the digest of its plan over them."""
    def edit(header, arrays):
        header["config"]["scorer"].update(scorer)
        if strategy is None:
            return arrays if rows is None else {**arrays, "calibration/rows": rows}
        header["config"]["strategy"] = dataclasses.asdict(strategy)
        plan = kept_plan(strategy, rows.shape[0], header["config"]["seed"])
        return {**arrays, "calibration/rows": rows,
                "calibration/plan_digest": np.frombuffer(snapshot._plan_digest(plan), np.uint8)}
    return edit


# the split forest file of TestUntrustedContent: 12 trees of psi = 30 over
# 3 features under a cap of 5, 30 entries
SPLIT_FOREST = (PipelineConfig(scorer=FOREST, strategy=split(0.5), seed=18),
                gaussian_matrix(16, 60, d=3))
# each row: a header edit or a bound patched to a fitted forest's cost, the
# refusal phrase (with the cost where a bound is patched) and a time limit
FOREST_COSTS = {
    # a tree may be a single node: 10^9 trees of psi = 30 in 85,837 chunks of
    # 11,650 (2^20 // (30 x 3)), each a 30-step shuffle
    "1000000000": (crafted(n_trees=10 ** 9), None,
                   f"costs {3 * 10 ** 10 + 24 * 30 * 85_837} subsample rows drawn", 1.0),
    "559241": (crafted(n_trees=2 ** 24 // 30 + 1), None,
               f"costs {30 * (2 ** 24 // 30 + 1) + 24 * 30 * 49} subsample rows drawn", 1.0),
    # 65,536 trees over 4,096 mostly constant columns: a file of a few kB
    # whose growth would read 4 x 10^10 cells
    "wide": (crafted(rows=np.zeros((60, 4096)), n_trees=2 ** 16), None,
             f"costs {2 ** 16 * 30 * 5 * (4096 + 8)} row x feature cells grown through", 1.0),
    # 325,376 trees pass both growth bounds (9,761,280 rows, 536,870,400
    # cells), but a scored row would walk 1,626,880 nodes
    "walk": (crafted(n_trees=325_376), None, "costs 1626880 node steps per scored row", 1.0),
    # 256 trees of psi = 65,536 over 65,536 rows of one feature under a cap
    # of 3 draw 2^24 rows, at the bound, in 16 chunks of 65,536 swap steps
    "draw": (crafted(split(1), np.zeros((2 ** 16 + 1, 1)), n_trees=256,
                     subsample_size=2 ** 16, max_depth=3), None,
             f"costs {2 ** 24 + 24 * 2 ** 20} subsample rows drawn ({2 ** 24} rows in {2 ** 20} "
             f"shuffle steps", 1.0),
    # 26,000 trees of psi = 32 pass every growth bound and walk 130,000 nodes
    # per row, but would score 4,096 split entries in 532,480,000 node steps
    "entries": (crafted(split(4096), gaussian_matrix(42, 4200, d=1).values, n_trees=26_000),
                None, "costs 532480000 node steps to score the entries again", 1.0),
    # 12 x 30 rows down 5 levels, each reading 3 features and a move worth 8
    "cells-at-bound": (None, ("MAX_FOREST_CELLS", *SPLIT_FOREST, 12 * 30 * 5 * 11),
                       "over 3 features costs {} row x feature cells grown through", 1.0),
    "walk-at-bound": (None, ("MAX_FOREST_WALK", *SPLIT_FOREST, 12 * 5),
                      "costs {} node steps per scored row", 1.0),
    # CV+ over 41 rows trains models of 32 and 33 rows, under caps of 5 and
    # 6; a scoring walks every cell down to the deepest level: 12 x 5 x 6
    "cv-walk-at-deepest-cap": (None, ("MAX_FOREST_WALK", PipelineConfig(
        scorer=dataclasses.replace(FOREST, subsample_size=64), strategy=cross_validation(5),
        seed=18), gaussian_matrix(16, 41, d=3), 12 * 5 * 6),
        "costs {} node steps per scored row", 1.0),
    "entries-at-bound": (None, ("MAX_FOREST_SCORE", *SPLIT_FOREST, 12 * 30 * 5),
                         "costs {} node steps to score the entries again", 1.0),
    # a JaB+ entry is scored by its out-of-bag models alone
    "jab-entries-at-bound": (None, ("MAX_FOREST_SCORE", PipelineConfig(
        scorer=FOREST, strategy=jackknife_bootstrap(3), seed=18), SPLIT_FOREST[1],
        lambda calibration: 12 * 5 * int(calibration.oob.sum())),
        "costs {} node steps to score the entries again", 1.0),
    # a single_model file stores its entry scores: its load scores none
    "jab-single-entries-uncharged": (None, ("MAX_FOREST_SCORE", PipelineConfig(
        scorer=FOREST, strategy=jackknife_bootstrap(3, "single_model"), seed=18),
        SPLIT_FOREST[1], 0), "costs {} node steps to score the entries again", 1.0),
}


class TestUntrustedContent:
    """The digest proves nothing about intent: crafted files with a valid
    digest are refused before anything is built from them."""

    @pytest.fixture
    def forest(self, tmp_path):
        config = PipelineConfig(scorer=FOREST, strategy=split(0.5), seed=18)
        snapshot_save(fit(config, gaussian_matrix(16, 60, d=3)), tmp_path / "forest.snap")
        return read_snapshot(tmp_path / "forest.snap")

    @pytest.fixture
    def conditional(self, tmp_path):
        config = PipelineConfig(
            scorer=KNN, strategy=split(0.5), seed=29,
            estimation=EstimationSpec(regime="conditional_empirical", method="simes", delta=0.1))
        snapshot_save(fit(config, gaussian_matrix(29, 60, d=2)), tmp_path / "cond.snap")
        return read_snapshot(tmp_path / "cond.snap")

    @pytest.fixture
    def jab(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=jackknife_bootstrap(7), seed=19)
        snapshot_save(fit(config, gaussian_matrix(17, 50, d=2)), tmp_path / "jab.snap")
        return read_snapshot(tmp_path / "jab.snap")

    @pytest.mark.parametrize("version", range(1, 15))
    def test_old_version_refused_by_name(self, tmp_path, forest, version):
        # a current file that loads, with only its version field changed and
        # its digest recomputed: the version alone refuses it, by name
        snapshot_load(write_snapshot(tmp_path / "current.snap", *forest))
        path = write_snapshot(tmp_path / "old.snap", *forest, version=version)
        with pytest.raises(SnapshotError, match=f"format version {version} is not supported "
                                                r"\(this build reads version 15\)"):
            snapshot_load(path)

    def test_payload_is_one_default_level_zlib_stream(self, tmp_path, forest):
        blob = (tmp_path / "forest.snap").read_bytes()
        end = 20 + int.from_bytes(blob[12:20], "little")
        assert blob[end:-32] == zlib.compress(raw_payload(forest[1]))

    @pytest.mark.parametrize("case", [
        "one-byte-short", "one-byte-long", "trailing-byte", "trailing-stream", "no-checksum",
        "half-stream", "not-zlib", "raw-payload", "bad-checksum"])
    def test_payload_stream_checked(self, tmp_path, forest, case):
        header, arrays = forest
        raw = raw_payload(arrays)
        deflated = zlib.compress(raw)
        stored, message = {
            "one-byte-short": (zlib.compress(raw[:-1]), f"inflates to {len(raw) - 1} bytes, "
                                                        f"not the {len(raw)} of its index"),
            "one-byte-long": (zlib.compress(raw + b"\0"),
                              f"inflates past the {len(raw)} bytes of its index"),
            "trailing-byte": (deflated + b"\0", "bytes follow the snapshot payload's zlib stream"),
            "trailing-stream": (deflated + zlib.compress(b""),
                                "bytes follow the snapshot payload's zlib stream"),
            "no-checksum": (deflated[:-4], "zlib stream is unfinished"),
            "half-stream": (deflated[:len(deflated) // 2], "zlib stream is unfinished"),
            "not-zlib": (b"\xff" * 64, "payload is not a valid zlib stream"),
            "raw-payload": (raw, "payload is not a valid zlib stream"),
            "bad-checksum": (deflated[:-1] + bytes([deflated[-1] ^ 1]),
                             "payload is not a valid zlib stream"),
        }[case]
        path = write_snapshot(tmp_path / "stream.snap", header, arrays, stored)
        with pytest.raises(SnapshotError, match=message):
            snapshot_load(path)

    def test_index_above_inflation_limit_refused_before_inflating(self, tmp_path, forest):
        # 16 MiB of zeros deflate about 1028:1.  An index of the file's layout
        # whose rows of one feature ask for 1 to 8 bytes more than deflate's
        # 1032:1 can give for them is refused without inflating, and so is an
        # index one byte above it that lists the rows alone, as bytes
        header, arrays = forest
        stored = zlib.compress(bytes(1 << 24))
        n_rows = (1032 * len(stored) - 2 * 32) // 8 + 1
        size = 2 * 32 + 8 * n_rows
        cases = {
            f"asks for {size} payload bytes, more than {len(stored)} deflated bytes":
                write_snapshot(tmp_path / "bomb.snap", header, arrays, stored,
                               shapes={"calibration/rows": [n_rows, 1]}),
            r"the index lists arrays \['calibration/rows'\], not each of":
                write_snapshot(tmp_path / "rows.snap", header,
                               {"calibration/rows": np.zeros(0, np.uint8)}, stored,
                               shapes={"calibration/rows": [1032 * len(stored) + 1]})}
        for message, path in cases.items():
            tracemalloc.start()
            began = time.perf_counter()
            try:
                with mock.patch.object(snapshot, "_inflate", side_effect=AssertionError), \
                        pytest.raises(SnapshotError, match=message):
                    snapshot_load(path)
                elapsed, peak = time.perf_counter() - began, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0
            assert peak < 1 << 21

    @pytest.mark.parametrize("n_features, shape", [(2, [50, 2.9]), (2, ["50", 2]),
                                                   (1, [50, True])],
                             ids=["float", "string", "bool"])
    def test_shape_entries_are_integers(self, tmp_path, n_features, shape):
        # a float, a string or a boolean read as an integer would give one
        # array several indexes: each of these shapes loaded as (50, d)
        config = PipelineConfig(scorer=KNN, strategy=jackknife_bootstrap(7), seed=19)
        snapshot_save(fit(config, gaussian_matrix(17, 50, d=n_features)), tmp_path / "jab.snap")
        header, arrays = read_snapshot(tmp_path / "jab.snap")
        path = write_snapshot(tmp_path / "shape.snap", header, arrays,
                              shapes={"calibration/rows": shape})
        with pytest.raises(SnapshotError, match="'calibration/rows' is malformed"):
            snapshot_load(path)

    @pytest.mark.parametrize("spelling", ["float64", "f8", "d", "=f8"])
    def test_dtype_spelled_once(self, tmp_path, jab, spelling):
        # each of these names <f8 and loaded; only numpy's own spelling does
        header, arrays = jab
        path = write_snapshot(tmp_path / "spelling.snap", header, arrays,
                              dtypes={"calibration/rows": spelling})
        with pytest.raises(SnapshotError, match="'calibration/rows' is malformed"):
            snapshot_load(path)

    def test_element_count_past_int64_refused(self, tmp_path, forest):
        # 2^32 x 2^32 elements wrap to 0 in int64; the rows' cell count, a
        # Python integer, refuses them before any size is summed, so no index
        # that passes the layout, row and plan bounds nears an int64 size
        header, arrays = forest
        path = write_snapshot(tmp_path / "wrap.snap", header, arrays,
                              shapes={"calibration/rows": [2 ** 32, 2 ** 32]})
        with pytest.raises(SnapshotError, match=r"calibration rows of shape \(4294967296, "
                                                r"4294967296\) hold more than"):
            snapshot_load(path)

    def test_header_gives_each_setting_once(self, jab, conditional, forest):
        # no calibration or table section and no JSON copy of the format
        # version: the configuration says it all.  k-NN files store their
        # entry scores; a split forest's load scores its entries again
        for (header, arrays), stored in ((jab, True), (conditional, True), (forest, False)):
            assert sorted(header) == ["arrays", "config", "package_version"]
            assert sorted(name for name in arrays if name.startswith("calibration/")) == [
                *["calibration/entry_scores"] * stored, "calibration/plan_digest",
                "calibration/rows"]
            assert sorted(header["config"]) == ["estimation", "scorer", "seed", "strategy",
                                                "weighting"]

    def test_forest_stored_by_shape(self, tmp_path, forest):
        # no tree at all: no features, child pointers, offsets, thresholds,
        # leaf sizes or split rows, only the digest of the fitted forest
        header, arrays = forest
        assert [name for name in arrays if name.startswith("trees/")] == ["trees/digest"]
        assert arrays["trees/digest"].dtype.str == "|u1"
        plan = snapshot_load(tmp_path / "forest.snap").calibration.scorer
        assert arrays["trees/digest"].tobytes() == forest_digest(plan.feature, plan.threshold,
                                                                 plan.leaf_size)

    def test_stray_leaf_sizes_refused(self, tmp_path, forest):
        # a load grows every tree again, so a file that stores tree
        # features, leaf sizes or format 11's split rows is not one this
        # format writes; format-12 and format-11 files are refused by their
        # version
        header, arrays = forest
        strays = {"trees/feature": np.zeros(25, np.int8), "trees/leaf_size": np.ones(3, np.uint8),
                  "trees/split_rows": np.zeros((12, 2), np.uint8)}
        for name, stray in strays.items():
            crafted = {**arrays, name: stray}
            with pytest.raises(SnapshotError, match=rf"\['{name}'\] do not belong"):
                snapshot_load(write_snapshot(tmp_path / "stray.snap", header, crafted))
        for version, name in ((11, "trees/split_rows"), (12, "trees/feature")):
            old = {**arrays, name: strays[name]}
            with pytest.raises(SnapshotError, match=f"format version {version} is not supported"):
                snapshot_load(write_snapshot(tmp_path / "old.snap", header, old, version=version))

    def test_flipped_forest_digest_byte_refused(self, tmp_path, forest):
        # the trees grow again as fitted, but no longer have the stored digest
        header, arrays = forest
        for at in (0, 31):
            flipped = arrays["trees/digest"].copy()
            flipped[at] ^= 0x01
            with pytest.raises(SnapshotError, match=FOREST_MISMATCH):
                snapshot_load(write_snapshot(tmp_path / "digest.snap", header,
                                             {**arrays, "trees/digest": flipped}))

    def test_node_count_checked(self, tmp_path, forest):
        # a header that asks for one tree fewer or more, shallower trees or
        # other subsamples grows another forest from the same rows, plan and
        # seed, whose digest is not the stored one
        header, arrays = forest
        for field, value in (("n_trees", 11), ("n_trees", 13), ("max_depth", 3),
                             ("subsample_size", 29)):
            edited = json.loads(json.dumps(header))
            edited["config"]["scorer"][field] = value
            with pytest.raises(SnapshotError, match=FOREST_MISMATCH):
                snapshot_load(write_snapshot(tmp_path / "count.snap", edited, arrays))

    @pytest.mark.parametrize("name", ["trees/digest"])
    def test_per_kind_lengths_checked(self, tmp_path, forest, name):
        # a digest one byte short or one byte long
        header, arrays = forest
        for bad in (arrays[name][:-1], np.concatenate([arrays[name], arrays[name][:1]])):
            with pytest.raises(SnapshotError, match=f"{name} holds {bad.size} bytes, not a "
                                                    "32-byte digest"):
                snapshot_load(write_snapshot(tmp_path / "lengths.snap", header,
                                             {**arrays, name: bad}))

    @pytest.mark.parametrize("bounds", ["equal"])
    def test_split_bounds_checked(self, tmp_path, forest, bounds):
        # a split's range runs from the least to the greatest of its rows on
        # its feature: with column 2 of the rows made constant, no node can
        # split on it.  The plan digest does not cover the rows, and column 0
        # alone orders them by content, so the subsamples stay; the forest
        # the load grows has other splits, and not the stored digest
        header, arrays = forest
        plan = snapshot_load(tmp_path / "forest.snap").calibration.scorer
        assert (plan.feature == 2).any()
        rows = arrays["calibration/rows"].copy()
        rows[:, 2] = {"equal": 0.5}[bounds]
        with pytest.raises(SnapshotError, match=FOREST_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "bounds.snap", header,
                                         {**arrays, "calibration/rows": rows}))

    @pytest.mark.parametrize("name, dtype", [
        ("trees/feature", "<i2"), ("trees/feature", "<i4"), ("trees/feature", "<f8"),
        ("trees/feature", "|u1"), ("trees/feature", "<u2"), ("trees/feature", ">i2"),
        ("trees/digest", "|i1"), ("trees/digest", "<u2"), ("trees/digest", "<f8"),
        ("trees/split_rows", "<u2"), ("trees/split_rows", "<u4"),
        ("trees/split_rows", "|i1"), ("trees/split_rows", "<i8"),
        ("trees/split_rows", "<f8")])
    def test_tree_dtypes_checked(self, tmp_path, forest, name, dtype):
        # the digest comes as bytes: a signed, wider or float digest is
        # refused though its values are the saved ones.  Tree features,
        # which format 12 stored, and split rows, which format 11 stored,
        # are refused in any dtype: no array of those names belongs to a
        # format-13 file
        header, arrays = forest
        if name in arrays:
            bad, message = arrays[name].astype(dtype), "is malformed"
        else:
            bad, message = np.zeros((12, 2), dtype), "do not belong"
        crafted = {**arrays, name: bad}
        with pytest.raises(SnapshotError, match=f"'{name}'.? {message}"):
            snapshot_load(write_snapshot(tmp_path / "dtype.snap", header, crafted))

    def test_plan_arrays_cross_checked(self, tmp_path, jab):
        header, arrays = jab
        scores, digest = arrays["calibration/entry_scores"], arrays["calibration/plan_digest"]
        flipped = digest.copy()
        flipped[5] ^= 0x01
        cases = [
            ("non-finite", "calibration/entry_scores", np.full_like(scores, np.nan)),
            # every row is an entry here: one score more is one more than the rows
            ("51 calibration/entry_scores values over 50 rows", "calibration/entry_scores",
             np.concatenate([scores, scores[:1]])),
            ("disagree in shape", "calibration/entry_scores", scores[:-1]),
            (PLAN_MISMATCH, "calibration/plan_digest", flipped),
            ("holds 31 bytes, not a 32-byte digest", "calibration/plan_digest", digest[:-1]),
            ("holds 33 bytes, not a 32-byte digest", "calibration/plan_digest",
             np.concatenate([digest, digest[:1]])),
            ("'calibration/plan_digest' is malformed", "calibration/plan_digest",
             digest.view("<u2")),
            ("'calibration/plan_digest' is malformed", "calibration/plan_digest",
             digest.astype("<i8")),
        ]
        for message, name, value in cases:
            with pytest.raises(SnapshotError, match=message):
                snapshot_load(write_snapshot(tmp_path / "plan.snap", header,
                                             {**arrays, name: value}))

    @pytest.mark.parametrize("which", ["jab", "forest"])
    def test_model_sizes_checked(self, tmp_path, request, which):
        # the plan digest does not cover the scorer: k = 60 over bootstraps
        # of 50 rows, or a split (with its digest) that trains a forest on
        # one of 60 rows, is refused before any model is built
        header, arrays = request.getfixturevalue(which)
        if which == "jab":
            header["config"]["scorer"]["k"] = 60
        else:
            strategy = split(59)
            header["config"]["strategy"] = dataclasses.asdict(strategy)
            plan = kept_plan(strategy, 60, header["config"]["seed"])
            arrays = {**arrays, "calibration/plan_digest":
                      np.frombuffer(snapshot._plan_digest(plan), np.uint8)}
        message = {"jab": "k=60 needs more than 50 training rows",
                   "forest": "training requires at least 2 rows"}[which]
        with pytest.raises(SnapshotError, match=message):
            snapshot_load(write_snapshot(tmp_path / "small.snap", header, arrays))

    @pytest.mark.parametrize("strategy, n_rows", [
        (jackknife_bootstrap(10 ** 12), 50), (cross_validation(9_999), 10_000),
        (jackknife(), 10_000), (jackknife_bootstrap(2 ** 14 + 1), 50)],
        ids=["jab-1e12", "cv-near-rows", "jackknife-large", "jab-many-models"])
    def test_plan_above_bound_refused_quickly(self, tmp_path, jab, strategy, n_rows):
        # the header alone would make the loader draw a plan of 10^13 model x
        # row cells, 10^8 over a larger file's rows, or 2^14 + 1 bootstraps
        header, arrays = jab
        header["config"]["strategy"] = dataclasses.asdict(strategy)
        rows = gaussian_matrix(30, n_rows, d=1).values
        path = write_snapshot(tmp_path / "huge.snap", header,
                              {**arrays, "calibration/rows": rows})
        began = time.perf_counter()
        with pytest.raises(SnapshotError, match="larger than a snapshot rebuilds"):
            snapshot_load(path)
        assert time.perf_counter() - began < 1.0

    def test_plan_above_bound_not_saved(self, tmp_path, monkeypatch):
        # a file that no load could rebuild is refused when it is written
        config = PipelineConfig(scorer=KNN, strategy=jackknife_bootstrap(7), seed=19)
        fitted = fit(config, gaussian_matrix(17, 50, d=2))
        monkeypatch.setattr(snapshot, "MAX_PLAN_MODELS", 6)
        with pytest.raises(SnapshotError, match="a plan of 7 models over 50 rows"):
            snapshot_save(fitted, tmp_path / "big.snap")
        assert not (tmp_path / "big.snap").exists()

    def test_rows_above_bound_refused_before_inflating(self, tmp_path, forest):
        # 2^26 constant rows of one feature deflate to about half a megabyte,
        # within deflate's 1032:1: the index alone refuses them, before
        # anything inflates
        header, arrays = forest
        path = write_snapshot(tmp_path / "rows.snap", header, arrays,
                              np.random.default_rng(0).bytes(1 << 20),
                              shapes={"calibration/rows": [1 << 26, 1]})
        began = time.perf_counter()
        with mock.patch.object(snapshot, "_inflate", side_effect=AssertionError), \
                pytest.raises(SnapshotError, match=r"calibration rows of shape \(67108864, 1\) "
                                                   r"hold more than the 4194304 row x feature"):
            snapshot_load(path)
        assert time.perf_counter() - began < 0.1

    @pytest.mark.parametrize("which, name, rows, message", [
        ("forest", "junk", None, r"arrays \['junk'\] do not belong"),
        ("forest", "calibration/entry_scores", None,
         r"arrays \['calibration/entry_scores'\] do not belong"),
        ("jab", "calibration/entry_scores", None,
         "67108864 calibration/entry_scores values over 50 rows"),
        ("conditional", "table/adjusted", None, "67108864 table/adjusted values over 60 rows"),
        ("jab", "calibration/entry_scores", [1 << 26, 0],
         r"calibration rows of shape \(67108864, 0\) have no feature")],
        ids=["unknown-name", "forest-entry-scores", "knn-entry-scores", "table",
             "featureless-rows"])
    def test_layout_checked_before_inflating(self, tmp_path, request, which, name, rows,
                                             message):
        # half a megabyte of stored bytes may claim 2^29 raw ones within
        # deflate's 1032:1: one array of 2^26 doubles that the configuration
        # does not hold, or more entry scores or table values than its rows
        # allow, is refused from the index alone, before anything inflates.
        # Rows of no feature hold no cell, so they are refused before their
        # count can allow 2^26 entry scores
        header, arrays = request.getfixturevalue(which)
        shapes = {name: [1 << 26], **({} if rows is None else {"calibration/rows": rows})}
        path = write_snapshot(tmp_path / "large.snap", header,
                              {**arrays, **{name: np.zeros(0) for name in shapes}},
                              np.random.default_rng(0).bytes(1 << 19), shapes=shapes)
        assert path.stat().st_size < 540_000
        began = time.perf_counter()
        with mock.patch.object(snapshot, "_inflate", side_effect=AssertionError), \
                pytest.raises(SnapshotError, match=message):
            snapshot_load(path)
        assert time.perf_counter() - began < 0.1

    @pytest.mark.parametrize("which", ["forest", "jab", "conditional"])
    def test_index_in_any_order_loads(self, tmp_path, request, which):
        # the index lays the payload out, so its arrays may come in any order
        header, arrays = request.getfixturevalue(which)
        X = gaussian_matrix(22, 5, d=arrays["calibration/rows"].shape[1])
        shuffled = dict(reversed(arrays.items()))
        assert list(shuffled) != list(arrays)
        saved = snapshot_load(next(tmp_path.glob("*.snap")))
        loaded = snapshot_load(write_snapshot(tmp_path / "reversed.snap", header, shuffled))
        assert (compute_p_values(loaded, X).values.tobytes()
                == compute_p_values(saved, X).values.tobytes())

    def test_rows_bounded_at_save(self, tmp_path, monkeypatch):
        # the fixture's 60 rows of 3 features, 180 cells, save and load at a
        # bound of 180 and are refused at save and at load one below it
        fitted = fit(SPLIT_FOREST[0], SPLIT_FOREST[1])
        monkeypatch.setattr(snapshot, "MAX_ROW_CELLS", 180)
        snapshot_save(fitted, tmp_path / "at.snap")
        snapshot_load(tmp_path / "at.snap")
        monkeypatch.setattr(snapshot, "MAX_ROW_CELLS", 179)
        with pytest.raises(SnapshotError, match=r"shape \(60, 3\) hold more than the 179"):
            snapshot_save(fitted, tmp_path / "above.snap")
        assert not (tmp_path / "above.snap").exists()
        with pytest.raises(SnapshotError, match=r"shape \(60, 3\) hold more than the 179"):
            snapshot_load(tmp_path / "at.snap")

    def test_single_model_refit_bounded_alone(self, tmp_path, monkeypatch):
        # a CV or jackknife single_model load draws only its refit model, so
        # the bound applies to that one-model plan: with the cell bound
        # below a 5-fold plan of 60 rows (300 cells) but above one model's
        # 60, CV and jackknife single_model fits save, load and give the
        # same p-values; JaB single_model and JaB+, whose loads draw every
        # bootstrap, are still refused
        monkeypatch.setattr(snapshot, "MAX_PLAN_CELLS", 100)
        train, X = gaussian_matrix(40, 60, d=2), gaussian_matrix(41, 10, d=2)
        for strategy in (cross_validation(5, "single_model"), jackknife("single_model")):
            config = PipelineConfig(scorer=SMALL_FOREST, strategy=strategy, seed=40)
            fitted, loaded = round_trip(tmp_path, config, train)
            assert (compute_p_values(loaded, X).values.tobytes()
                    == compute_p_values(fitted, X).values.tobytes())
        for strategy in (jackknife_bootstrap(5, "single_model"), jackknife_bootstrap(5)):
            fitted = fit(PipelineConfig(scorer=SMALL_FOREST, strategy=strategy, seed=40), train)
            with pytest.raises(SnapshotError, match="a plan of 5 models over 60 rows"):
                snapshot_save(fitted, tmp_path / "jab.snap")

    @pytest.mark.parametrize("edit, bound, phrase, seconds", FOREST_COSTS.values(),
                             ids=FOREST_COSTS.keys())
    def test_forest_above_bound_refused_quickly(self, tmp_path, forest, monkeypatch, edit, bound,
                                                phrase, seconds):
        # a crafted header is refused before a subsample is drawn; a fitted
        # forest saves and loads at a bound equal to its cost, and one below
        # refuses both, the save writing no file
        value = None
        if bound is None:
            header, arrays = forest
            path = write_snapshot(tmp_path / "crafted.snap", header, edit(header, arrays))
            drawn = mock.patch.object(detectors, "_grow_forests", side_effect=AssertionError)
        else:
            name, config, train, value = bound
            fitted = fit(config, train)
            value = value(fitted.calibration) if callable(value) else value
            monkeypatch.setattr(snapshot, name, value)
            path = tmp_path / "at_bound.snap"
            snapshot_save(fitted, path)
            snapshot_load(path)
            monkeypatch.setattr(snapshot, name, value - 1)
            with pytest.raises(SnapshotError, match=re.escape(phrase.format(value))):
                snapshot_save(fitted, tmp_path / "big.snap")
            assert not (tmp_path / "big.snap").exists()
            drawn = contextlib.nullcontext()
        began = time.perf_counter()
        with drawn, pytest.raises(SnapshotError, match=re.escape(phrase.format(value))):
            snapshot_load(path)
        assert time.perf_counter() - began < seconds

    def test_forest_above_bound_not_saved(self, tmp_path, monkeypatch):
        # a forest that no load would draw again is refused when it is written
        fitted = fit(*SPLIT_FOREST)
        monkeypatch.setattr(snapshot, "MAX_FOREST_ROWS", 12 * 30 - 1)
        with pytest.raises(SnapshotError, match="a forest of 12 trees per model over 3 "
                                                "features costs 1080 subsample rows drawn"):
            snapshot_save(fitted, tmp_path / "big.snap")
        assert not (tmp_path / "big.snap").exists()

    def test_shuffle_steps_charged_at_save(self, tmp_path, forest, monkeypatch):
        # 12 trees of psi = 30 draw 360 subsample rows in one chunk of 30
        # swap steps, charged as 360 + 24 x 30 rows: a bound of that many
        # loads and saves, one fewer refuses both
        path = write_snapshot(tmp_path / "forest.snap", *forest)
        fitted = fit(*SPLIT_FOREST)
        monkeypatch.setattr(snapshot, "MAX_FOREST_ROWS", 360 + 24 * 30)
        snapshot_load(path)
        snapshot_save(fitted, tmp_path / "at_bound.snap")
        monkeypatch.setattr(snapshot, "MAX_FOREST_ROWS", 360 + 24 * 30 - 1)
        message = re.escape("costs 1080 subsample rows drawn (360 rows in 30 shuffle steps, "
                            "a step charged as 24 rows)")
        with pytest.raises(SnapshotError, match=message):
            snapshot_load(path)
        with pytest.raises(SnapshotError, match=message):
            snapshot_save(fitted, tmp_path / "big.snap")
        assert not (tmp_path / "big.snap").exists()

    def test_stored_entry_scores_refused(self, tmp_path, forest):
        # a split forest's load scores its entries again, so entry scores in
        # its file, even the fitted ones, do not belong to it
        header, arrays = forest
        scores = snapshot_load(tmp_path / "forest.snap").calibration.entry_scores
        crafted = {"calibration/entry_scores": scores, **arrays}
        with pytest.raises(SnapshotError, match=r"\['calibration/entry_scores'\] do not belong"):
            snapshot_load(write_snapshot(tmp_path / "scores.snap", header, crafted))

    def test_edited_training_row_refused_before_scoring(self, tmp_path, forest):
        # the forest digest fixes the rows the forest trained on: one of them
        # edited grows another forest, refused before an entry is scored
        header, arrays = forest
        counts = kept_plan(split(0.5), 60, header["config"]["seed"]).train_counts[0]
        rows = arrays["calibration/rows"].copy()
        rows[np.flatnonzero(counts)[0], 0] += 1.0
        with mock.patch.object(detectors, "score_plan", side_effect=AssertionError), \
                pytest.raises(SnapshotError, match=FOREST_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "row.snap", header,
                                         {**arrays, "calibration/rows": rows}))

    @pytest.mark.parametrize("mutate", [
        lambda h: h["config"].pop("strategy"),
        lambda h: h["config"]["strategy"].update(mode="both"),
        lambda h: h["config"]["scorer"].update(k="three"),
        lambda h: h.update(table={"n": 1, "delta": 0.1, "method": "mc"}),
        lambda h: h["config"]["scorer"].update(kind="isolation_forest"),
        lambda h: h["config"]["scorer"].update(k=float("inf")),
        lambda h: h.update(calibration={"mode": "plus"}),
        # a cap past the ceiling of 64, which bounds the levels a scoring walks
        lambda h: h["config"]["scorer"].update(max_depth=10 ** 9),
    ])
    def test_malformed_header_refused(self, tmp_path, jab, mutate):
        header, arrays = jab
        mutate(header)
        with pytest.raises(SnapshotError):
            snapshot_load(write_snapshot(tmp_path / "header.snap", header, arrays))

    @pytest.mark.parametrize("which, estimation, name", [
        ("conditional", {"delta": "0.1"}, "delta"),
        ("jab", {"regime": "probabilistic", "smoothed": None, "bandwidth": float("inf")},
         "bandwidth"),
        ("jab", {"smoothed": "no"}, "smoothed"),
    ], ids=["string-delta", "infinite-bandwidth", "string-smoothed"])
    def test_header_settings_checked(self, tmp_path, request, which, estimation, name):
        # the digest only detects damage: with it recomputed, a delta of "0.1"
        # or a bandwidth of Infinity once loaded.  The jab file's empirical
        # regime sets smoothed, which the probabilistic regime would refuse
        header, arrays = request.getfixturevalue(which)
        header["config"]["estimation"].update(estimation)
        path = write_snapshot(tmp_path / "setting.snap", header, arrays)
        with pytest.raises(SnapshotError, match=name):
            snapshot_load(path)

    def test_jab_relabelled_split_refused(self, tmp_path, jab):
        # the calibration is built from the configured strategy: a JaB+ file
        # called split would give weighted p-values from a plus-mode one
        header, arrays = jab
        header["config"].update(strategy=dataclasses.asdict(split(0.5)), weighting="logistic")
        with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "relabelled.snap", header, arrays))

    @pytest.mark.parametrize("which", ["forest", "jab"])
    def test_swapped_mode_refused(self, tmp_path, request, which):
        # the stored calibration must have the mode the strategy implies: a
        # split file called JaB+ with one bootstrap, or a JaB+ file called a
        # single_model refit, is refused
        header, arrays = request.getfixturevalue(which)
        swapped = {"forest": jackknife_bootstrap(1),
                   "jab": jackknife_bootstrap(7, "single_model")}[which]
        header["config"]["strategy"] = dataclasses.asdict(swapped)
        with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "mode.snap", header, arrays))

    def test_fold_models_checked(self, tmp_path, jab):
        # JaB+ with 7 bootstraps called 7-fold CV+: no entry is paired with a
        # model trained on its row, but the models are bootstraps, not folds
        header, arrays = jab
        header["config"]["strategy"] = dataclasses.asdict(cross_validation(7))
        with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "folds.snap", header, arrays))

    def test_plus_model_count_checked(self, tmp_path, jab):
        # a plus-mode strategy fits one model per fold, row or bootstrap
        header, arrays = jab
        for strategy in (jackknife_bootstrap(8), cross_validation(6), jackknife()):
            header["config"]["strategy"] = dataclasses.asdict(strategy)
            with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
                snapshot_load(write_snapshot(tmp_path / "count.snap", header, arrays))

    def test_split_relabelled_single_model_refused(self, tmp_path, conditional):
        # a single_model refit trains once on every row; a split model does not
        header, arrays = conditional
        for strategy in (cross_validation(3, "single_model"), jackknife("single_model")):
            header["config"]["strategy"] = dataclasses.asdict(strategy)
            with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
                snapshot_load(write_snapshot(tmp_path / "refit.snap", header, arrays))

    def test_single_model_relabel_refused(self, tmp_path):
        # a JaB single_model file drops rows no CV plan drops; its plan,
        # though kept as one refit model, still names its entries' rows
        config = PipelineConfig(scorer=KNN, strategy=jackknife_bootstrap(3, "single_model"),
                                seed=31)
        fitted = fit(config, gaussian_matrix(31, 60, d=2))
        assert fitted.calibration.dropped_rows > 0
        snapshot_save(fitted, tmp_path / "jab1.snap")
        header, arrays = read_snapshot(tmp_path / "jab1.snap")
        header["config"]["strategy"] = dataclasses.asdict(cross_validation(3, "single_model"))
        with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "cv1.snap", header, arrays))

    @pytest.mark.parametrize("which", ["forest", "jab"])
    def test_edited_seed_refused(self, tmp_path, request, which):
        # another seed draws another plan: its models trained on other rows
        header, arrays = request.getfixturevalue(which)
        header["config"]["seed"] += 1
        with pytest.raises(SnapshotError, match=PLAN_MISMATCH):
            snapshot_load(write_snapshot(tmp_path / "seed.snap", header, arrays))

    def test_conditional_without_table_refused(self, tmp_path, conditional):
        # it used to load, and scoring then died on a missing table
        header, arrays = conditional
        arrays.pop("table/adjusted")
        with pytest.raises(SnapshotError, match=r"'table/adjusted'\] once"):
            snapshot_load(write_snapshot(tmp_path / "no_table.snap", header, arrays))

    def test_table_under_other_regime_refused(self, tmp_path, conditional):
        header, arrays = conditional
        for estimation in (EstimationSpec(), EstimationSpec(regime="probabilistic")):
            header["config"]["estimation"] = dataclasses.asdict(estimation)
            with pytest.raises(SnapshotError, match=r"\['table/adjusted'\] do not belong"):
                snapshot_load(write_snapshot(tmp_path / "stray.snap", header, arrays))

    def test_table_length_checked(self, tmp_path, conditional):
        header, arrays = conditional
        adjusted = arrays["table/adjusted"]
        assert adjusted.shape == (31,)
        for bad, ranks in ((adjusted[1:], 30), (np.concatenate([adjusted[:1], adjusted]), 32)):
            with pytest.raises(SnapshotError, match=r"adjusted must have length n \+ 1 = 31, "
                                                    rf"got shape \({ranks},\)"):
                snapshot_load(write_snapshot(tmp_path / "length.snap", header,
                                             {**arrays, "table/adjusted": bad}))

    @pytest.mark.parametrize("which", ["forest", "jab"])
    def test_fuzzed_arrays_never_hang_or_leak(self, tmp_path, request, which):
        header, arrays = request.getfixturevalue(which)
        rng = np.random.default_rng(20)
        X = gaussian_matrix(21, 5, d=arrays["calibration/rows"].shape[1])
        names = sorted(arrays)
        for trial in range(60):
            name = names[rng.integers(len(names))]
            bad = arrays[name].copy()
            if bad.size == 0:
                continue
            flat = bad.reshape(-1)
            # a value the array's type cannot hold wraps, as in a damaged payload
            value = rng.choice([0, 1, -1, 2, 63, 200, 65535])
            flat[rng.integers(flat.size)] = np.asarray(value).astype(flat.dtype)
            path = write_snapshot(tmp_path / "fuzz.snap", json.loads(json.dumps(header)),
                                  {**arrays, name: bad})
            try:
                loaded = snapshot_load(path)
            except SnapshotError:
                continue
            try:
                compute_p_values(loaded, X)
            except ConfanomError:
                pass
