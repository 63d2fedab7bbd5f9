import hashlib
import json

import numpy as np
import pytest

from confanom.core import ConfanomError, SnapshotError
from confanom.detectors import ScorerSpec
from confanom.estimation import EstimationSpec
from confanom.pipeline import (PipelineConfig, compute_p_values, fit,
                               fit_detached, score_samples, stream_p_values)
from confanom.resampling import cross_validation, jackknife_bootstrap, split
from confanom.snapshot import (FORMAT_VERSION, MAGIC, snapshot_load,
                               snapshot_save)

from conftest import gaussian_matrix

KNN = ScorerSpec(kind="knn_distance", k=4)
FOREST = ScorerSpec(kind="isolation_forest", n_trees=12, subsample_size=32)


def round_trip(tmp_path, config, train):
    fitted = fit(config, train)
    path = tmp_path / "pipeline.snap"
    snapshot_save(fitted, path)
    return fitted, snapshot_load(path)


class TestRoundTrip:
    def test_knn_split(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.4), seed=9)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(0, 100))
        assert loaded.config == original.config
        np.testing.assert_array_equal(loaded.calibration.entry_scores,
                                      original.calibration.entry_scores)
        X = gaussian_matrix(1, 25)
        np.testing.assert_array_equal(compute_p_values(loaded, X).values,
                                      compute_p_values(original, X).values)

    def test_forest_cv_plus(self, tmp_path):
        config = PipelineConfig(scorer=FOREST,
                                strategy=cross_validation(k=4, mode="plus"),
                                seed=10)
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(2, 80))
        X = gaussian_matrix(3, 20)
        np.testing.assert_array_equal(score_samples(loaded, X).scores,
                                      score_samples(original, X).scores)
        np.testing.assert_array_equal(compute_p_values(loaded, X).values,
                                      compute_p_values(original, X).values)
        assert loaded.calibration.entry_models == original.calibration.entry_models

    def test_conditional_table_preserved(self, tmp_path):
        config = PipelineConfig(
            scorer=KNN, strategy=split(0.5), seed=11,
            estimation=EstimationSpec(regime="conditional_empirical",
                                      method="mc", delta=0.1))
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(4, 120))
        assert loaded.table.method == "mc"
        assert loaded.table.delta == 0.1
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
        X = gaussian_matrix(9, 10)
        np.testing.assert_array_equal(compute_p_values(loaded, X).values,
                                      compute_p_values(original, X).values)

    def test_smoothed_streams_replay_identically(self, tmp_path):
        # smoothing always derives from the stored pipeline seed, so a
        # reloaded pipeline replays the exact same stream p-values
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=14,
                                estimation=EstimationSpec(smoothed=True))
        original, loaded = round_trip(tmp_path, config, gaussian_matrix(10, 90))
        stream = gaussian_matrix(11, 35)
        np.testing.assert_array_equal(stream_p_values(loaded, stream).values,
                                      stream_p_values(original, stream).values)

    def test_save_is_deterministic(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=split(0.5), seed=15)
        fitted = fit(config, gaussian_matrix(12, 70))
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        snapshot_save(fitted, a)
        snapshot_save(fitted, b)
        assert a.read_bytes() == b.read_bytes()


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
    arrays = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        nbytes = dtype.itemsize * int(np.prod(entry["shape"]))
        arrays[entry["name"]] = np.frombuffer(blob[end:end + nbytes], dtype).reshape(
            entry["shape"]).copy()
        end += nbytes
    return header, arrays


def write_snapshot(path, header, arrays):
    """Write crafted content with a recomputed, valid digest."""
    header["arrays"] = [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                        for name, a in arrays.items()]
    header_bytes = json.dumps(header).encode("utf-8")
    body = b"".join([MAGIC, FORMAT_VERSION.to_bytes(4, "little"),
                     len(header_bytes).to_bytes(8, "little"), header_bytes,
                     *(np.ascontiguousarray(a).tobytes() for a in arrays.values())])
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


class TestUntrustedContent:
    """The digest proves nothing about intent: crafted files with a valid
    digest are refused before anything is built from them."""

    @pytest.fixture
    def forest(self, tmp_path):
        config = PipelineConfig(scorer=FOREST, strategy=split(0.5), seed=18)
        snapshot_save(fit(config, gaussian_matrix(16, 60, d=3)), tmp_path / "forest.snap")
        return read_snapshot(tmp_path / "forest.snap")

    @pytest.fixture
    def jab(self, tmp_path):
        config = PipelineConfig(scorer=KNN, strategy=jackknife_bootstrap(7), seed=19)
        snapshot_save(fit(config, gaussian_matrix(17, 50, d=2)), tmp_path / "jab.snap")
        return read_snapshot(tmp_path / "jab.snap")

    def test_v1_refused_by_name(self, tmp_path, jab):
        blob = bytearray(write_snapshot(tmp_path / "v1.snap", *jab).read_bytes())
        blob[8:12] = (1).to_bytes(4, "little")
        (tmp_path / "v1.snap").write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="format version 1 is not supported "
                                                r"\(this build reads version 4\)"):
            snapshot_load(tmp_path / "v1.snap")

    def test_v2_refused_by_name(self, tmp_path, forest):
        # version 2 indexed five arrays per tree; its files are refused whole
        blob = bytearray(write_snapshot(tmp_path / "v2.snap", *forest).read_bytes())
        blob[8:12] = (2).to_bytes(4, "little")
        (tmp_path / "v2.snap").write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="format version 2 is not supported "
                                                r"\(this build reads version 4\)"):
            snapshot_load(tmp_path / "v2.snap")

    def test_v3_refused_by_name(self, tmp_path, forest):
        # version 3 stored a trees/right array, always left + 1
        header, arrays = forest
        left = arrays["trees/left"]
        v3 = {**arrays, "trees/right": np.where(left >= 0, left + 1, -1).astype("<i4")}
        blob = bytearray(write_snapshot(tmp_path / "v3.snap", header, v3).read_bytes())
        blob[8:12] = (3).to_bytes(4, "little")
        (tmp_path / "v3.snap").write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="format version 3 is not supported "
                                                r"\(this build reads version 4\)"):
            snapshot_load(tmp_path / "v3.snap")

    def test_child_pointing_at_root_refused(self, tmp_path, forest):
        # a walk would cycle through the root forever
        header, arrays = forest
        arrays["trees/left"][0] = 0
        with pytest.raises(SnapshotError, match="tree 0 of model 0 is not a valid isolation tree"):
            snapshot_load(write_snapshot(tmp_path / "cycle.snap", header, arrays))

    def test_children_inside_tree(self, tmp_path, forest):
        # the root's right child, left + 1, would be the next tree's root
        header, arrays = forest
        offsets = arrays["trees/offsets"]
        arrays["trees/left"][offsets[1]] = offsets[2] - offsets[1] - 1
        with pytest.raises(SnapshotError, match="tree 1 of model 0 is not a valid isolation tree"):
            snapshot_load(write_snapshot(tmp_path / "outside.snap", header, arrays))

    def test_shared_child_refused(self, tmp_path, forest):
        # two inner nodes with the same children make a graph, not a tree:
        # a node's depth would depend on the path taken to it
        header, arrays = forest
        start, end = arrays["trees/offsets"][1:3]
        left = arrays["trees/left"][start:end]
        inner = np.flatnonzero(arrays["trees/feature"][start:end] >= 0)
        # both children stay after their new parent and inside the tree
        i, j = next((i, j) for i in inner for j in inner if i < j < left[i])
        left[j] = left[i]
        with pytest.raises(SnapshotError, match="tree 1 of model 0 is not a valid isolation tree"):
            snapshot_load(write_snapshot(tmp_path / "shared.snap", header, arrays))

    @pytest.mark.parametrize("field, value", [
        ("left", 10_000), ("left", 2**31 - 1), ("feature", 3), ("size", -1), ("size", 61),
        ("threshold", np.nan)])
    def test_tree_arrays_checked(self, tmp_path, forest, field, value):
        header, arrays = forest
        arrays[f"trees/{field}"][arrays["trees/offsets"][1]] = value
        with pytest.raises(SnapshotError, match="tree 1 of model 0 is not a valid isolation tree"):
            snapshot_load(write_snapshot(tmp_path / "tree.snap", header, arrays))

    def test_tree_offsets_checked(self, tmp_path, forest):
        header, arrays = forest
        offsets = arrays["trees/offsets"]
        # int64 differences of these wrap round to positive tree sizes
        wrapped = offsets.copy()
        wrapped[1:4] = (2 ** 62, 2 ** 63 - 1, -2 ** 62)
        assert (np.diff(wrapped) >= 1).all()
        for bad in (offsets[:-1], offsets + 1, offsets - 1, np.sort(offsets)[::-1],
                    np.concatenate([offsets[:1], offsets[:-1]]),
                    np.where(np.arange(offsets.size) == 2, offsets[-1] + 5, offsets), wrapped):
            with pytest.raises(SnapshotError, match="tree offsets"):
                snapshot_load(write_snapshot(tmp_path / "offsets.snap", header,
                                             {**arrays, "trees/offsets": bad}))
        # a moved boundary keeps the offsets monotone: the trees it cuts are
        # checked like any other, so the file is refused or loads and scores
        X = gaussian_matrix(22, 5, d=3)
        for t in range(1, offsets.size - 1):
            for shift in (-1, 1):
                moved = offsets.copy()
                moved[t] += shift
                path = write_snapshot(tmp_path / "moved.snap", json.loads(json.dumps(header)),
                                      {**arrays, "trees/offsets": moved})
                try:
                    loaded = snapshot_load(path)
                except SnapshotError:
                    continue
                assert np.isfinite(compute_p_values(loaded, X).values).all()

    def test_plan_arrays_cross_checked(self, tmp_path, jab):
        header, arrays = jab
        rows = arrays["calibration/entry_rows"]
        counts = arrays["calibration/train_counts"]
        cases = {
            "entry row index out of range": ("calibration/entry_rows", rows + 50),
            "shapes disagree": ("calibration/train_counts", counts[:, :-1]),
            "trained on its row": ("calibration/oob_bits",
                                   np.full_like(arrays["calibration/oob_bits"], 0xFF)),
            "too few training rows": ("calibration/train_counts", counts * 0),
            "more rows than the data holds": ("calibration/train_counts", counts * 3),
            "non-finite": ("calibration/entry_scores",
                           np.full_like(arrays["calibration/entry_scores"], np.nan)),
            "missing or malformed": ("calibration/train_counts", counts.astype("<u4")),
        }
        for message, (name, value) in cases.items():
            with pytest.raises(SnapshotError, match=message):
                snapshot_load(write_snapshot(tmp_path / "plan.snap", header,
                                             {**arrays, name: value}))

    @pytest.mark.parametrize("mutate", [
        lambda h: h.pop("calibration"),
        lambda h: h["calibration"].update(mode="both"),
        lambda h: h["config"]["scorer"].update(k="three"),
        lambda h: h.update(table={"n": 1, "delta": 0.1, "method": "mc"}),
        lambda h: h["config"]["scorer"].update(kind="isolation_forest"),
    ])
    def test_malformed_header_refused(self, tmp_path, jab, mutate):
        header, arrays = jab
        mutate(header)
        with pytest.raises(SnapshotError):
            snapshot_load(write_snapshot(tmp_path / "header.snap", header, arrays))

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
            flat[rng.integers(flat.size)] = rng.choice([0, 1, -1, 2, 63, 200, 65535])
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
