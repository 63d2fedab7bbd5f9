import numpy as np
import pytest

from confanom.core import (DataMatrix, DecisionSet, EmptyCalibration, EmptyInput,
                           InvalidAlpha, InvalidData, InvalidHyperparameter,
                           InvalidLabel, InvalidSpec, PValueVector, ScoreVector,
                           ShapeMismatch, check_finite, check_real, check_seed,
                           make_rng, philox_block, philox_choice, philox_uniform,
                           split_seed)


class TestSplitSeed:
    def test_frozen_values(self):
        # frozen against numpy's SeedSequence(entropy=seed, spawn_key=(id,))
        assert split_seed(7, 3) == 6823953754371609207
        assert split_seed(42, 0) == 16138347438539916964
        assert split_seed(42, 1) == 134183728835869882

    def test_deterministic_and_distinct(self):
        seen = {split_seed(99, i) for i in range(200)}
        assert len(seen) == 200
        assert split_seed(99, 5) == split_seed(99, 5)

    def test_children_do_not_collide_across_parents(self):
        a = {split_seed(1, i) for i in range(100)}
        b = {split_seed(2, i) for i in range(100)}
        assert not a & b

    def test_independent_of_consumption_order(self):
        forward = [split_seed(7, i) for i in range(10)]
        backward = [split_seed(7, i) for i in reversed(range(10))]
        assert forward == backward[::-1]

    def test_rejects_bad_stream(self):
        with pytest.raises(InvalidHyperparameter):
            split_seed(7, -1)
        with pytest.raises(InvalidHyperparameter):
            split_seed(7, 1.5)

    def test_range(self):
        assert 0 <= split_seed(2**64 - 1, 2**40) < 2**64


class TestCheckSeed:
    def test_accepts_numpy_integers(self):
        assert check_seed(np.uint64(17)) == 17

    @pytest.mark.parametrize("bad", [True, 1.0, "7", None, -1, 2**64])
    def test_rejects(self, bad):
        with pytest.raises(InvalidHyperparameter):
            check_seed(bad)

    def test_make_rng_reproducible(self):
        assert make_rng(5).random() == make_rng(5).random()


class TestCheckReal:
    @pytest.mark.parametrize("bad", [True, "0.5", "abc", None, [0.5], np.nan, np.inf, -np.inf],
                             ids=["bool", "numeric-string", "string", "none", "list", "nan",
                                  "inf", "-inf"])
    def test_refuses_with_the_callers_error(self, bad):
        with pytest.raises(InvalidAlpha, match="alpha must be"):
            check_real("alpha", bad, InvalidAlpha)

    @pytest.mark.parametrize("value", [2, np.int64(3), np.float32(0.5), 0.25])
    def test_returns_a_float(self, value):
        out = check_real("x", value, InvalidSpec)
        assert type(out) is float and out == value


class TestCheckFinite:
    def test_names_row_and_column_of_2d_input(self):
        values = np.zeros((3, 4))
        values[2, 3], values[2, 1] = np.nan, np.inf
        with pytest.raises(InvalidData, match="non-finite score at row 2, column 1") as err:
            check_finite(values, "score")
        assert (err.value.row, err.value.col) == (2, 1)


class TestDataMatrix:
    def test_roundtrip_and_readonly(self):
        m = DataMatrix([[1, 2], [3, 4]])
        assert m.n_rows == 2 and m.n_cols == 2
        assert m.values.dtype == np.float64
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_nan_reports_position(self):
        with pytest.raises(InvalidData) as err:
            DataMatrix([[1.0, 2.0], [np.nan, 4.0]])
        assert err.value.row == 1 and err.value.col == 0

    def test_inf_rejected(self):
        with pytest.raises(InvalidData):
            DataMatrix([[np.inf]])

    def test_ragged_rejected(self):
        for raw in ([[1.0, 2.0], [3.0]], [["a", "b"]]):
            with pytest.raises(ShapeMismatch):
                DataMatrix(raw)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            DataMatrix(np.empty((0, 2)))
        with pytest.raises(ShapeMismatch):
            DataMatrix(np.empty((2, 0)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ShapeMismatch):
            DataMatrix(np.zeros(3))

    def test_labels_validated(self):
        m = DataMatrix([[0.0], [1.0]], labels=[0, 1])
        assert m.labels.tolist() == [0, 1]
        with pytest.raises(InvalidLabel):
            DataMatrix([[0.0], [1.0]], labels=[0, 2])
        with pytest.raises(ShapeMismatch):
            DataMatrix([[0.0], [1.0]], labels=[0])

    def test_column_names_length_checked(self):
        with pytest.raises(ShapeMismatch):
            DataMatrix([[1.0, 2.0]], column_names=("a",))

    def test_source_mutation_does_not_leak(self):
        raw = np.ones((2, 2))
        m = DataMatrix(raw)
        raw[0, 0] = 99.0
        assert m.values[0, 0] == 1.0


class TestScoreVector:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidData):
            ScoreVector(np.array([1.0, np.nan]))

    def test_rejects_2d(self):
        with pytest.raises(ShapeMismatch):
            ScoreVector(np.zeros((2, 2)))


class TestPValueVector:
    def test_grid_invariant_enforced(self):
        # unsmoothed empirical values must sit on k/(n+1)
        ok = PValueVector(np.array([1 / 11, 5 / 11, 1.0]), estimation="empirical",
                          smoothed=False, calibration_size=10)
        assert len(ok) == 3
        with pytest.raises(InvalidData):
            PValueVector(np.array([0.3]), estimation="empirical",
                         smoothed=False, calibration_size=10)

    @pytest.mark.parametrize("tag, conformal", [("empirical", True),
                                                ("conditional_empirical", True),
                                                ("probabilistic", False)])
    def test_conformal_follows_estimation_tag(self, tag, conformal):
        p = PValueVector(np.array([1.0]), estimation=tag, smoothed=False, calibration_size=10)
        assert p.conformal is conformal
        # the flag is derived, so it cannot contradict the tag
        with pytest.raises(TypeError):
            PValueVector(np.array([1.0]), estimation=tag, smoothed=False,
                         calibration_size=10, conformal=not conformal)

    def test_grid_invariant_skipped_when_smoothed(self):
        PValueVector(np.array([0.3]), estimation="empirical",
                     smoothed=True, calibration_size=10)

    def test_range_enforced(self):
        with pytest.raises(InvalidData):
            PValueVector(np.array([0.0]), estimation="empirical",
                         smoothed=True, calibration_size=10)
        with pytest.raises(InvalidData):
            PValueVector(np.array([1.0000001]), estimation="empirical",
                         smoothed=True, calibration_size=10)

    def test_nan_refused_with_position(self):
        with pytest.raises(InvalidData, match="at position 1") as err:
            PValueVector(np.array([0.5, np.nan]), estimation="empirical",
                         smoothed=True, calibration_size=10)
        assert err.value.row == 1

    def test_unknown_estimation_tag(self):
        with pytest.raises(InvalidSpec):
            PValueVector(np.array([0.5]), estimation="bayes",
                         smoothed=True, calibration_size=10)

    def test_positive_calibration_size(self):
        # 2.7 was once stored as 2
        for size in (0, 2.7, "3", True):
            with pytest.raises(EmptyCalibration, match="calibration_size must be"):
                PValueVector(np.array([0.5]), estimation="empirical",
                             smoothed=True, calibration_size=size)


class TestDecisionSet:
    def test_flags_binary(self):
        with pytest.raises(InvalidLabel):
            DecisionSet(np.array([0, 2]), procedure="bh", alpha=0.1,
                        rejection_threshold=0.0)

    def test_counts(self):
        d = DecisionSet(np.array([1, 0, 1]), procedure="bh", alpha=0.1,
                        rejection_threshold=0.02)
        assert d.n_flagged == 2 and len(d) == 3

    @pytest.mark.parametrize("alpha", ["0.1", True, float("inf")])
    def test_alpha_must_be_a_real_number(self, alpha):
        with pytest.raises(InvalidAlpha):
            DecisionSet(np.array([1, 0]), procedure="bh", alpha=alpha,
                        rejection_threshold=0.02)


class TestPhilox:
    def test_blocks_match_numpy_philox(self):
        rng = np.random.default_rng(7)
        key = rng.integers(0, 2**64, size=300, dtype=np.uint64)
        tweak = np.concatenate([rng.integers(0, 2**64, size=150, dtype=np.uint64),
                                np.arange(150, dtype=np.uint64)])
        # more blocks than one pass of the kernel handles
        counter = np.concatenate([np.arange(100), rng.integers(0, 2**63, size=200)])
        for stream in (0, 1, 5):
            words = philox_block(key, tweak, counter, stream)
            for i in range(0, 300, 7):
                bits = np.random.Philox(key=int(key[i]) + (int(tweak[i]) << 64),
                                        counter=int(counter[i]) + (stream << 64))
                np.testing.assert_array_equal(words[:, i], bits.random_raw(4))
                gen = np.random.Generator(np.random.Philox(
                    key=int(key[i]) + (int(tweak[i]) << 64), counter=int(counter[i]) + (stream << 64)))
                np.testing.assert_array_equal(philox_uniform(words[:, i]), gen.random(4))

    def test_choice_draws_distinct_positions_from_its_key(self):
        sizes, counts = np.array([5, 40, 40, 3, 1000]), np.array([5, 7, 40, 2, 300])
        keys, tweaks = np.array([1, 2, 2, 3, 4], dtype=np.uint64), np.array([0, 0, 1, 9, 2])
        drawn = philox_choice(keys, tweaks, sizes, counts, 1)
        parts = np.split(drawn, np.cumsum(counts)[:-1])
        for size, count, part in zip(sizes, counts, parts):
            assert part.shape == (count,) and np.unique(part).size == count
            assert ((part >= 0) & (part < size)).all()
        np.testing.assert_array_equal(np.sort(parts[0]), np.arange(5))
        # each draw depends only on its own key: drawing alone gives the same
        for i in range(5):
            np.testing.assert_array_equal(
                philox_choice(keys[i:i + 1], tweaks[i:i + 1], sizes[i:i + 1], counts[i:i + 1], 1),
                parts[i])

    def test_choice_matches_int64_reference(self):
        # the shuffle runs in int32 where every size fits; a partial
        # Fisher-Yates over int64 positions, with the uniforms of numpy's own
        # Philox, draws the same positions, here for 2,000 multisets of
        # 1,000 rows drawn 256 times and for a few small ones
        rng = np.random.default_rng(5)
        sizes = np.concatenate([np.full(2000, 1000), rng.integers(1, 40, size=30)])
        counts = np.minimum(np.concatenate([np.full(2000, 256), rng.integers(1, 40, size=30)]),
                            sizes)
        keys = rng.integers(0, 2**63, size=sizes.size).astype(np.uint64)
        tweaks = rng.integers(0, 2**20, size=sizes.size)
        drawn = np.split(philox_choice(keys, tweaks, sizes, counts, 1), np.cumsum(counts)[:-1])
        for i in range(0, sizes.size, 97):
            u = np.random.Generator(np.random.Philox(
                key=int(keys[i]) + (int(tweaks[i]) << 64), counter=1 << 64)).random(counts[i])
            perm = np.arange(sizes[i], dtype=np.int64)
            for j in range(counts[i]):
                pick = j + min(int(u[j] * (sizes[i] - j)), sizes[i] - j - 1)
                perm[[j, pick]] = perm[[pick, j]]
            np.testing.assert_array_equal(drawn[i], perm[:counts[i]])
