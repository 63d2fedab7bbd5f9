import numpy as np
import pytest

from confanom.core import (DataMatrix, DecisionSet, EmptyCalibration,
                           InvalidData, InvalidHyperparameter, InvalidLabel,
                           InvalidSpec, PValueVector, ScoreVector,
                           ShapeMismatch, check_seed, make_rng, split_seed,
                           validate_matrix)


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


class TestDataMatrix:
    def test_roundtrip_and_readonly(self):
        m = validate_matrix([[1, 2], [3, 4]])
        assert m.n_rows == 2 and m.n_cols == 2
        assert m.values.dtype == np.float64
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_nan_reports_position(self):
        with pytest.raises(InvalidData) as err:
            validate_matrix([[1.0, 2.0], [np.nan, 4.0]])
        assert err.value.row == 1 and err.value.col == 0

    def test_inf_rejected(self):
        with pytest.raises(InvalidData):
            validate_matrix([[np.inf]])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matrix([[1.0, 2.0], [3.0]])

    def test_one_dimensional_rejected(self):
        with pytest.raises(ShapeMismatch):
            DataMatrix(np.zeros(3))

    def test_labels_validated(self):
        m = validate_matrix([[0.0], [1.0]], labels=[0, 1])
        assert m.labels.tolist() == [0, 1]
        with pytest.raises(InvalidLabel):
            validate_matrix([[0.0], [1.0]], labels=[0, 2])
        with pytest.raises(ShapeMismatch):
            validate_matrix([[0.0], [1.0]], labels=[0])

    def test_column_names_length_checked(self):
        with pytest.raises(ShapeMismatch):
            validate_matrix([[1.0, 2.0]], column_names=("a",))

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
        with pytest.raises(EmptyCalibration):
            PValueVector(np.array([0.5]), estimation="empirical",
                         smoothed=True, calibration_size=0)


class TestDecisionSet:
    def test_flags_binary(self):
        with pytest.raises(InvalidLabel):
            DecisionSet(np.array([0, 2]), procedure="bh", alpha=0.1,
                        rejection_threshold=0.0)

    def test_counts(self):
        d = DecisionSet(np.array([1, 0, 1]), procedure="bh", alpha=0.1,
                        rejection_threshold=0.02)
        assert d.n_flagged == 2 and len(d) == 3
