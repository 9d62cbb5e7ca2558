"""Domain-discrepancy matrix construction."""

import numpy as np
import numpy.testing as npt
import pytest

from crossprop import conditional_mmd, discrepancy_matrix, marginal_mmd
from crossprop.exceptions import ArgumentError, LabelError

from conftest import brute_conditional_gap, brute_marginal_gap


class TestMarginal:
    def test_two_by_two_blocks(self):
        M = marginal_mmd(2, 2)
        npt.assert_allclose(M[:2, :2], 0.25)
        npt.assert_allclose(M[2:, 2:], 0.25)
        npt.assert_allclose(M[:2, 2:], -0.25)

    def test_smallest_case(self):
        npt.assert_allclose(marginal_mmd(1, 1), [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_counts_rejected(self):
        with pytest.raises(ArgumentError):
            marginal_mmd(0, 3)
        with pytest.raises(ArgumentError):
            marginal_mmd(3, 0)

    def test_quadratic_form_is_mean_gap(self, rng):
        for _ in range(20):
            n_s = int(rng.integers(2, 12))
            n_t = int(rng.integers(2, 12))
            Z = rng.standard_normal((4, n_s + n_t))
            M = marginal_mmd(n_s, n_t)
            form = float(np.sum((Z @ M) * Z))
            gap = brute_marginal_gap(Z, n_s)
            assert form == pytest.approx(gap, rel=1e-10, abs=1e-14)


class TestConditional:
    def test_two_class_entries(self):
        M = conditional_mmd([0, 1], [0, 1], 2)
        expected = np.zeros((4, 4))
        for e in (np.array([1.0, 0, -1.0, 0]), np.array([0, 1.0, 0, -1.0])):
            expected += np.outer(e, e)
        npt.assert_allclose(M, expected)

    def test_single_class_equals_marginal(self):
        M = conditional_mmd([0, 0, 0], [0, 0], 1)
        npt.assert_allclose(M, marginal_mmd(3, 2))

    def test_class_missing_in_target_is_skipped(self):
        # Class 1 has no target members, so only class 0 contributes.
        M = conditional_mmd([0, 0, 1, 1], [0, 0], 2)
        e = np.array([0.5, 0.5, 0.0, 0.0, -0.5, -0.5])
        npt.assert_allclose(M, np.outer(e, e))

    def test_quadratic_form_is_classwise_gap_sum(self, rng):
        for _ in range(20):
            n_s = int(rng.integers(4, 14))
            n_t = int(rng.integers(4, 14))
            C = int(rng.integers(2, 4))
            y_s = rng.integers(0, C, size=n_s)
            y_t = rng.integers(0, C, size=n_t)
            Z = rng.standard_normal((3, n_s + n_t))
            M = conditional_mmd(y_s, y_t, C)
            form = float(np.sum((Z @ M) * Z))
            gap = brute_conditional_gap(Z, y_s, y_t, C)
            assert form == pytest.approx(gap, rel=1e-10, abs=1e-14)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(LabelError):
            conditional_mmd([0, 3], [0], 3)
        with pytest.raises(LabelError):
            conditional_mmd([0], [-1], 2)

    def test_class_relabeling_leaves_matrix_unchanged(self, rng):
        C = 3
        y_s = rng.integers(0, C, size=10)
        y_t = rng.integers(0, C, size=8)
        perm = np.array([2, 0, 1])
        base = conditional_mmd(y_s, y_t, C)
        relabeled = conditional_mmd(perm[y_s], perm[y_t], C)
        npt.assert_allclose(base, relabeled, atol=1e-15)


class TestCombined:
    def test_zero_conditional_normalizes_marginal(self):
        # No class is present in both domains, so the conditional term is zero.
        M0 = marginal_mmd(3, 4)
        M = discrepancy_matrix([0, 0, 0], [1, 1, 1, 1], 2)
        npt.assert_allclose(M, M0 / np.linalg.norm(M0, "fro"))

    def test_unit_norm_input_unchanged(self):
        M0 = marginal_mmd(2, 2)
        M0 = M0 / np.linalg.norm(M0, "fro")
        npt.assert_allclose(discrepancy_matrix([0, 0], [1, 1], 2), M0)

    def test_output_norm_is_one_or_zero(self, rng):
        for _ in range(10):
            n_s = int(rng.integers(2, 8))
            n_t = int(rng.integers(2, 8))
            y_s = rng.integers(0, 2, size=n_s)
            y_t = rng.integers(0, 2, size=n_t)
            M = discrepancy_matrix(y_s, y_t, 2)
            assert np.linalg.norm(M, "fro") == pytest.approx(1.0, abs=1e-12)


class TestMatrixProperties:
    def build_cases(self, rng):
        cases = []
        for _ in range(12):
            n_s = int(rng.integers(2, 15))
            n_t = int(rng.integers(2, 15))
            C = int(rng.integers(1, 4))
            y_s = rng.integers(0, C, size=n_s)
            y_t = rng.integers(0, C, size=n_t)
            cases.append(marginal_mmd(n_s, n_t))
            cases.append(conditional_mmd(y_s, y_t, C))
            cases.append(discrepancy_matrix(y_s, y_t, C))
        return cases

    def test_symmetric(self, rng):
        for M in self.build_cases(rng):
            assert np.max(np.abs(M - M.T)) <= 1e-12

    def test_zero_row_sums(self, rng):
        for M in self.build_cases(rng):
            assert np.max(np.abs(M.sum(axis=1))) <= 1e-10

    def test_positive_semidefinite(self, rng):
        for M in self.build_cases(rng):
            eigvals = np.linalg.eigvalsh((M + M.T) / 2.0)
            assert eigvals.min() >= -1e-8
