"""Dense linear-algebra kernel contracts."""

import numpy as np
import numpy.testing as npt
import pytest

from crossprop import pairwise_sq_dists, solve_spd_linear
from crossprop.exceptions import SingularMatrix

from conftest import naive_pairwise_sq


class TestPairwiseSqDists:
    def test_one_dimensional_points(self):
        npt.assert_allclose(pairwise_sq_dists([[0.0, 3.0]]), [[0.0, 9.0], [9.0, 0.0]])

    def test_unit_basis_vectors(self):
        npt.assert_allclose(
            pairwise_sq_dists([[1.0, 0.0], [0.0, 1.0]]), [[0.0, 2.0], [2.0, 0.0]]
        )

    def test_matches_double_loop(self, rng):
        Z = rng.standard_normal((5, 8))
        D = pairwise_sq_dists(Z)
        naive = naive_pairwise_sq(Z)
        npt.assert_allclose(D, naive, rtol=1e-10, atol=1e-12)

    def test_exact_structure(self, rng):
        Z = 100.0 * rng.standard_normal((4, 12))
        D = pairwise_sq_dists(Z)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)


class TestSolveSpdLinear:
    def test_scaled_identity(self):
        X = solve_spd_linear(2.0 * np.eye(3), np.eye(3))
        npt.assert_allclose(X, 0.5 * np.eye(3))

    def test_hand_solvable_two_by_two(self):
        X = solve_spd_linear([[2.0, 1.0], [1.0, 2.0]], [[1.0], [1.0]])
        npt.assert_allclose(X, [[1.0 / 3.0], [1.0 / 3.0]])

    def test_residual_on_random_spd(self, rng):
        A = rng.standard_normal((20, 20))
        A = A @ A.T + 20.0 * np.eye(20)
        B = rng.standard_normal((20, 4))
        X = solve_spd_linear(A, B)
        residual = np.linalg.norm(A @ X - B)
        assert residual <= 1e-8 * np.linalg.norm(B)

    def test_vector_right_hand_side(self, rng):
        A = np.diag([1.0, 2.0, 4.0])
        b = np.array([1.0, 1.0, 1.0])
        npt.assert_allclose(solve_spd_linear(A, b), [1.0, 0.5, 0.25])

    def test_semidefinite_input_is_repaired(self):
        # Rank-1 PSD matrix: plain factorization fails, the ridge retry
        # resolves it instead of raising.
        v = np.array([1.0, 2.0, 3.0])
        A = np.outer(v, v)
        X = solve_spd_linear(A, v)
        assert np.all(np.isfinite(X))

    def test_non_finite_matrix_raises(self):
        A = np.eye(2)
        A[0, 1] = np.nan
        with pytest.raises(SingularMatrix):
            solve_spd_linear(A, np.ones(2))
