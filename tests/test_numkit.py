import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam.errors import InvalidInput
from jam.numkit import RngStream, center_columns, svd, sym_eig


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_matches_gram_eigendecomposition(self):
        # oracle: singular values are sqrt of eigenvalues of A^T A
        a = RngStream(7).gaussian(10, 4)
        _, s, _ = svd(a)
        evals, _ = sym_eig(a.T @ a)
        np.testing.assert_allclose(s, np.sqrt(np.maximum(evals, 0.0)), atol=1e-9)

    def test_reconstruction_residual(self):
        a = RngStream(3).gaussian(12, 7)
        u, s, vt = svd(a)
        err = np.abs(a - (u * s) @ vt).max()
        assert err <= 1e-9 * np.abs(a).max()
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            svd(bad)


class TestSymEig:
    def test_diagonal(self):
        w, _ = sym_eig(np.diag([5.0, 1.0]))
        np.testing.assert_allclose(w, [5.0, 1.0], atol=1e-12)

    def test_analytic_2x2(self):
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)

    def test_residual_on_random_spd(self):
        g = RngStream(11).gaussian(6, 6)
        s = g @ g.T + 6 * np.eye(6)
        w, v = sym_eig(s)
        resid = np.abs(s @ v - v * w).max()
        assert resid <= 1e-8 * np.abs(s).max()

    def test_eigvecs_orthonormal(self):
        g = RngStream(13).gaussian(8, 8)
        s = (g + g.T) / 2
        _, v = sym_eig(s)
        assert np.abs(v.T @ v - np.eye(8)).max() <= 1e-8

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), top=1)

    @pytest.mark.parametrize("k", [1, 7, 60])
    def test_top_equals_leading_pairs_of_full(self, k):
        g = RngStream(17).gaussian(60, 60)
        s = (g + g.T) / 2
        w_all, v_all = sym_eig(s)
        w, v = sym_eig(s, top=k)
        assert w.shape == (k,) and v.shape == (60, k)
        assert np.all(np.diff(w) <= 0)
        assert np.abs(w - w_all[:k]).max() <= 1e-10 * np.abs(w_all).max()
        signs = np.sign(np.sum(v * v_all[:, :k], axis=0))
        np.testing.assert_allclose(v * signs, v_all[:, :k], atol=1e-8)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged(self, order):
        g = RngStream(19).gaussian(30, 30)
        s = np.array((g + g.T) / 2, order=order)
        before = s.copy()
        sym_eig(s)
        sym_eig(s, top=3)
        np.testing.assert_array_equal(s, before)

    @pytest.mark.parametrize("top", [0, 3])
    def test_top_out_of_range_rejected(self, top):
        with pytest.raises(InvalidInput):
            sym_eig(np.eye(2), top=top)


class TestCenterColumns:
    def test_constant_column_zeroed(self):
        x = np.full((4, 2), 3.0)
        np.testing.assert_array_equal(center_columns(x), np.zeros((4, 2)))

    def test_two_rows(self):
        np.testing.assert_allclose(center_columns([[1.0], [3.0]]), [[-1.0], [1.0]])

    def test_idempotent(self):
        x = RngStream(5).gaussian(9, 4)
        once = center_columns(x)
        np.testing.assert_allclose(center_columns(once), once, atol=1e-12)
        assert np.abs(once.mean(axis=0)).max() <= 1e-12

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear(self, n, d, seed):
        r = RngStream(seed)
        x, y = r.gaussian(n, d), r.gaussian(n, d)
        lhs = center_columns(2.5 * x + y)
        rhs = 2.5 * center_columns(x) + center_columns(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestRngStream:
    def test_same_seed_same_matrix(self):
        a = RngStream(5).gaussian(6, 4)
        b = RngStream(5).gaussian(6, 4)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(5).gaussian(6, 4)
        b = RngStream(42).gaussian(6, 4)
        assert not np.array_equal(a, b)

    def test_large_sample_mean(self):
        draws = RngStream(0).gaussian(100_000, 1)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_interleaving_does_not_couple_streams(self):
        # draws from stream A are identical whether or not B draws in between
        a1 = RngStream(1)
        first = a1.gaussian(3, 3)
        b = RngStream(2)
        b.gaussian(10, 10)
        second = a1.gaussian(3, 3)

        a2 = RngStream(1)
        np.testing.assert_array_equal(first, a2.gaussian(3, 3))
        np.testing.assert_array_equal(second, a2.gaussian(3, 3))

    def test_fork_is_deterministic_and_distinct(self):
        parent1, parent2 = RngStream(9), RngStream(9)
        c1, c2 = parent1.fork(), parent2.fork()
        np.testing.assert_array_equal(c1.gaussian(4, 4), c2.gaussian(4, 4))
        assert not np.array_equal(RngStream(9).gaussian(4, 4), RngStream(9).fork().gaussian(4, 4))
