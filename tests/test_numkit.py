import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import jam
from jam.errors import InvalidInput
from jam.numkit import RngStream, as_matrix, blas_threads, center_columns, check_symmetric, svd, sym_eig


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_nonfinite_entry_rejected(self, bad):
        for at in ((0, 0), (2, 1), (3, 3)):
            m = np.ones((4, 4))
            m[at] = bad
            with pytest.raises(InvalidInput):
                as_matrix(m)

    def test_extreme_finite_values_accepted(self):
        big = np.finfo(np.float64).max
        for m in (np.full((3, 3), big), np.full((3, 3), -big), np.array([[big, -big]]), np.empty((0, 3))):
            assert as_matrix(m) is m


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

    @pytest.mark.parametrize("n", [255, 256, 600])
    def test_asymmetry_found_in_any_tile(self, n):
        g = RngStream(n).gaussian(n, n)
        s = (g + g.T) / 2
        check_symmetric(s, "s", 0.0)
        scale = max(1.0, np.abs(s).max())
        for i, j in ((1, 0), (n - 1, 0), (n // 2, n - 1), (n - 1, n - 2)):
            bad = s.copy()
            bad[i, j] += 3e-10 * scale  # three times the tolerance
            with pytest.raises(InvalidInput, match="s is asymmetric"):
                check_symmetric(bad, "s", 1e-10)
            bad[i, j] = s[i, j] + 0.5e-10 * scale
            check_symmetric(bad, "s", 1e-10)

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
        # top=3 of 60 takes the Lanczos path, the full solve syevr
        g = RngStream(19).gaussian(60, 60)
        s = np.array((g + g.T) / 2, order=order)
        before = s.copy()
        sym_eig(s)
        sym_eig(s, top=3)
        np.testing.assert_array_equal(s, before)

    @pytest.mark.parametrize("top", [0, 3])
    def test_top_out_of_range_rejected(self, top):
        with pytest.raises(InvalidInput):
            sym_eig(np.eye(2), top=top)


def centered_rbf_kernel(n, d, seed):
    x = RngStream(seed).gaussian(n, d)
    sq = np.sum(x * x, axis=1)
    k = np.exp(-(sq[:, None] + sq[None, :] - 2.0 * x @ x.T) / (2.0 * d))
    k -= k.mean(axis=0)
    k -= k.mean(axis=1, keepdims=True)
    return (k + k.T) / 2.0


def syevr_top(s, top):
    n = s.shape[0]
    w, v = scipy.linalg.eigh(s, subset_by_index=[n - top, n - 1], driver="evr")
    return w[::-1], v[:, ::-1]


class TestSymEigLanczos:
    """n >= 20 * top: the top pairs come from ARPACK's Lanczos, else syevr."""

    N, TOP = 1200, 50

    @pytest.fixture(scope="class")
    def kernel(self):
        return centered_rbf_kernel(self.N, 8, 23)

    def assert_matches_syevr(self, kernel, w, v):
        w_ref, v_ref = syevr_top(kernel, self.TOP)
        assert w.shape == (self.TOP,) and v.shape == (self.N, self.TOP)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(w - w_ref) / np.abs(w_ref)) <= 1e-10
        signs = np.sign(np.sum(v * v_ref, axis=0))
        np.testing.assert_allclose(v * signs, v_ref, rtol=0, atol=1e-9)
        assert np.abs(v.T @ v - np.eye(self.TOP)).max() <= 1e-12

    def test_matches_syevr(self, kernel, eigsh_calls):
        w, v = sym_eig(kernel, top=self.TOP)
        assert eigsh_calls == [self.TOP]
        self.assert_matches_syevr(kernel, w, v)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_other_layouts_match_syevr_unmodified(self, kernel, eigsh_calls, layout):
        # the product reads an F-ordered matrix: one given in another layout is copied once
        if layout == "fortran":
            m = np.asfortranarray(kernel)
        else:
            m = np.zeros((self.N, self.N + 1))[:, : self.N]
            m[...] = kernel
            assert not (m.flags.c_contiguous or m.flags.f_contiguous)
        before = m.copy()
        w, v = sym_eig(m, top=self.TOP)
        assert eigsh_calls == [self.TOP]
        np.testing.assert_array_equal(m, before)
        self.assert_matches_syevr(kernel, w, v)

    def test_bit_identical_across_calls(self, kernel):
        w1, v1 = sym_eig(kernel, top=self.TOP)
        w2, v2 = sym_eig(kernel, top=self.TOP)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(v1, v2)

    def test_syevr_below_crossover(self, kernel, eigsh_calls):
        top = self.N // 20 + 1
        w, v = sym_eig(kernel, top=top)
        assert eigsh_calls == []
        w_ref, v_ref = syevr_top(kernel, top)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(v, v_ref)

    def test_no_convergence_falls_back_to_syevr(self, kernel, fail_eigsh):
        fail_eigsh()
        w, v = sym_eig(kernel, top=self.TOP)
        w_ref, v_ref = syevr_top(kernel, self.TOP)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(v, v_ref)


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

    def test_integers_array_high(self):
        high = np.array([5, 2, 1])
        draws = RngStream(3).integers(high, (4000, 3))
        assert draws.shape == (4000, 3)
        assert draws.min() >= 0
        assert np.all(draws.max(axis=0) == high - 1)  # each column reaches its bound minus one
        assert np.all(draws[:, 2] == 0)
        np.testing.assert_array_equal(draws, RngStream(3).integers(high, (4000, 3)))
        assert not np.array_equal(draws, RngStream(4).integers(high, (4000, 3)))


class TestBlasThreads:
    @pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS is not an OpenBLAS that reports a thread count")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_reports_openblas_setting(self, threads):
        # OpenBLAS reads its setting once, when numpy loads it: a fresh process
        src = os.path.dirname(os.path.dirname(jam.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "from jam.numkit import blas_threads; print(blas_threads())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == str(threads)
