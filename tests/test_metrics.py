import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam import metrics
from jam.errors import DegenerateInput, InvalidInput
from jam.metrics import (
    METRIC_NAMES,
    MetricConfig,
    alignment_report,
    cca,
    center_gram,
    cka,
    cknna,
    gram,
    kpca_reduce,
    svcca,
)
from jam.numkit import RngStream, sym_eig

from metric_refs import hsic, pca_reduce


def hsic_double_sum(k, l):
    """Independent oracle: centered-similarity double sum / (n-1)^2."""
    n = k.shape[0]
    kc = k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()
    lc = l - l.mean(axis=0, keepdims=True) - l.mean(axis=1, keepdims=True) + l.mean()
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += kc[i, j] * lc[j, i]
    return total / (n - 1) ** 2


class TestGram:
    def test_linear_identity(self):
        np.testing.assert_allclose(gram(np.eye(2)), np.eye(2), atol=1e-12)

    def test_rbf_diag_ones(self):
        k = gram(RngStream(0).gaussian(5, 3), "rbf", gamma=0.7)
        np.testing.assert_allclose(np.diag(k), np.ones(5), atol=1e-12)

    def test_linear_matches_loop(self):
        x = RngStream(8).gaussian(8, 3)
        k = gram(x)
        expected = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                expected[i, j] = float(np.dot(x[i], x[j]))
        np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_bad_gamma(self):
        with pytest.raises(InvalidInput):
            gram(np.eye(3), "rbf", gamma=-1.0)


def direct_sqdist(x):
    """The squared distances as one expression over whole n x n arrays."""
    sq = np.sum(x * x, axis=1)
    d = np.add.outer(sq, sq)
    g = x @ x.T
    g *= 2.0
    d -= g
    return np.maximum(d, 0.0, out=d)


def kernel_inputs(n):
    """Gaussian rows; rows repeated three times, so equal distances tie at
    the median; coordinates in {0, 1, 2}, so a handful of distances each
    cover many ranks; constant rows."""
    r = RngStream(n)
    return {
        "gaussian": r.gaussian(n, 6),
        "repeated": np.repeat(r.gaussian(-(-n // 3), 4), 3, axis=0)[:n],
        "three_levels": r.integers(3, (n, 2)).astype(float),
        "constant": np.ones((n, 3)),
    }


class TestKernelBits:
    """The RBF kernel is built in one n x n buffer with the bits of the
    direct formulas."""

    @pytest.mark.parametrize("n", [1, 2, 3, 500, 1999, 2000])
    def test_sqdist_and_median_gamma_match_direct_formulas(self, n):
        for name, x in kernel_inputs(n).items():
            sq = metrics._pairwise_sqdist(x)
            np.testing.assert_array_equal(sq, direct_sqdist(x), err_msg=name)
            off = sq[~np.eye(n, dtype=bool)]
            med = float(np.median(off)) if off.size else 0.0
            expected = 1.0 / (2.0 * med) if med > 0.0 else 1.0
            assert metrics._median_gamma(sq) == expected, name
            if name == "constant":
                assert expected == 1.0

    def test_median_bracket_that_misses_is_widened(self, monkeypatch):
        # a bracket of 1e-12 in rank around the sample's middle misses the
        # population's middle ranks, so the search must widen it
        monkeypatch.setattr(metrics, "_MEDIAN_MARGIN", 1e-12)
        for name, x in kernel_inputs(500).items():
            sq = metrics._pairwise_sqdist(x)
            med = float(np.median(sq[~np.eye(500, dtype=bool)]))
            assert metrics._median_gamma(sq) == (1.0 / (2.0 * med) if med > 0.0 else 1.0), name


class TestCenterGram:
    def test_in_place_matches_copy_bitwise(self):
        k = gram(RngStream(10).gaussian(300, 5), "rbf")
        before = k.copy()
        expected = k - k.mean(axis=1, keepdims=True)
        expected -= k.mean(axis=0, keepdims=True)
        expected += k.mean()
        copied = center_gram(k)
        np.testing.assert_array_equal(k, before)
        np.testing.assert_array_equal(copied, expected)
        assert center_gram(k, out=k) is k
        np.testing.assert_array_equal(k, expected)

    def test_ones_to_zero(self):
        k = np.ones((4, 4))
        np.testing.assert_allclose(center_gram(k), np.zeros((4, 4)), atol=1e-12)

    def test_idempotent(self):
        g = RngStream(4).gaussian(6, 6)
        k = g @ g.T
        once = center_gram(k)
        np.testing.assert_allclose(center_gram(once), once, atol=1e-9)

    def test_matches_explicit_product(self):
        g = RngStream(3).gaussian(7, 7)
        k = (g + g.T) / 2
        n = 7
        h = np.eye(n) - np.ones((n, n)) / n
        np.testing.assert_allclose(center_gram(k), h @ k @ h, atol=1e-10)

    def test_row_col_sums_zero(self):
        g = RngStream(9).gaussian(5, 5)
        kc = center_gram((g + g.T) / 2)
        assert np.abs(kc.sum(axis=0)).max() < 1e-9
        assert np.abs(kc.sum(axis=1)).max() < 1e-9


class TestHsic:
    def test_self_nonnegative(self):
        g = RngStream(1).gaussian(6, 4)
        k = gram(g)
        assert hsic(k, k) >= 0

    def test_centered_zero(self):
        k = np.ones((5, 5))
        g = RngStream(2).gaussian(5, 5)
        assert abs(hsic(k, (g + g.T) / 2)) < 1e-12

    def test_matches_double_sum(self):
        r = RngStream(6)
        k = gram(r.gaussian(6, 3))
        l = gram(r.gaussian(6, 4))
        assert abs(hsic(k, l) - hsic_double_sum(k, l)) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            hsic(np.eye(3), np.eye(4))


class TestCka:
    def test_self_is_one(self):
        x = RngStream(5).gaussian(10, 4)
        assert abs(cka(x, x) - 1.0) < 1e-10

    def test_rotation_invariance(self):
        x = RngStream(7).gaussian(12, 5)
        q, _ = np.linalg.qr(RngStream(8).gaussian(5, 5))
        assert abs(cka(x, x @ q) - 1.0) < 1e-10

    def test_scale_invariance(self):
        x = RngStream(9).gaussian(9, 4)
        y = RngStream(10).gaussian(9, 6)
        assert abs(cka(x, 3.7 * y) - cka(x, y)) < 1e-10

    def test_symmetric(self):
        x = RngStream(11).gaussian(8, 3)
        y = RngStream(12).gaussian(8, 5)
        assert abs(cka(x, y) - cka(y, x)) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            cka(np.ones((6, 3)), RngStream(1).gaussian(6, 3))

    def test_matches_hsic_definition(self):
        r = RngStream(13)
        x, y = r.gaussian(9, 3), r.gaussian(9, 5)
        for kind, gamma in (("linear", None), ("rbf", None), ("rbf", 0.3)):
            k, l = gram(x, kind, gamma), gram(y, kind, gamma)
            expected = hsic(k, l) / np.sqrt(hsic(k, k) * hsic(l, l))
            assert abs(cka(x, y, kind, gamma) - expected) < 1e-12, kind

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bounded(self, seed):
        r = RngStream(seed)
        x, y = r.gaussian(8, 3), r.gaussian(8, 4)
        value = cka(x, y)
        assert -1e-12 <= value <= 1.0 + 1e-9


def _knn_mask(idx):
    n = idx.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def mutual_knn_mask(v, l, k):
    """mask(i, j) = 1 iff j in kNN(v_i) and j in kNN(l_i) and i != j, read
    off the inner-product kNN index sets that CKNNA uses."""
    vv, lv = metrics._paired_views(v, l)
    return _knn_mask(vv.knn(k, "inner")) & _knn_mask(lv.knn(k, "inner"))


def knn_mask_oracle(v, l, k):
    """Sort-based neighbor enumeration, inner-product similarity."""
    n = v.shape[0]
    sv, sl = v @ v.T, l @ l.T
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order_v = sorted((j for j in range(n) if j != i), key=lambda j: (-sv[i, j], j))
        order_l = sorted((j for j in range(n) if j != i), key=lambda j: (-sl[i, j], j))
        nn_v, nn_l = set(order_v[:k]), set(order_l[:k])
        for j in nn_v & nn_l:
            mask[i, j] = True
    return mask


def single_view_knn_oracle(x, k):
    n = x.shape[0]
    s = x @ x.T
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-s[i, j], j))
        for j in order[:k]:
            mask[i, j] = True
    return mask


def align_local_oracle(a_c, b_c, mask):
    """Explicit double loop; self-pairs weighted by row neighborhood density."""
    n = mask.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                total += (mask[i].sum() / (n - 1)) * a_c[i, i] * b_c[i, i]
            elif mask[i, j]:
                total += a_c[i, j] * b_c[i, j]
    return total


def cknna_oracle(v, l, k):
    mutual = knn_mask_oracle(v, l, k)
    kc = center_gram(gram(v))
    lc = center_gram(gram(l))
    num = align_local_oracle(kc, lc, mutual)
    den_k = align_local_oracle(kc, kc, single_view_knn_oracle(v, k))
    den_l = align_local_oracle(lc, lc, single_view_knn_oracle(l, k))
    return num / np.sqrt(den_k * den_l)


class TestCknna:
    def test_mask_full_at_k_max(self):
        r = RngStream(1)
        v, l = r.gaussian(7, 3), r.gaussian(7, 4)
        mask = mutual_knn_mask(v, l, 6)
        np.testing.assert_array_equal(mask, ~np.eye(7, dtype=bool))

    def test_mask_identical_views_k1(self):
        v = RngStream(2).gaussian(9, 4)
        mask = mutual_knn_mask(v, v.copy(), 1)
        sim = v @ v.T
        np.fill_diagonal(sim, -np.inf)
        for i in range(9):
            top = int(np.argmax(sim[i]))
            assert mask[i, top]
            assert mask[i].sum() == 1

    def test_mask_matches_oracle(self):
        r = RngStream(3)
        v, l = r.gaussian(10, 3), r.gaussian(10, 5)
        np.testing.assert_array_equal(mutual_knn_mask(v, l, 3), knn_mask_oracle(v, l, 3))
        # rounded coordinates make similarities tie exactly, also at the k-th
        # neighbor, where the lower column index must win
        tv, tl = np.round(v), np.round(l)
        assert any(len(set(row)) < len(row) for row in tv @ tv.T)
        for k in (1, 3, 9):
            np.testing.assert_array_equal(mutual_knn_mask(tv, tl, k), knn_mask_oracle(tv, tl, k))
            mask = mutual_knn_mask(tv, tv, k)
            np.testing.assert_array_equal(mask.sum(axis=1), np.full(10, k))

    @pytest.mark.parametrize("similarity", ["inner", "cosine"])
    def test_block_ranking_matches_full_similarity(self, similarity):
        # rounded coordinates tie exactly; 600 rows span three row blocks
        for x in (np.round(RngStream(3).gaussian(10, 3)), np.round(RngStream(4).gaussian(600, 3))):
            f = metrics._similarity_features(x, similarity)
            sim = f @ f.T
            np.fill_diagonal(sim, -np.inf)
            order = np.argsort(-sim, axis=1, kind="stable")
            for k in (1, 3, 9):
                expected = np.sort(order[:, :k], axis=1)
                np.testing.assert_array_equal(metrics._View(x).knn(k, similarity), expected)

    def test_k_out_of_range(self):
        v = RngStream(4).gaussian(5, 2)
        for bad in (0, 5):
            with pytest.raises(InvalidInput):
                mutual_knn_mask(v, v, bad)

    def test_recovers_cka_at_k_max(self):
        r = RngStream(5)
        v, l = r.gaussian(12, 4), r.gaussian(12, 6)
        assert abs(cknna(v, l, 11) - cka(v, l)) < 1e-8

    def test_self_is_one(self):
        v = RngStream(6).gaussian(10, 4)
        for k in (1, 3, 9):
            assert abs(cknna(v, v.copy(), k) - 1.0) < 1e-10

    def test_matches_masked_double_sum(self):
        r = RngStream(7)
        v, l = r.gaussian(8, 3), r.gaussian(8, 4)
        assert abs(cknna(v, l, 3) - cknna_oracle(v, l, 3)) < 1e-10

    def test_symmetric_under_swap(self):
        r = RngStream(8)
        v, l = r.gaussian(9, 3), r.gaussian(9, 5)
        assert abs(cknna(v, l, 4) - cknna(l, v, 4)) < 1e-12


def traced_peak(fn):
    """Peak bytes allocated while fn() runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """An RBF kernel lives in one n x n buffer, and the kNN pass in row blocks
    (bounds in units of n^2 float64; two whole n x n arrays read 2.0)."""

    n = 1000

    @pytest.mark.parametrize(
        "name, bound",
        [("gram_rbf", 1.75), ("kpca_reduce", 1.75), ("knn", 1.0)],
    )
    def test_peak_in_kernel_units(self, name, bound):
        x = RngStream(3).gaussian(self.n, 24)
        run = {
            "gram_rbf": lambda: gram(x, "rbf"),
            "kpca_reduce": lambda: kpca_reduce(x, 40),
            "knn": lambda: metrics._View(x).knn(10, "inner"),
        }[name]
        assert traced_peak(run) / (self.n * self.n * 8) <= bound


class TestPca:
    def test_full_rank_preserves_variance(self):
        z = RngStream(1).gaussian(10, 2)
        x = np.concatenate([z, z @ np.array([[1.0, 2.0], [3.0, 4.0]])], axis=1)  # rank 2
        reduced = pca_reduce(x, 2)
        xc = x - x.mean(axis=0)
        assert abs(np.sum(reduced**2) - np.sum(xc**2)) < 1e-9 * np.sum(xc**2)

    def test_idempotent_up_to_sign(self):
        x = RngStream(2).gaussian(12, 6)
        once = pca_reduce(x, 3)
        twice = pca_reduce(once, 3)
        for col in range(3):
            same = np.allclose(twice[:, col], once[:, col], atol=1e-9)
            flipped = np.allclose(twice[:, col], -once[:, col], atol=1e-9)
            assert same or flipped

    def test_discarded_energy_equals_tail_eigenvalues(self):
        x = RngStream(3).gaussian(60, 100)
        r = 50
        reduced = pca_reduce(x, r)
        xc = x - x.mean(axis=0)
        evals = np.linalg.eigvalsh(xc.T @ xc)[::-1]
        residual = np.sum(xc**2) - np.sum(reduced**2)
        np.testing.assert_allclose(residual, np.sum(evals[r:]), rtol=1e-9)

    def test_r_too_large(self):
        x = RngStream(4).gaussian(5, 3)
        with pytest.raises(InvalidInput):
            pca_reduce(x, 5)


class TestKpca:
    def test_shape_and_determinism(self):
        x = RngStream(5).gaussian(20, 4)
        a = kpca_reduce(x, 5)
        b = kpca_reduce(x, 5)
        assert a.shape == (20, 5)
        np.testing.assert_array_equal(a, b)

    def test_scores_match_kernel_spectrum(self):
        # column norms^2 equal the top eigenvalues of the centered kernel
        x = RngStream(6).gaussian(15, 3)
        scores = kpca_reduce(x, 4, gamma=0.5)
        k = gram(x, "rbf", gamma=0.5)
        kc = center_gram(k)
        evals = np.linalg.eigvalsh(kc)[::-1]
        np.testing.assert_allclose(np.sum(scores**2, axis=0), evals[:4], atol=1e-9)

    def test_r_too_large(self):
        with pytest.raises(InvalidInput):
            kpca_reduce(RngStream(7).gaussian(6, 3), 6)

    def test_matches_full_eigh_reference(self):
        # reference: numpy's full eigh of the centered kernel, top r pairs
        x, r = RngStream(21).gaussian(300, 8), 20
        w, v = np.linalg.eigh(center_gram(gram(x, "rbf")))
        ref = v[:, ::-1][:, :r] * np.sqrt(w[::-1][:r])
        peak = ref[np.abs(ref).argmax(axis=0), np.arange(r)]
        ref *= np.sign(peak)
        np.testing.assert_allclose(kpca_reduce(x, r), ref, rtol=0, atol=1e-9)

    def test_rank_deficient_kernel_raises(self):
        # four distinct points: the centered kernel has rank 3
        x = np.repeat(RngStream(22).gaussian(4, 3), 5, axis=0)
        with pytest.raises(DegenerateInput):
            kpca_reduce(x, 5)


class TestKpcaLanczos:
    """n >= 20 r: kernel PCA's eigensolve runs ARPACK's Lanczos."""

    def test_matches_syevr_scores_and_repeats_bitwise(self, eigsh_calls, fail_eigsh):
        x, r = RngStream(23).gaussian(1200, 8), 50
        scores = kpca_reduce(x, r)
        assert eigsh_calls == [r]
        np.testing.assert_array_equal(kpca_reduce(x, r), scores)
        fail_eigsh()  # the fallback: syevr
        np.testing.assert_allclose(scores, kpca_reduce(x, r), rtol=0, atol=1e-9)

    def test_rank_deficient_kernel_raises(self, eigsh_calls):
        # forty distinct points, each 30 times: the centered kernel has rank 39
        x = np.repeat(RngStream(22).gaussian(40, 3), 30, axis=0)
        with pytest.raises(DegenerateInput):
            kpca_reduce(x, 50)
        assert eigsh_calls == [50]


class TestCca:
    def test_linear_relation_all_ones(self):
        x = RngStream(8).gaussian(40, 5)
        m = RngStream(9).gaussian(5, 5) + 2 * np.eye(5)
        corrs = cca(x, x @ m)
        np.testing.assert_allclose(corrs, np.ones(5), atol=1e-6)

    def test_independent_views_low_first_corr(self):
        # null oracle: with n >> d the top spurious correlation stays small
        tops = []
        for seed in range(20):
            r = RngStream(seed)
            tops.append(cca(r.gaussian(2000, 5), r.gaussian(2000, 5))[0])
        assert max(tops) < 0.3

    def test_symmetry(self):
        r = RngStream(10)
        x, y = r.gaussian(30, 4), r.gaussian(30, 6)
        assert abs(cca(x, y)[0] - cca(y, x)[0]) < 1e-9

    def test_invariance_to_invertible_transform(self):
        r = RngStream(11)
        x, y = r.gaussian(50, 4), r.gaussian(50, 4)
        m = RngStream(12).gaussian(4, 4) + 3 * np.eye(4)
        np.testing.assert_allclose(cca(x @ m, y), cca(x, y), atol=1e-6)

    def test_descending_in_unit_interval(self):
        r = RngStream(13)
        corrs = cca(r.gaussian(25, 5), r.gaussian(25, 7))
        assert np.all(np.diff(corrs) <= 1e-12)
        assert np.all(corrs >= 0) and np.all(corrs <= 1)

    def test_too_few_samples(self):
        with pytest.raises(InvalidInput):
            cca(np.ones((2, 2)), np.ones((2, 2)))


class TestSvcca:
    def test_self_is_one(self):
        x = RngStream(14).gaussian(30, 8)
        assert abs(svcca(x, x.copy()) - 1.0) < 1e-6

    def test_in_unit_interval(self):
        r = RngStream(15)
        value = svcca(r.gaussian(25, 6), r.gaussian(25, 9))
        assert 0.0 <= value <= 1.0

    def test_low_rank_linear_pair(self):
        z = RngStream(16).gaussian(40, 3)
        x = z @ RngStream(17).gaussian(3, 10)
        y = x @ (RngStream(18).gaussian(10, 10) + 4 * np.eye(10))
        assert abs(svcca(x, y) - 1.0) < 1e-6


class TestAlignmentReport:
    @pytest.mark.parametrize("field, value", [
        ("pca_r", 0), ("knn_k", 0), ("svcca_k", 0), ("svcca_eta", 0.0), ("svcca_eta", 1.01),
        ("svcca_eta", float("nan")), ("rbf_gamma", 0.0), ("rbf_gamma", -1.0),
    ])
    def test_config_rejects_out_of_range_values(self, field, value):
        with pytest.raises(InvalidInput, match=f"{field} must be"):
            MetricConfig(**{field: value})

    def test_identity_views_near_one(self):
        v = RngStream(19).gaussian(60, 12)
        report = alignment_report(v, v.copy(), None, v.copy(), MetricConfig(knn_k=5))
        for metric, value in report.scores["match"].items():
            assert value > 1 - 1e-6, metric

    def test_noise_text_scores_low(self, small_synth):
        ds, easy, _ = small_synth
        report = alignment_report(ds.images, ds.positives, easy, ds.negatives)
        assert report.scores["easy_nonmatch"]["cka"] < 0.1
        assert report.scores["easy_nonmatch"]["cknna"] < 0.1

    def test_hard_negatives_score_near_match(self, small_synth):
        ds, easy, _ = small_synth
        report = alignment_report(ds.images, ds.positives, easy, ds.negatives)
        for metric in ("cka", "cknna"):
            match = report.scores["match"][metric]
            hard = report.scores["hard_nonmatch"][metric]
            assert abs(match - hard) / match < 0.25, metric

    def test_easy_setting_optional(self, small_synth):
        ds, _, _ = small_synth
        report = alignment_report(ds.images, ds.positives, None, ds.negatives)
        assert set(report.scores) == {"match", "hard_nonmatch"}

    def test_cells_equal_public_functions_and_image_side_runs_once(self, small_synth, monkeypatch):
        ds, easy, _ = small_synth
        v, n, cfg = ds.images, ds.n, MetricConfig()
        sizes = []

        def counting_sym_eig(s, *args, **kwargs):
            sizes.append(s.shape[0])
            return sym_eig(s, *args, **kwargs)

        monkeypatch.setattr(metrics, "sym_eig", counting_sym_eig)
        report = alignment_report(v, ds.positives, easy, ds.negatives, cfg)
        # one RBF kernel-PCA eigendecomposition per view: images + 3 text sets
        assert sizes.count(n) == 4
        monkeypatch.undo()
        assert report.errors == {}
        settings = {"match": ds.positives, "easy_nonmatch": easy, "hard_nonmatch": ds.negatives}
        for setting, texts in settings.items():
            r = min(cfg.pca_r, n - 1, v.shape[1], texts.shape[1])
            kr = min(cfg.pca_r, n - 1)
            expected = {
                "cca_linear": cca(pca_reduce(v, r), pca_reduce(texts, r))[0],
                "cca_kernel": cca(kpca_reduce(v, kr), kpca_reduce(texts, kr))[0],
                "cka": cka(v, texts),
                "svcca": svcca(v, texts, cfg.svcca_eta, cfg.svcca_k),
                "cknna": cknna(v, texts, cfg.knn_k),
            }
            assert list(report.scores[setting]) == list(expected)
            for metric, value in expected.items():
                assert abs(report.scores[setting][metric] - value) <= 1e-12, (setting, metric)

    def test_degenerate_text_view_recorded_in_errors(self, small_synth):
        ds, _, _ = small_synth
        constant = np.ones_like(ds.positives)
        with pytest.raises(DegenerateInput):
            alignment_report(ds.images, ds.positives, constant, ds.negatives)
        report = alignment_report(ds.images, ds.positives, constant, ds.negatives, tolerant=True)
        assert set(report.errors) == {"easy_nonmatch"}
        failed = report.errors["easy_nonmatch"]
        assert set(failed) == set(METRIC_NAMES)
        assert all(message for message in failed.values())
        assert report.scores["easy_nonmatch"] == {}
        strict = alignment_report(ds.images, ds.positives, None, ds.negatives)
        for setting in ("match", "hard_nonmatch"):
            assert report.scores[setting] == strict.scores[setting]


class TestPermutationInvariance:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_all_metrics(self, seed):
        r = RngStream(seed)
        v, l = r.gaussian(14, 4), r.gaussian(14, 5)
        perm = RngStream(seed + 1).permutation(14)
        vp, lp = v[perm], l[perm]
        assert abs(cka(v, l) - cka(vp, lp)) < 1e-9
        assert abs(cknna(v, l, 4) - cknna(vp, lp, 4)) < 1e-9
        assert abs(cca(v, l)[0] - cca(vp, lp)[0]) < 1e-7
        assert abs(svcca(v, l) - svcca(vp, lp)) < 1e-7
