import numpy as np
import pytest

from jam.errors import InvalidInput
from jam.evalkit import (
    RetrievalResult,
    aggregate_seeds,
    binary_hits,
    recall_5way,
    recall_binary,
    sample_distractors,
)
from jam.numkit import RngStream


def unit(z):
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestRecallBinary:
    def test_perfect(self):
        zv = RngStream(1).gaussian(10, 4)
        zln = np.roll(zv, 3, axis=0) + RngStream(2).gaussian(10, 4) * 2
        assert recall_binary(zv, zv.copy(), -zv) == 1.0

    def test_ties_fail(self):
        zv = RngStream(3).gaussian(8, 4)
        zlp = RngStream(4).gaussian(8, 4)
        assert recall_binary(zv, zlp, zlp.copy()) == 0.0

    def test_chance_level(self):
        r = RngStream(5)
        zv, zlp, zln = r.gaussian(2000, 16), r.gaussian(2000, 16), r.gaussian(2000, 16)
        assert abs(recall_binary(zv, zlp, zln) - 0.5) <= 0.03

    def test_scale_invariance(self):
        r = RngStream(6)
        zv, zlp, zln = r.gaussian(50, 8), r.gaussian(50, 8), r.gaussian(50, 8)
        base = recall_binary(zv, zlp, zln)
        scales = np.exp(r.gaussian(50, 1))
        assert recall_binary(zv * scales, zlp * np.roll(scales, 1), zln * np.roll(scales, 2)) == base

    def test_antisymmetry_no_ties(self):
        r = RngStream(7)
        zv, zlp, zln = r.gaussian(300, 8), r.gaussian(300, 8), r.gaussian(300, 8)
        assert recall_binary(zv, zlp, zln) + recall_binary(zv, zln, zlp) == 1.0

    def test_hits_are_per_query_outcomes(self):
        r = RngStream(8)
        zv, zlp, zln = r.gaussian(40, 6), r.gaussian(40, 6), r.gaussian(40, 6)
        hits = binary_hits(zv, zlp, zln)
        expected = np.sum(unit(zv) * unit(zlp), axis=1) > np.sum(unit(zv) * unit(zln), axis=1)
        np.testing.assert_array_equal(hits, expected)
        assert recall_binary(zv, zlp, zln) == float(np.mean(hits))
        assert not binary_hits(zv, zlp, zlp.copy()).any()  # ties never count


class TestRecall5Way:
    def test_perfect(self):
        zv = RngStream(8).gaussian(20, 6)
        assert recall_5way(zv, zv.copy(), -zv, RngStream(0)) == 1.0

    def test_chance_level(self):
        r = RngStream(9)
        zv, zlp, zln = r.gaussian(2000, 16), r.gaussian(2000, 16), r.gaussian(2000, 16)
        assert abs(recall_5way(zv, zlp, zln, RngStream(11)) - 0.2) <= 0.03

    def test_seeded_draws_reproducible(self):
        r = RngStream(10)
        zv, zlp, zln = r.gaussian(50, 8), r.gaussian(50, 8), r.gaussian(50, 8)
        a = recall_5way(zv, zlp, zln, RngStream(123))
        b = recall_5way(zv, zlp, zln, RngStream(123))
        assert a == b

    def test_needs_five(self):
        z = RngStream(11).gaussian(4, 4)
        with pytest.raises(InvalidInput):
            recall_5way(z, z, z, RngStream(0))

    def test_distractors_distinct_and_not_self(self):
        idx = sample_distractors(30, RngStream(3))
        for i, row in enumerate(idx):
            assert i not in row
            assert len(set(row.tolist())) == 3

    def test_never_exceeds_binary(self):
        # 5-way success requires beating the hard negative plus 3 more rivals
        for seed in range(20):
            r = RngStream(seed)
            zv, zlp, zln = r.gaussian(60, 6), r.gaussian(60, 6), r.gaussian(60, 6)
            five = recall_5way(zv, zlp, zln, RngStream(seed + 1000))
            assert five <= recall_binary(zv, zlp, zln) + 1e-12


class TestAggregate:
    def test_single_result(self):
        res = RetrievalResult(0.8, 0.6, 100, 5)
        agg = aggregate_seeds([res])
        assert agg["recall_binary"] == {"mean": 0.8, "std": 0.0}
        assert agg["n_runs"] == 1

    def test_three_results(self):
        results = [
            RetrievalResult(0.8, 0.5, 100, 5),
            RetrievalResult(0.9, 0.6, 100, 42),
            RetrievalResult(1.0, 0.7, 100, 55),
        ]
        agg = aggregate_seeds(results)
        assert abs(agg["recall_binary"]["mean"] - 0.9) < 1e-12
        # population std of (0.8, 0.9, 1.0)
        assert abs(agg["recall_binary"]["std"] - np.sqrt(0.02 / 3)) < 1e-12
        assert agg["seeds"] == [5, 42, 55]

    def test_matches_independent_computation(self):
        values = [0.31, 0.77, 0.52]
        results = [RetrievalResult(v, v / 2, 10, i) for i, v in enumerate(values)]
        agg = aggregate_seeds(results)
        mean = sum(values) / 3
        var = sum((v - mean) ** 2 for v in values) / 3
        assert abs(agg["recall_binary"]["mean"] - mean) < 1e-12
        assert abs(agg["recall_binary"]["std"] - var**0.5) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            aggregate_seeds([])
