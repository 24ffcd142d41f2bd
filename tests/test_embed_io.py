import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam.embed_io import (
    SynthConfig,
    load_paired_dataset,
    make_paired_dataset,
    read_embeddings,
    split_dataset,
    split_sizes,
    synth_generate,
    write_embeddings,
)
from jam.errors import FormatError, InvalidInput, ManifestError
from jam.numkit import RngStream


def _cosines(a, b):
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.sum(an * bn, axis=1)


class TestEmbeddingFile:
    def test_round_trip_f64(self, tmp_path):
        m = RngStream(1).gaussian(2, 3)
        path = tmp_path / "m.jemb"
        write_embeddings(path, m, "f64")
        np.testing.assert_array_equal(read_embeddings(path), m)

    def test_round_trip_f32_exact_at_stored_dtype(self, tmp_path):
        m = RngStream(2).gaussian(5, 4)
        path = tmp_path / "m.jemb"
        write_embeddings(path, m, "f32")
        got = read_embeddings(path)
        np.testing.assert_array_equal(got, m.astype(np.float32).astype(np.float64))
        # writing the read-back matrix reproduces the bytes
        path2 = tmp_path / "m2.jemb"
        write_embeddings(path2, got, "f32")
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jemb"
        write_embeddings(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.jemb"
        write_embeddings(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "inf.jemb"
        write_embeddings(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[28:36] = np.array([np.inf]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_file_size_formula(self, tmp_path):
        rows, cols = 10_000, 512
        path = tmp_path / "big.jemb"
        write_embeddings(path, np.zeros((rows, cols)), "f32")
        assert path.stat().st_size == 28 + rows * cols * 4


class TestManifest:
    def _write_triplet(self, tmp_path, rows=(100, 100, 100)):
        names = ["images", "positives", "negatives"]
        doc = {}
        for name, r in zip(names, rows):
            cols = 8 if name == "images" else 6
            write_embeddings(tmp_path / f"{name}.jemb", RngStream(ord(name[0])).gaussian(r, cols))
            doc[name] = f"{name}.jemb"
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        return mpath

    def test_loads(self, tmp_path):
        ds = load_paired_dataset(self._write_triplet(tmp_path))
        assert ds.n == 100

    def test_row_mismatch(self, tmp_path):
        mpath = self._write_triplet(tmp_path, rows=(100, 99, 100))
        with pytest.raises(ManifestError):
            load_paired_dataset(mpath)

    def test_missing_file(self, tmp_path):
        mpath = self._write_triplet(tmp_path)
        (tmp_path / "positives.jemb").unlink()
        with pytest.raises(ManifestError):
            load_paired_dataset(mpath)

    def test_unknown_keys_rejected(self, tmp_path):
        mpath = self._write_triplet(tmp_path)
        doc = json.loads(mpath.read_text())
        doc["surprise"] = 1
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            load_paired_dataset(mpath)

    @pytest.mark.parametrize("key, value", [
        ("n", "abc"), ("n", None), ("n", 50.7), ("n", 100.0), ("n", True), ("n", [100]),
        ("images", 5), ("positives", None), ("negatives", ["negatives.jemb"]), ("easy", {}), ("latents", 1.5),
    ])
    def test_malformed_values_rejected(self, tmp_path, key, value):
        mpath = self._write_triplet(tmp_path)
        doc = json.loads(mpath.read_text())
        doc[key] = value
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=repr(key)):
            load_paired_dataset(mpath)

    def test_integer_n_matching_the_rows_loads(self, tmp_path):
        mpath = self._write_triplet(tmp_path)
        doc = json.loads(mpath.read_text())
        doc["n"] = 100
        mpath.write_text(json.dumps(doc))
        assert load_paired_dataset(mpath).n == 100
        doc["n"] = 99
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="n=99"):
            load_paired_dataset(mpath)

    def test_wide_dims_load(self, tmp_path):
        # image/text widths matching common frozen-backbone sizes
        write_embeddings(tmp_path / "images.jemb", RngStream(1).gaussian(20, 768))
        write_embeddings(tmp_path / "positives.jemb", RngStream(2).gaussian(20, 2304))
        write_embeddings(tmp_path / "negatives.jemb", RngStream(3).gaussian(20, 2304))
        mpath = tmp_path / "manifest.json"
        mpath.write_text(
            json.dumps(
                {"images": "images.jemb", "positives": "positives.jemb", "negatives": "negatives.jemb"}
            )
        )
        ds = load_paired_dataset(mpath)
        assert ds.images.shape == (20, 768)
        assert ds.positives.shape == (20, 2304)


def row_ids(ds):
    """The source row of each row of a `TestSplit._ds` dataset or its subset."""
    return ds.images[:, 0].astype(np.int64)


class TestSplit:
    def _ds(self, n):
        r = RngStream(0)
        # the first image column is the row index, so a subset names its rows
        images = np.column_stack([np.arange(n), r.gaussian(n, 3)])
        return make_paired_dataset(images, r.gaussian(n, 3), r.gaussian(n, 3))

    def test_sizes_100(self):
        tr, va, te = split_dataset(self._ds(100), seed=5)
        assert (tr.n, va.n, te.n) == (70, 15, 15)

    def test_sizes_10_remainder_to_test(self):
        # floor gives (7,1,1); the leftover row goes to test first
        assert split_sizes(10) == (7, 1, 2)
        tr, va, te = split_dataset(self._ds(10), seed=5)
        assert (tr.n, va.n, te.n) == (7, 1, 2)

    def test_same_seed_same_split(self):
        ds = self._ds(50)
        a = split_dataset(ds, seed=42)
        b = split_dataset(ds, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(row_ids(x), row_ids(y))

    def test_too_small(self):
        with pytest.raises(InvalidInput):
            split_dataset(self._ds(9))

    @given(st.integers(10, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_disjoint_exhaustive(self, n, seed):
        parts = split_dataset(self._ds(n), seed=seed)
        ids = np.concatenate([row_ids(p) for p in parts])
        assert len(ids) == n
        assert len(np.unique(ids)) == n


class TestSynth:
    def test_hard_delta_zero_degenerate(self):
        cfg = SynthConfig(n=40, hard_delta=0.0, noise_std=0.0, seed=5)
        ds, _, _ = synth_generate(cfg)
        np.testing.assert_allclose(ds.negatives, ds.positives, atol=1e-12)

    def test_noiseless_rows_deterministic_in_latent(self):
        cfg = SynthConfig(n=30, noise_std=0.0, seed=9)
        ds1, _, z1 = synth_generate(cfg)
        ds2, _, z2 = synth_generate(cfg)
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(ds1.images, ds2.images)

    def test_planted_context_property(self):
        # hard negatives share context, so they stay closer to their positive
        # than unrelated positives are to each other
        cfg = SynthConfig(n=500, seed=5)
        ds, _, _ = synth_generate(cfg)
        hard_cos = _cosines(ds.positives, ds.negatives).mean()
        perm = np.roll(np.arange(cfg.n), 1)
        cross_cos = _cosines(ds.positives, ds.positives[perm]).mean()
        assert hard_cos > cross_cos

    def test_easy_negatives_unrelated(self):
        ds, easy, _ = synth_generate(SynthConfig(n=300, seed=42))
        easy_cos = np.abs(_cosines(ds.positives, easy).mean())
        hard_cos = _cosines(ds.positives, ds.negatives).mean()
        assert hard_cos > 5 * easy_cos

    def test_bad_config(self):
        with pytest.raises(InvalidInput):
            SynthConfig(latent_dim=8, context_dims=3, fine_dims=4)
        with pytest.raises(InvalidInput):
            SynthConfig(noise_std=-0.1)
