"""Embedding file I/O, paired-dataset assembly, splitting, synthetic data.

File format (JEMB, little-endian, 28-byte header):

    offset  size  field
    0       4     magic b"JEMB"
    4       4     u32 format version (currently 1)
    8       1     u8 dtype code (0 = float32, 1 = float64)
    9       3     reserved, zero
    12      8     u64 rows
    20      8     u64 cols
    28      -     payload: rows*cols values, row-major, little-endian

Round trips are bit-exact at the stored dtype. A dataset manifest is a UTF-8
JSON document with keys {images, positives, negatives} plus optional
{n, easy, latents}; relative paths resolve against the manifest's directory.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInput, JamError, ManifestError, check_fields
from .numkit import Matrix, RngStream, as_matrix

MAGIC = b"JEMB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIB3xQQ")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {"f32": 0, "f64": 1}

_MANIFEST_KEYS = {"images", "positives", "negatives", "n", "easy", "latents"}


def write_embeddings(path, m: Matrix, dtype: str = "f64") -> None:
    """Write a matrix as a JEMB file. ``dtype`` is "f32" or "f64"."""
    if dtype not in _DTYPE_CODES:
        raise InvalidInput(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'")
    mat = as_matrix(m)
    code = _DTYPE_CODES[dtype]
    payload = np.ascontiguousarray(mat, dtype=_DTYPES[code])
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, code, mat.shape[0], mat.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_embeddings(path) -> Matrix:
    """Read a JEMB file back as float64 (exact promotion from f32)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read embeddings: {exc.strerror}") from exc
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, code, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dt = _DTYPES[code]
    expected = _HEADER.size + rows * cols * dt.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload length {len(raw) - _HEADER.size} does not match "
            f"header ({rows}x{cols} {dt.name})"
        )
    values = np.frombuffer(raw, dtype=dt, offset=_HEADER.size).reshape(rows, cols)
    out = values.astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return out


@dataclass
class PairedDataset:
    """Index-aligned image / positive-text / hard-negative-text embeddings.

    Row i of each matrix refers to the same underlying sample; image and text
    dimensionalities may differ.
    """

    images: Matrix
    positives: Matrix
    negatives: Matrix

    def __post_init__(self):
        n = self.images.shape[0]
        if self.positives.shape[0] != n or self.negatives.shape[0] != n:
            raise InvalidInput("images/positives/negatives row counts differ")
        if self.positives.shape[1] != self.negatives.shape[1]:
            raise InvalidInput("positive and negative text dims differ")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    def subset(self, idx: np.ndarray) -> "PairedDataset":
        idx = np.asarray(idx)
        return PairedDataset(
            images=self.images[idx],
            positives=self.positives[idx],
            negatives=self.negatives[idx],
        )


def make_paired_dataset(images, positives, negatives) -> PairedDataset:
    return PairedDataset(
        as_matrix(images, "images"), as_matrix(positives, "positives"), as_matrix(negatives, "negatives")
    )


def read_json_object(path, what: str, error: type[JamError]) -> dict:
    """The JSON object in the UTF-8 file at ``path``. A file that cannot be
    read, is not UTF-8 JSON or holds another value raises ``error``, whose
    message names the path and ``what`` the file is."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise error(f"{path}: {what} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must hold a JSON object")
    return doc


def read_manifest(manifest_path) -> dict:
    """Parse and validate a manifest document, resolving relative paths."""
    mpath = Path(manifest_path)
    doc = read_json_object(mpath, "manifest", ManifestError)
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"manifest has unknown keys: {sorted(unknown)}")
    for key in ("images", "positives", "negatives"):
        if key not in doc:
            raise ManifestError(f"manifest missing required key {key!r}")
    if "n" in doc and (isinstance(doc["n"], bool) or not isinstance(doc["n"], int)):
        raise ManifestError(f"manifest 'n' must be an integer, got {doc['n']!r}")
    base = mpath.parent
    out = dict(doc)
    for key in ("images", "positives", "negatives", "easy", "latents"):
        if key in out:
            if not isinstance(out[key], str):
                raise ManifestError(f"manifest {key!r} must be a path string, got {out[key]!r}")
            p = Path(out[key])
            out[key] = p if p.is_absolute() else base / p
    return out


def load_paired_dataset(manifest) -> PairedDataset:
    """Load the three embedding files referenced by a manifest, given as its
    path or as the document `read_manifest` returned."""
    doc = manifest if isinstance(manifest, dict) else read_manifest(manifest)
    mats = {}
    for key in ("images", "positives", "negatives"):
        try:
            mats[key] = read_embeddings(doc[key])
        except FormatError as exc:
            raise ManifestError(str(exc)) from exc
    rows = {key: m.shape[0] for key, m in mats.items()}
    if len(set(rows.values())) != 1:
        raise ManifestError(f"row counts differ across files: {rows}")
    if "n" in doc and doc["n"] != mats["images"].shape[0]:
        raise ManifestError(
            f"manifest n={doc['n']} but files have {mats['images'].shape[0]} rows"
        )
    return make_paired_dataset(mats["images"], mats["positives"], mats["negatives"])


def split_sizes(n: int) -> tuple[int, int, int]:
    """Floor 70/15/15 of n, then hand leftover rows to test, then val, then train."""
    floors = [int(np.floor(r * n)) for r in (0.70, 0.15, 0.15)]
    leftover = n - sum(floors)
    priority = (2, 1, 0)  # test, then val, then train
    for i in range(leftover):
        floors[priority[i % 3]] += 1
    return tuple(floors)


def split_dataset(ds: PairedDataset, seed: int = 0):
    """Seeded disjoint 70/15/15 train/val/test partition covering every row."""
    n = ds.n
    if n < 10:
        raise InvalidInput(f"need at least 10 rows to split, got {n}")
    n_train, n_val, n_test = split_sizes(n)
    perm = RngStream(seed).permutation(n)
    idx_train = perm[:n_train]
    idx_val = perm[n_train : n_train + n_val]
    idx_test = perm[n_train + n_val :]
    return ds.subset(idx_train), ds.subset(idx_val), ds.subset(idx_test)


@dataclass
class SynthConfig:
    """Planted-structure generator settings.

    A shared latent z (first ``context_dims`` coordinates = context, last
    ``fine_dims`` = fine detail) drives both modalities through fixed seeded
    isometric maps followed by tanh and additive noise. Hard negatives reuse
    the anchor's context coordinates and perturb only the fine ones, so they
    stay close to their positive; easy negatives draw a fresh latent.
    """

    n: int = 500
    latent_dim: int = 16
    context_dims: int = 12
    fine_dims: int = 4
    d_v: int = 64
    d_l: int = 96
    noise_std: float = 0.05
    hard_delta: float = 1.0
    seed: int = 5

    def __post_init__(self):
        rules = [(name, getattr(self, name) >= 1, ">= 1")
                 for name in ("n", "latent_dim", "context_dims", "fine_dims", "d_v", "d_l")]
        # an isometric map needs at least as many outputs as inputs
        rules += [(name, getattr(self, name) >= self.latent_dim, f">= latent_dim ({self.latent_dim})")
                  for name in ("d_v", "d_l")]
        check_fields(self, rules + [
            ("context_dims", self.context_dims + self.fine_dims == self.latent_dim, "latent_dim - fine_dims"),
            ("noise_std", 0 <= self.noise_std < math.inf, "finite and >= 0"),
            ("hard_delta", 0 <= self.hard_delta < math.inf, "finite and >= 0"),
        ])


def _orthonormal_map(rng: RngStream, d_out: int, d_in: int) -> Matrix:
    # QR of a Gaussian draw; columns are orthonormal, so z -> W z is isometric
    g = rng.gaussian(d_out, d_in)
    q, r = np.linalg.qr(g)
    # fix signs so the map is unique given the draw
    q = q * np.sign(np.diag(r))
    return q


def synth_generate(cfg: SynthConfig):
    """Generate (PairedDataset, easy_negatives, latents) with planted structure.

    v_i    = tanh(W_V z_i) + eps,    l_Pi = tanh(W_L z_i) + eps
    l_Ni   = tanh(W_L z'_i) + eps    with z' = z on context dims and
                                     z + hard_delta * u on fine dims (u unit)
    easy_i = tanh(W_L z_easy) + eps  with z_easy drawn independently
    """
    root = RngStream(cfg.seed)
    r_maps = root.fork()
    r_z = root.fork()
    r_noise = root.fork()
    r_dirs = root.fork()
    r_easy = root.fork()

    w_v = _orthonormal_map(r_maps, cfg.d_v, cfg.latent_dim)
    w_l = _orthonormal_map(r_maps, cfg.d_l, cfg.latent_dim)

    z = r_z.gaussian(cfg.n, cfg.latent_dim)
    dirs = r_dirs.gaussian(cfg.n, cfg.fine_dims)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z_hard = z.copy()
    z_hard[:, cfg.context_dims :] += cfg.hard_delta * dirs
    z_easy = r_easy.gaussian(cfg.n, cfg.latent_dim)

    def emit(latent, w):
        clean = np.tanh(latent @ w.T)
        return clean + cfg.noise_std * r_noise.gaussian(*clean.shape)

    images = emit(z, w_v)
    positives = emit(z, w_l)
    negatives = emit(z_hard, w_l)
    easy = emit(z_easy, w_l)

    ds = make_paired_dataset(images, positives, negatives)
    return ds, easy, z
