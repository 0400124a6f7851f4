"""Dataset synthesis, IDX parsing, batching, and augmentation.

Labels are for evaluation only.  Every read of :attr:`Dataset.labels`
increments a counter so tests can assert that no label is touched on a
distillation code path.
"""

from __future__ import annotations

import struct

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

KEY_BLOB_CENTROIDS = 11  # spawn key of synth_blobs' centroids, under centroid_seed
KEY_BLOB_NOISE = 12      # and of its sample noise, under seed


class IdxFormatError(ValueError):
    """Malformed IDX payload."""


class Dataset:
    """Immutable collection of samples in R^n with evaluation-only labels."""

    def __init__(self, samples: np.ndarray, labels: np.ndarray, num_classes: int,
                 value_range: tuple[float, float] = (0.0, 1.0)):
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if samples.ndim != 2:
            raise ValueError(f"samples must be [N, n], got shape {samples.shape}")
        if labels.shape != (samples.shape[0],):
            raise ValueError(
                f"label count {labels.shape} does not match sample count {samples.shape[0]}")
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("label outside [0, num_classes)")
        lo, hi = value_range
        # Written as "not inside" so NaN (for which every comparison is False) fails.
        if samples.size and not (samples.min() >= lo - 1e-9 and samples.max() <= hi + 1e-9):
            raise ValueError(f"sample values non-finite or outside declared range [{lo}, {hi}]")
        samples.setflags(write=False)
        labels.setflags(write=False)
        self._samples = samples
        self._labels = labels
        self.num_classes = int(num_classes)
        self.value_range = (float(lo), float(hi))
        self.label_reads = 0

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def labels(self) -> np.ndarray:
        """Evaluation-only; each access is counted for the quarantine audit."""
        self.label_reads += 1
        return self._labels

    @property
    def n(self) -> int:
        return self._samples.shape[1]

    def __len__(self) -> int:
        return self._samples.shape[0]

    def take(self, indices) -> "Dataset":
        return Dataset(self._samples[indices], self._labels[indices],
                       self.num_classes, self.value_range)

    def rescale(self, new_range: tuple[float, float]) -> "Dataset":
        lo, hi = self.value_range
        new_lo, new_hi = new_range
        scaled = (self._samples - lo) / (hi - lo) * (new_hi - new_lo) + new_lo
        return Dataset(scaled, self._labels, self.num_classes, new_range)


# -- IDX format -----------------------------------------------------------


def parse_idx(image_bytes: bytes, label_bytes: bytes, num_classes: int) -> Dataset:
    """Parse big-endian IDX image/label payloads into a Dataset (values byte/255)."""
    if len(image_bytes) < 16:
        raise IdxFormatError("image payload shorter than its 16-byte header")
    magic, count, rows, cols = struct.unpack(">IIII", image_bytes[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"unsupported magic 0x{magic:08x} for image file")
    expected = 16 + count * rows * cols
    if len(image_bytes) != expected:
        raise IdxFormatError(
            f"image payload is {len(image_bytes)} bytes, header implies {expected}")

    if len(label_bytes) < 8:
        raise IdxFormatError("label payload shorter than its 8-byte header")
    lmagic, lcount = struct.unpack(">II", label_bytes[:8])
    if lmagic != LABEL_MAGIC:
        raise IdxFormatError(f"unsupported magic 0x{lmagic:08x} for label file")
    if lcount != count:
        raise IdxFormatError(f"image count {count} != label count {lcount}")
    if len(label_bytes) != 8 + count:
        raise IdxFormatError(
            f"label payload is {len(label_bytes)} bytes, header implies {8 + count}")

    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    samples = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(samples, labels, num_classes)


def serialize_idx(ds: Dataset, rows: int, cols: int) -> tuple[bytes, bytes]:
    """Inverse of parse_idx for [0,1]-normalized data; values become round(v*255)."""
    if rows * cols != ds.n:
        raise ValueError(f"rows*cols = {rows * cols} does not match sample width {ds.n}")
    if ds.value_range != (0.0, 1.0):
        raise ValueError("serialize_idx expects [0,1]-normalized data")
    pixels = np.rint(ds.samples * 255.0).astype(np.uint8)
    image_bytes = struct.pack(">IIII", IMAGE_MAGIC, len(ds), rows, cols) + pixels.tobytes()
    label_values = ds.labels  # evaluation/inspection path
    label_bytes = struct.pack(">II", LABEL_MAGIC, len(ds)) + label_values.astype(np.uint8).tobytes()
    return image_bytes, label_bytes


# -- synthesis ------------------------------------------------------------


def spawn(seed, *key: int) -> np.random.SeedSequence:
    """The package's one seed derivation: the stream ``key`` under ``seed``, an
    int or a SeedSequence (whose own spawn key ``key`` extends, so streams nest)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *key))
    return np.random.SeedSequence(seed, spawn_key=key)


def synth_blobs(num_classes: int, n: int, per_class: int, spread: float, seed,
                centroid_seed=None) -> Dataset:
    """Gaussian clusters around fixed centroids in [0,1]^n, clipped to range.

    Centroids depend only on ``centroid_seed`` (defaults to ``seed``), so a
    train/test pair drawn with different seeds but a shared centroid_seed
    samples the same class geometry.
    """
    if num_classes < 2 or n < 2:
        raise ValueError(f"need num_classes >= 2 and n >= 2, got {num_classes}, {n}")
    if centroid_seed is None:
        centroid_seed = seed
    crng = np.random.default_rng(spawn(centroid_seed, KEY_BLOB_CENTROIDS))
    centroids = crng.uniform(0.15, 0.85, size=(num_classes, n))
    for _ in range(100):
        dists = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= 0.5:
            break
        centroids = crng.uniform(0.15, 0.85, size=(num_classes, n))
    else:
        raise RuntimeError("could not place well-separated centroids; raise n")

    nrng = np.random.default_rng(spawn(seed, KEY_BLOB_NOISE))
    samples = np.repeat(centroids, per_class, axis=0)
    samples = samples + spread * nrng.standard_normal(samples.shape)
    samples = np.clip(samples, 0.0, 1.0)
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(samples, labels, num_classes)


# -- augmentation ---------------------------------------------------------


def _spatial_side(n: int) -> int:
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ValueError(f"sample width {n} is not a square; spatial augmentation undefined")
    return side


def hflip(x: np.ndarray) -> np.ndarray:
    """Mirror a flattened square image, or each row of a batch of them, left-right."""
    side = _spatial_side(x.shape[-1])
    return x.reshape(-1, side, side)[:, :, ::-1].reshape(x.shape).copy()


def random_crop(x: np.ndarray, pad: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-pad by ``pad`` on each side, then crop a random original-size window."""
    side = _spatial_side(x.shape[-1])
    img = x.reshape(side, side)
    padded = np.zeros((side + 2 * pad, side + 2 * pad), dtype=x.dtype)
    padded[pad:pad + side, pad:pad + side] = img
    r0 = int(rng.integers(0, 2 * pad + 1))
    c0 = int(rng.integers(0, 2 * pad + 1))
    return padded[r0:r0 + side, c0:c0 + side].reshape(-1).copy()


# -- batching -------------------------------------------------------------


def batches(ds: Dataset, m: int, seed=None) -> list[np.ndarray]:
    """Shuffled index arrays partitioning the dataset, m rows each (all rows
    if m exceeds them); the last batch may be short."""
    if m < 1:
        raise ValueError(f"batch size must be >= 1, got {m}")
    order = np.random.default_rng(seed).permutation(len(ds))
    return [order[i:i + m] for i in range(0, len(ds), m)]
