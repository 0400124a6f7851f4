import struct

import numpy as np
import pytest

from mekd.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    IdxFormatError,
    batches,
    hflip,
    parse_idx,
    random_crop,
    serialize_idx,
    synth_blobs,
)


def _idx_pair(pixels, labels, rows, cols):
    count = len(labels)
    image = struct.pack(">IIII", IMAGE_MAGIC, count, rows, cols) + bytes(pixels)
    label = struct.pack(">II", LABEL_MAGIC, count) + bytes(labels)
    return image, label


def test_parse_idx_normalizes_bytes():
    image, label = _idx_pair([0, 255, 0, 255], [1], rows=2, cols=2)
    ds = parse_idx(image, label, num_classes=2)
    assert np.array_equal(ds.samples, [[0.0, 1.0, 0.0, 1.0]])
    assert ds.n == 4 and len(ds) == 1


def test_parse_idx_rejects_wrong_magic():
    image, label = _idx_pair([0, 0, 0, 0], [0], rows=2, cols=2)
    bad = struct.pack(">I", 0x00000802) + image[4:]
    with pytest.raises(IdxFormatError, match="unsupported magic"):
        parse_idx(bad, label, num_classes=2)


def test_parse_idx_rejects_truncated_pixels():
    image, label = _idx_pair([0, 0, 0, 0], [0], rows=2, cols=2)
    with pytest.raises(IdxFormatError):
        parse_idx(image[:-1], label, num_classes=2)


def test_parse_idx_rejects_count_mismatch():
    image, _ = _idx_pair([0, 0, 0, 0], [0], rows=2, cols=2)
    _, label2 = _idx_pair([0, 0, 0, 0, 0, 0, 0, 0], [0, 1], rows=2, cols=2)
    with pytest.raises(IdxFormatError, match="count"):
        parse_idx(image, label2, num_classes=2)


def test_serialize_then_parse_is_identity():
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(7, 9)).astype(np.float64) / 255.0
    ds = Dataset(raw, rng.integers(0, 3, size=7), num_classes=3)
    image, label = serialize_idx(ds, rows=3, cols=3)
    back = parse_idx(image, label, num_classes=3)
    assert np.array_equal(back.samples, ds.samples)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_validates_inputs():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 4)), np.zeros(2, dtype=int), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 4)), np.array([0, 1, 5]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.full((2, 4), 2.0), np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 4)), np.array([0, 1]), num_classes=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_samples(bad):
    # NaN compares False with both bounds, so a "min < lo or max > hi"
    # range check lets it through.
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[0.5, bad], [0.1, 0.2]]), np.array([0, 1]), 2)


def test_dataset_samples_are_read_only():
    ds = Dataset(np.zeros((2, 4)), np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        ds.samples[0, 0] = 1.0


def test_label_access_counter():
    ds = Dataset(np.zeros((2, 4)), np.array([0, 1]), num_classes=2)
    assert ds.label_reads == 0
    _ = ds.labels
    _ = ds.labels
    assert ds.label_reads == 2
    _ = ds.samples
    assert ds.label_reads == 2


def test_rescale_maps_range():
    ds = Dataset(np.array([[0.0, 0.5, 1.0]]), np.array([0]), num_classes=2)
    out = ds.rescale((-1.0, 1.0))
    assert np.allclose(out.samples, [[-1.0, 0.0, 1.0]], atol=1e-15)
    assert out.value_range == (-1.0, 1.0)


def test_synth_blobs_shapes_and_determinism():
    a = synth_blobs(4, 16, per_class=10, spread=0.05, seed=3)
    b = synth_blobs(4, 16, per_class=10, spread=0.05, seed=3)
    c = synth_blobs(4, 16, per_class=10, spread=0.05, seed=4)
    assert len(a) == 40 and a.n == 16 and a.num_classes == 4
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert np.array_equal(a.labels, np.repeat(np.arange(4), 10))
    assert a.samples.min() >= 0.0 and a.samples.max() <= 1.0


def test_synth_blobs_zero_spread_repeats_centroids():
    ds = synth_blobs(3, 9, per_class=5, spread=0.0, seed=1)
    for cls in range(3):
        block = ds.samples[cls * 5:(cls + 1) * 5]
        assert np.array_equal(block, np.repeat(block[:1], 5, axis=0))


def test_synth_blobs_shared_centroid_seed_aligns_classes():
    train = synth_blobs(4, 16, per_class=20, spread=0.0, seed=10, centroid_seed=99)
    test = synth_blobs(4, 16, per_class=20, spread=0.0, seed=11, centroid_seed=99)
    assert np.array_equal(train.samples, test.samples)  # zero spread: centroids only


def test_synth_blobs_nearest_centroid_oracle():
    # with small spread, nearest-centroid classification recovers >= 99% of labels
    ds = synth_blobs(4, 64, per_class=100, spread=0.05, seed=7)
    centroids = np.stack([
        ds.samples[ds.labels == cls].mean(axis=0) for cls in range(4)
    ])
    d = np.linalg.norm(ds.samples[:, None, :] - centroids[None], axis=2)
    predicted = d.argmin(axis=1)
    assert (predicted == ds.labels).mean() >= 0.99


def test_hflip_involution_and_known_case():
    x = np.array([1.0, 2.0, 3.0, 4.0])  # 2x2 image [[1,2],[3,4]]
    assert np.array_equal(hflip(x), [2.0, 1.0, 4.0, 3.0])
    assert np.array_equal(hflip(hflip(x)), x)
    batch = np.stack([x, x + 4])
    assert np.array_equal(hflip(batch)[1], hflip(x + 4))


def test_hflip_rejects_non_square():
    with pytest.raises(ValueError):
        hflip(np.zeros(6))


def test_random_crop_zero_pad_window():
    x = np.arange(1.0, 5.0)  # 2x2
    rng = np.random.default_rng(0)
    out = random_crop(x, pad=1, rng=rng)
    assert out.shape == x.shape
    # every output pixel is either zero padding or one of the original pixels
    assert set(np.unique(out)) <= {0.0, 1.0, 2.0, 3.0, 4.0}


def test_batches_partition_without_replacement():
    ds = Dataset(np.zeros((10, 4)), np.zeros(10, dtype=int), num_classes=2)
    idx = batches(ds, 3, seed=0)
    assert [len(b) for b in idx] == [3, 3, 3, 1]
    flat = np.concatenate(idx)
    assert np.array_equal(np.sort(flat), np.arange(10))


def test_batches_deterministic_and_seed_sensitive():
    ds = Dataset(np.zeros((10, 4)), np.zeros(10, dtype=int), num_classes=2)
    a = np.concatenate(batches(ds, 4, seed=5))
    b = np.concatenate(batches(ds, 4, seed=5))
    c = np.concatenate(batches(ds, 4, seed=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batches_clamps_oversized_batch():
    # a batch size above the dataset's holds every row in one shuffled batch
    ds = Dataset(np.zeros((4, 4)), np.zeros(4, dtype=int), num_classes=2)
    (idx,) = batches(ds, 5, seed=0)
    assert np.array_equal(idx, np.random.default_rng(0).permutation(4))
    with pytest.raises(ValueError, match="batch size must be >= 1"):
        batches(ds, 0)


def test_take_subsets():
    ds = synth_blobs(3, 4, per_class=4, spread=0.01, seed=2)
    sub = ds.take([0, 5, 11])
    assert len(sub) == 3
    assert np.array_equal(sub.samples, ds.samples[[0, 5, 11]])
    assert np.array_equal(sub.labels, ds.labels[[0, 5, 11]])
