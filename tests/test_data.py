"""IDX parsing, synthetic data, partitioning, and batching."""

import struct
import tracemalloc

import numpy as np
import pytest

from colearn.data import (
    Dataset,
    IdxFormatError,
    load_idx,
    make_partition,
    shuffled_batches,
    synth_blobs,
    write_idx,
    write_manifest,
)


def hand_built_idx_pair(tmp_path):
    """Two 28x28 images written field by field per the IDX layout."""
    pixels = bytes(range(256)) * 7  # 1792 bytes heads the two 784-pixel images
    img0 = pixels[:784]
    img1 = pixels[784:1568]
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "lbls"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">i", 0x00000803))
        f.write(struct.pack(">i", 2))
        f.write(struct.pack(">i", 28))
        f.write(struct.pack(">i", 28))
        f.write(img0)
        f.write(img1)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">i", 0x00000801))
        f.write(struct.pack(">i", 2))
        f.write(bytes([9, 4]))
    expected = np.stack([
        np.frombuffer(img0, dtype=np.uint8),
        np.frombuffer(img1, dtype=np.uint8),
    ]).astype(np.float64) / 255.0
    return images_path, labels_path, expected


class TestLoadIdx:
    def test_hand_built_fixture_exact(self, tmp_path):
        images_path, labels_path, expected = hand_built_idx_pair(tmp_path)
        ds = load_idx(images_path, labels_path)
        assert ds.m == 2 and ds.d == 784 and ds.num_classes == 10
        assert np.array_equal(ds.features, expected)
        assert ds.labels.tolist() == [9, 4]

    def test_wrong_image_magic(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        raw = bytearray(images_path.read_bytes())
        raw[3] = 0x01  # labels magic in the images slot
        images_path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="wrong magic number"):
            load_idx(images_path, labels_path)

    def test_wrong_label_magic(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        raw = bytearray(labels_path.read_bytes())
        raw[3] = 0x03
        labels_path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="wrong magic number"):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        raw = bytearray(labels_path.read_bytes())
        raw[7] = 3  # claim 3 labels against 2 images
        labels_path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="does not match"):
            load_idx(images_path, labels_path)

    def test_truncated_pixels(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        images_path.write_bytes(images_path.read_bytes()[:-100])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(images_path, labels_path)

    def test_truncated_header(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        images_path.write_bytes(images_path.read_bytes()[:10])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(images_path, labels_path)

    def test_decode_holds_one_float_matrix(self, tmp_path):
        # one float64 matrix plus the raw bytes, never both of those and the
        # finiteness mask at once: holding the raw bytes through the Dataset
        # checks measured 1.11x
        m = 5000
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(m, 28, 28)).astype(np.uint8)
        write_idx(images, rng.integers(0, 10, size=m), tmp_path / "i", tmp_path / "l")
        tracemalloc.start()
        try:
            ds = load_idx(tmp_path / "i", tmp_path / "l")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw_bytes = images.size
        assert peak <= 1.05 * (ds.features.nbytes + raw_bytes)
        assert np.array_equal(ds.features, images.reshape(m, -1).astype(np.float64) / 255.0)

    def test_roundtrip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        write_idx(images, labels, tmp_path / "a-img", tmp_path / "a-lbl")
        ds = load_idx(tmp_path / "a-img", tmp_path / "a-lbl")
        back = np.round(ds.features * 255.0).astype(np.uint8).reshape(7, 28, 28)
        write_idx(back, ds.labels.astype(np.uint8), tmp_path / "b-img", tmp_path / "b-lbl")
        assert (tmp_path / "a-img").read_bytes() == (tmp_path / "b-img").read_bytes()
        assert (tmp_path / "a-lbl").read_bytes() == (tmp_path / "b-lbl").read_bytes()


class TestSynthBlobs:
    def test_balanced_labels(self):
        ds = synth_blobs(10, 2, 4, 1.0, seed=0)
        assert ds.m == 20
        assert (ds.labels == 0).sum() == 10 and (ds.labels == 1).sum() == 10

    def test_nearest_centroid_separates_far_blobs(self):
        ds = synth_blobs(30, 3, 3, 100.0, seed=1)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        dist = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(dist.argmin(axis=1), ds.labels)

    def test_deterministic_in_seed(self):
        a = synth_blobs(15, 4, 6, 2.0, seed=9)
        b = synth_blobs(15, 4, 6, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = synth_blobs(15, 4, 6, 2.0, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 2, 2, 1.0, seed=0)


def flat_dataset(m: int, num_classes: int = 10) -> Dataset:
    labels = np.arange(m) % num_classes
    return Dataset(np.zeros((m, 2)), labels, num_classes)


class TestMakePartition:
    def test_shared_pool_size(self):
        source = flat_dataset(60000)
        test = flat_dataset(100)
        part = make_partition(source, 4, 500, 100, seed=1, test=test)
        assert part.shared_indices.size == 60000 - 4 * 600
        assert all(t.m == 500 for t in part.train)
        assert all(v.m == 100 for v in part.val)

    def test_single_agent_consumes_everything(self):
        source = flat_dataset(1000)
        part = make_partition(source, 1, 900, 100, seed=1, test=flat_dataset(10))
        assert part.shared_indices.size == 0

    def test_disjoint_and_exhaustive(self):
        source = flat_dataset(500)
        part = make_partition(source, 3, 60, 40, seed=7, test=flat_dataset(10))
        blocks = list(part.train_indices) + list(part.val_indices) + [part.shared_indices]
        all_idx = np.concatenate(blocks)
        assert len(np.unique(all_idx)) == len(all_idx) == 500

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="source has only"):
            make_partition(flat_dataset(100), 4, 20, 10, seed=0, test=flat_dataset(5))

    def test_shared_pool_is_unlabeled_but_truth_retained(self):
        source = flat_dataset(200)
        part = make_partition(source, 2, 30, 20, seed=3, test=flat_dataset(5))
        # the pool is the source's bare feature array, not a copy: no label
        # is reachable through it
        assert type(part.source_features) is np.ndarray
        assert np.shares_memory(part.source_features, source.features)
        assert np.array_equal(part.shared_true_labels, source.labels[part.shared_indices])

    def test_partition_allocates_no_pool_copy(self):
        m, d = 20000, 784
        source = Dataset(np.zeros((m, d)), np.arange(m) % 10, 10)
        tracemalloc.start()
        try:
            part = make_partition(source, 2, 100, 50, seed=5, test=flat_dataset(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool_bytes = part.shared_indices.size * d * 8
        assert peak < 0.10 * pool_bytes

    def test_deterministic(self):
        source = flat_dataset(300)
        a = make_partition(source, 2, 40, 20, seed=11, test=flat_dataset(5))
        b = make_partition(source, 2, 40, 20, seed=11, test=flat_dataset(5))
        assert all(np.array_equal(x, y) for x, y in zip(a.train_indices, b.train_indices))
        assert np.array_equal(a.shared_indices, b.shared_indices)

    def test_manifest_written(self, tmp_path):
        part = make_partition(flat_dataset(100), 2, 20, 10, seed=2, test=flat_dataset(5))
        write_manifest(part, tmp_path / "manifest.txt")
        text = (tmp_path / "manifest.txt").read_text()
        assert text.startswith("agents 2\n")
        assert "[agent 1]" in text and "[shared]" in text

    def test_common_validation_block(self):
        source = flat_dataset(300)
        part = make_partition(source, 3, 40, 25, seed=4, test=flat_dataset(5),
                              common_val=True)
        assert all(np.array_equal(ix, part.val_indices[0]) for ix in part.val_indices)
        assert all(v.m == 25 for v in part.val)
        used = np.concatenate(list(part.train_indices) + [part.val_indices[0]])
        assert len(np.unique(used)) == len(used)
        assert part.shared_indices.size == 300 - 3 * 40 - 25
        assert not np.intersect1d(part.val_indices[0], part.shared_indices).size


class TestBatches:
    def test_final_short_batch_kept(self):
        sizes = [len(b) for b in shuffled_batches(25, 10, seed=0)]
        assert sizes == [10, 10, 5]

    def test_singletons_cover_all_indices(self):
        idx = shuffled_batches(5, 1, seed=1)
        assert sorted(np.concatenate(idx).tolist()) == [0, 1, 2, 3, 4]
        assert all(len(b) == 1 for b in idx)

    def test_deterministic_order(self):
        a = [b.tolist() for b in shuffled_batches(40, 7, seed=3)]
        b = [b.tolist() for b in shuffled_batches(40, 7, seed=3)]
        assert a == b

    def test_epoch_visits_each_index_once(self):
        for seed in range(5):
            idx = np.concatenate(shuffled_batches(101, 8, seed=seed))
            assert sorted(idx.tolist()) == list(range(101))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            shuffled_batches(0, 4, seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.nan, 1.0]]), None, 2)
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0]), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_each_non_finite_value(bad):
    feats = np.zeros((4, 3))
    feats[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(feats, None, 2)
    feats[0, 0] = -bad  # +inf with -inf, NaN with NaN
    with pytest.raises(ValueError, match="finite"):
        Dataset(feats, np.zeros(4, dtype=int), 2)
    assert Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2).m == 0


def test_finiteness_check_allocates_no_mask():
    feats = np.random.default_rng(7).random((5000, 784))
    tracemalloc.start()
    try:
        Dataset(feats, None, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000  # an m x d boolean mask is 3.92 MB here
