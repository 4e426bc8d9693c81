"""IDX parsing, synthetic data, partitioning, and batching."""

import dataclasses
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from colearn import harness, learner
from colearn.config import IdxSpec
from colearn.data import (
    Dataset,
    IdxFormatError,
    IdxRows,
    decode,
    epoch_batches,
    idx_count,
    load_idx,
    make_partition,
    shuffled_batches,
    synth_blobs,
    write_idx,
    write_manifest,
)
from colearn.parallel import AgentPool
from colearn.seeding import rng_for

from conftest import (
    FMNIST_NAMES, blob_config, every_row, first_layer, first_layers, synthetic_idx_dataset,
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
        assert ds.features.dtype == np.uint8
        assert decode(every_row(ds.features)).tobytes() == expected.tobytes()
        assert ds.labels.tolist() == [9, 4]

    def test_features_are_read_only(self, tmp_path):
        ds = load_idx(*hand_built_idx_pair(tmp_path)[:2])
        with pytest.raises(TypeError, match="does not support item assignment"):
            ds.features[0, 0] = 1
        # a read is a new array: writing to it leaves the corpus as it was
        rows = every_row(ds.features)
        rows[0, 0] = 1
        assert every_row(ds.features)[0, 0] == 0

    def test_decode_every_byte_value(self):
        want = np.arange(256) / 255.0
        got = decode(np.arange(256, dtype=np.uint8))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_decode_passes_float_rows_through(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert decode(x) is x

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

    def test_idx_count_reads_only_the_header(self, tmp_path):
        images_path, _, _ = hand_built_idx_pair(tmp_path)
        images_path.write_bytes(images_path.read_bytes()[:8])  # magic and count
        assert idx_count(images_path) == 2

    def test_idx_count_bad_header(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        with pytest.raises(IdxFormatError, match="wrong magic number"):
            idx_count(labels_path)
        images_path.write_bytes(images_path.read_bytes()[:6])
        with pytest.raises(IdxFormatError, match="truncated"):
            idx_count(images_path)

    def test_load_holds_only_the_file_bytes(self, tmp_path):
        # the pixel bytes as read, plus each label as one raw byte and one
        # int64: no float64 copy of the images (a float64 decode measured
        # about 9x this bound)
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
        assert peak <= 1.05 * (images.size + 9 * m)
        assert np.array_equal(every_row(ds.features), images.reshape(m, -1))

    def test_roundtrip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        write_idx(images, labels, tmp_path / "a-img", tmp_path / "a-lbl")
        ds = load_idx(tmp_path / "a-img", tmp_path / "a-lbl")
        assert every_row(ds.features).tobytes() == images.tobytes()
        write_idx(
            every_row(ds.features).reshape(7, 28, 28), ds.labels.astype(np.uint8),
            tmp_path / "b-img", tmp_path / "b-lbl",
        )
        assert (tmp_path / "a-img").read_bytes() == (tmp_path / "b-img").read_bytes()
        assert (tmp_path / "a-lbl").read_bytes() == (tmp_path / "b-lbl").read_bytes()


class TestIdxRows:
    """The training images stay in their file: a gather reads its rows."""

    def test_capped_cl_run_reads_the_rows_it_uses(self, tmp_path, monkeypatch):
        # the partition's train and val rows, one batch of shared-pool rows
        # per iteration, the whole test file for each agent at each
        # emission, and again the rows its screen left open; on each first
        # layer
        synthetic_idx_dataset(tmp_path, m_train=300, m_test=40, seed=3)
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        config = dataclasses.replace(
            blob_config(train_size=20, val_size=10, self_train_epochs=1, max_iterations=7,
                        architectures=("SHL", "SHL")),
            dataset=spec,
        )
        read = []
        preadv = os.preadv

        def counted(fd, buffers, offset):
            read.append(preadv(fd, buffers, offset))
            return read[-1]

        monkeypatch.setattr(os, "preadv", counted)
        reread = []
        rescore = learner._rescore
        # (arch, theta, norms, x, y, rows): the test set's rows are read again
        monkeypatch.setattr(learner, "_rescore", lambda *args: reread.append(
            len(args[5]) if isinstance(args[3], IdxRows) else 0) or rescore(*args))
        for path in first_layers():
            read.clear()
            reread.clear()
            with first_layer(path):
                out = harness.run_mode(config, 0)
            assert out.stats["iterations"] == 7
            assert sorted({r.iteration for r in out.records}) == [0, 7]
            rows = 2 * (20 + 10) + 7 * config.collective.batch_size + 2 * 2 * 40 + sum(reread)
            assert sum(read) == rows * 784, path
            # each emission reads the test rows in one call per agent
            assert read.count(40 * 784) == 2 * 2, path

    def test_rows_are_selected_as_on_an_ndarray(self, tmp_path):
        pixels = np.random.default_rng(4).integers(0, 256, size=(300, 2, 2)).astype(np.uint8)
        write_idx(pixels, np.zeros(300), tmp_path / "i", tmp_path / "l")
        rows, pixels = load_idx(tmp_path / "i", tmp_path / "l").features, pixels.reshape(300, 4)
        for key in [1, -2, np.uint8(0), np.arange(299, -1, -1), np.arange(295, 300),
                    [1, 1, 0], np.array([[-1, 0], [0, 1]]), np.array([], dtype=np.int64),
                    np.array([255, 3], dtype=np.uint8)]:
            got, want = rows[key], pixels[key]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
        # a tuple selects an element of an ndarray, not two rows; rows are not sliced
        for key in [(0, 0), 0.0, [True, False], 300, -301, slice(None)]:
            with pytest.raises(IndexError):
                rows[key]

    def test_a_slice_is_one_read(self, tmp_path, monkeypatch):
        # 1024 consecutive rows, gathered by index or read into a caller's
        # buffer as an evaluation chunk is
        synthetic_idx_dataset(tmp_path, m_train=1100, m_test=10, seed=3)
        images_path = tmp_path / FMNIST_NAMES[0]
        ds = load_idx(images_path, tmp_path / FMNIST_NAMES[1])
        whole = np.frombuffer(images_path.read_bytes()[16:], np.uint8).reshape(1100, 784)
        calls = []
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda *args: calls.append(args) or preadv(*args))
        got = ds.features[np.arange(50, 1074)]
        assert len(calls) == 1
        assert got.shape == (1024, 784) and got.tobytes() == whole[50:1074].tobytes()
        buf = np.empty((1024, 784), dtype=np.uint8)
        assert ds.features.read(50, buf) is buf and len(calls) == 2
        assert buf.tobytes() == whole[50:1074].tobytes()

    @pytest.mark.parametrize("change", ["truncate", "rewrite"])
    def test_file_changed_in_place_fails_the_next_gather(self, tmp_path, change):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        ds = load_idx(images_path, labels_path)
        if change == "truncate":
            os.truncate(images_path, 16 + 784)
        else:
            with open(images_path, "r+b") as f:
                f.seek(16)
                f.write(bytes(784))
            # a rewrite within one tick of the file system clock could leave
            # the modification time as it was; move it a second on
            st = os.stat(images_path)
            os.utime(images_path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        with pytest.raises(IdxFormatError, match=re.escape(f"{images_path}: file changed")):
            ds.features[[1]]
        with pytest.raises(IdxFormatError, match=re.escape(f"{images_path}: file changed")):
            ds.features.read(0, np.empty((1, 784), dtype=np.uint8))

    def test_file_replaced_by_rename_keeps_its_loaded_bytes(self, tmp_path):
        images_path, labels_path, _ = hand_built_idx_pair(tmp_path)
        ds = load_idx(images_path, labels_path)
        want = every_row(ds.features)
        write_idx(np.zeros((2, 28, 28), np.uint8), [0, 0], tmp_path / "i", tmp_path / "l")
        os.replace(tmp_path / "i", images_path)
        assert every_row(ds.features).tobytes() == want.tobytes()
        assert not every_row(load_idx(images_path, labels_path).features).any()

    def test_dropped_corpora_close_their_files(self, tmp_path):
        synthetic_idx_dataset(tmp_path, m_train=50, m_test=10, seed=3)
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        harness._load_corpus.cache_clear()
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            harness._load_corpus(spec, 1)
            harness._load_corpus.cache_clear()
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_gathers_from_pool_threads_match_a_whole_file_read(self, tmp_path):
        synthetic_idx_dataset(tmp_path, m_train=500, m_test=10, seed=3)
        images_path = tmp_path / FMNIST_NAMES[0]
        ds = load_idx(images_path, tmp_path / FMNIST_NAMES[1])
        whole = np.frombuffer(images_path.read_bytes()[16:], np.uint8).reshape(500, 784)
        # shuffled batches, and sorted ones whose neighbouring rows are read together
        batches = [rng_for(s, "gather").permutation(500)[: 10 + 7 * s] for s in range(40)]
        batches += [np.sort(idx) for idx in batches]
        with AgentPool(2) as pool:
            got = pool.map(lambda idx: ds.features[idx], batches)
        assert all(g.tobytes() == whole[idx].tobytes() for g, idx in zip(got, batches))


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


def _order(seed):
    return rng_for(seed, "batch-order")


class TestBatches:
    def test_final_short_batch_kept(self):
        sizes = [len(b) for b in shuffled_batches(25, 10, _order(0))]
        assert sizes == [10, 10, 5]

    def test_singletons_cover_all_indices(self):
        idx = shuffled_batches(5, 1, _order(1))
        assert sorted(np.concatenate(idx).tolist()) == [0, 1, 2, 3, 4]
        assert all(len(b) == 1 for b in idx)

    def test_deterministic_order(self):
        a = [b.tolist() for b in shuffled_batches(40, 7, _order(3))]
        b = [b.tolist() for b in shuffled_batches(40, 7, _order(3))]
        assert a == b

    def test_epoch_visits_each_index_once(self):
        for seed in range(5):
            idx = np.concatenate(shuffled_batches(101, 8, _order(seed)))
            assert sorted(idx.tolist()) == list(range(101))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            shuffled_batches(0, 4, _order(0))

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            shuffled_batches(5, 0, _order(0))


class TestEpochBatches:
    @staticmethod
    def _chained(m, b, epochs, seed, stream):
        return [idx.tolist() for e in range(epochs)
                for idx in shuffled_batches(m, b, rng_for(seed, stream, e))]

    @pytest.mark.parametrize("cap", [None, 0, 1, 3, 4, 5, 9, 10**30])
    def test_chains_epochs_and_stops_at_cap(self, cap):
        # 10 samples in batches of 4: 3 per epoch, so caps 3 and 4 fall on
        # and just past an epoch boundary, 9 is all 3 epochs and 10**30 more
        want = self._chained(10, 4, 3, 7, "s")
        got = [idx.tolist() for idx in epoch_batches(10, 4, 3, 7, "s", cap)]
        assert got == want[:cap]

    def test_stream_names_the_orders(self):
        a = [i.tolist() for i in epoch_batches(30, 30, 2, 1, "a")]
        b = [i.tolist() for i in epoch_batches(30, 30, 2, 1, "b")]
        assert a == self._chained(30, 30, 2, 1, "a") and a != b

    def test_zero_epochs_draw_nothing(self):
        # an empty set is only an error once a batch is drawn from it
        assert list(epoch_batches(0, 4, 0, 1, "s")) == []
        assert list(epoch_batches(0, 4, 2, 1, "s", cap=0)) == []

    @pytest.mark.parametrize("epochs, cap", [(-1, None), (1, -1)])
    def test_negative_counts_rejected(self, epochs, cap):
        with pytest.raises(ValueError):
            epoch_batches(10, 4, epochs, 1, "s", cap)


def test_dataset_validation():
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0]), 2)
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0]), 3)
    with pytest.raises(ValueError, match=r"features must be 2-D, got shape \(2,\)"):
        Dataset(np.zeros(2), np.array([0, 1]), 3)
    with pytest.raises(ValueError, match="num_classes must be >= 1, got 0"):
        Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), 0)


def test_write_idx_rejects_bad_shapes(tmp_path):
    paths = tmp_path / "img", tmp_path / "lbl"
    with pytest.raises(ValueError, match=r"images must be \(m, rows, cols\)"):
        write_idx(np.zeros((3, 4)), np.zeros(3), *paths)
    with pytest.raises(ValueError, match="labels length must match image count"):
        write_idx(np.zeros((3, 2, 2)), np.zeros(2), *paths)
    assert not paths[0].exists() and not paths[1].exists()


@pytest.mark.parametrize("images, labels, message", [
    (np.array([-1, 300]).reshape(1, 1, 2), [0], r"images: value -1 at flat index 0 "),
    (np.array([[[0, 0], [0.7, 0]]]), [0], r"images: value 0\.7 at flat index 2 "),
    (np.array([[[0, np.nan]]]), [0], r"images: value nan at flat index 1 "),
    ([[[0, -1]]], [0], r"images: value -1 at flat index 1 "),
    (np.zeros((2, 1, 1), np.uint8), [3, 256], r"labels: value 256 at flat index 1 "),
])
def test_write_idx_rejects_values_outside_bytes(tmp_path, images, labels, message):
    # uint8 would wrap -1 to 255 and 300 to 44, and truncate 0.7 to 0
    paths = tmp_path / "img", tmp_path / "lbl"
    with pytest.raises(ValueError, match=message + r"is not an integer in \[0, 255\]"):
        write_idx(images, labels, *paths)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_each_non_finite_value(bad):
    feats = np.zeros((4, 3))
    feats[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(feats, np.zeros(4, dtype=int), 2)
    feats[0, 0] = -bad  # +inf with -inf, NaN with NaN
    with pytest.raises(ValueError, match="finite"):
        Dataset(feats, np.zeros(4, dtype=int), 2)
    assert Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2).m == 0


def test_finiteness_check_allocates_no_mask():
    feats = np.random.default_rng(7).random((5000, 784))
    labels = np.zeros(5000, dtype=np.int64)
    tracemalloc.start()
    try:
        Dataset(feats, labels, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000  # an m x d boolean mask is 3.92 MB here


def test_dataset_keeps_pixel_bytes():
    pixels = np.arange(12, dtype=np.uint8).reshape(4, 3)
    ds = Dataset(pixels, np.arange(4) % 2, 2)
    assert ds.features is pixels
    part = ds.subset([3, 1])
    assert part.features.dtype == np.uint8
    assert np.array_equal(part.features, pixels[[3, 1]])
    # other integer features are values, not bytes
    assert Dataset(pixels.astype(np.int64), np.zeros(4), 2).features.dtype == np.float64
