"""Datasets, IDX file loading, synthetic data, and per-agent partitioning.

A partition splits one labeled source corpus into disjoint per-agent
train/validation sets plus a shared unlabeled pool; the pool's true labels
are withheld from training and kept only for diagnostics. The pool is not
copied: it is a set of row indices into the source's feature matrix, which
the partition holds by reference without the source's labels.

Features are float64, or uint8 for an IDX corpus: the file's pixel bytes,
each byte b standing for the value b / 255. `load_idx` reads no pixel
bytes: its features are an `IdxRows`, which reads the rows a gather asks
for from the open images file, so no process holds a copy of the training
or the test images. `decode` is the one place the byte scale is applied;
the training loop, the evaluation loop and the collective engine call it on
each batch or chunk they gather, so no float64 copy of a whole IDX corpus
is ever made.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .seeding import rng_for

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file does not parse as expected."""


def decode(x: np.ndarray, dtype=np.float64, out: np.ndarray | None = None) -> np.ndarray:
    """Feature rows as `dtype` values: uint8 pixel bytes are scaled by 1/255
    into a new array, float64 rows are returned as they are (or rounded to
    `dtype` into a new array). With `out`, an array of x's shape and of
    `dtype`, the values are written there and `out` is returned.

    The cast from uint8 is exact and the divide correctly rounded in
    `dtype`, so each float64 element is the double that
    `x.astype(np.float64) / 255.0` gives, and each float32 one is the
    nearest float32 to byte / 255.
    """
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, dtype=dtype, out=out)
    if out is None:
        return x.astype(dtype, copy=False)
    np.copyto(out, x, casting="same_kind")
    return out


class IdxRows:
    """The (m, d) uint8 pixel rows of an IDX images file, read from the file,
    held open, when they are indexed; no row is held in memory.

    An integer or an integer array selects rows as it would on an ndarray,
    and the rows are read into one new C-contiguous uint8 array, by one
    `os.preadv` per run of consecutive rows; `read` fills a caller's array
    with a run of rows instead. Before each read the file's size and
    modification time are compared with those taken at load, so a file
    truncated or rewritten in place since, like a short read, raises an
    IdxFormatError naming it. A file replaced by rename is still read
    through the open descriptor, which closes when this object is collected.
    Rows cannot be assigned.
    """

    dtype = np.dtype(np.uint8)
    ndim = 2

    def __init__(self, path: Path, fd: int, offset: int, m: int, d: int):
        self.path, self.shape = path, (m, d)
        self._fd, self._offset = fd, offset
        self._stamp = _stamp(fd)
        weakref.finalize(self, os.close, fd)

    def __getitem__(self, key) -> np.ndarray:
        m, d = self.shape
        rows = np.asarray(key)
        if isinstance(key, tuple) or rows.dtype.kind not in "iu":
            raise IndexError(f"{self.path}: rows are selected by an integer or an integer "
                             f"array, got {key!r}")
        if rows.size and (rows.min() < -m or rows.max() >= m):
            raise IndexError(f"{self.path}: row index out of range for {m} rows")
        rows = rows.astype(np.int64) % m  # with m = 0 there are no rows to divide
        flat = rows.reshape(-1).tolist()
        out = np.empty((len(flat), d), dtype=np.uint8)
        self._check()
        # a run of consecutive rows ends at a row that the next does not follow
        start = 0
        for end, (row, after) in enumerate(zip(flat, flat[1:] + [None]), 1):
            if after != row + 1:
                self._read(out[start:end], flat[start])
                start = end
        return out.reshape(rows.shape + (d,))

    def read(self, start: int, out: np.ndarray) -> np.ndarray:
        """`out`, a C-contiguous uint8 array of whole rows, filled with the
        rows from `start` on by one `os.preadv`, so that a caller reading one
        chunk after another reuses its buffer."""
        self._check()
        self._read(out, start)
        return out

    def _check(self) -> None:
        if _stamp(self._fd) != self._stamp:
            raise IdxFormatError(f"{self.path}: file changed since it was loaded")

    def _read(self, out: np.ndarray, row: int) -> None:
        """Fill `out`, consecutive rows from `row` on, by one `os.preadv`."""
        offset = self._offset + row * self.shape[1]
        got = os.preadv(self._fd, [out], offset)
        if got != out.nbytes:
            raise IdxFormatError(f"{self.path}: short read of {got} bytes at offset "
                                 f"{offset}, expected {out.nbytes}")


def _stamp(fd: int) -> tuple[int, int]:
    st = os.fstat(fd)
    return st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with class labels: the one labeled-set type.

    `features` is float64, or uint8 pixel bytes whose values are `decode`d
    a batch at a time by the code that consumes them: an in-memory array,
    or the `IdxRows` of an images file, which is taken as it is and read
    only by indexing. A byte matrix is finite by construction and is not
    scanned. Features of any other dtype become float64.
    """

    features: np.ndarray | IdxRows  # (m, d) float64, or uint8 bytes standing for byte / 255
    labels: np.ndarray  # (m,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        feats = self.features
        if not isinstance(feats, IdxRows):
            feats = np.asarray(feats)
            if feats.dtype != np.uint8:
                feats = feats.astype(np.float64, copy=False)
            feats = np.ascontiguousarray(feats)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        # min and max propagate NaN and +-inf, and allocate no m x d mask
        if (feats.dtype != np.uint8 and feats.size
                and not (np.isfinite(feats.min()) and np.isfinite(feats.max()))):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {feats.shape[0]} rows")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def _open_idx(path: Path):
    """`path` opened for reading bytes; a file that cannot be opened raises
    an IdxFormatError naming it."""
    try:
        return open(path, "rb")
    except OSError as e:
        raise IdxFormatError(f"{path}: cannot read: {e.strerror}") from e


def _held(f, count: int) -> int:
    """The bytes the file holds past its read position, at most `count`."""
    return min(count, os.fstat(f.fileno()).st_size - f.tell())


def _expect(got: int, count: int, path: Path, what: str) -> None:
    if got != count:
        raise IdxFormatError(
            f"{path}: truncated file, expected {count} more bytes for {what}, got {got}"
        )


def _read_exact(f, count: int, path: Path, what: str) -> bytes:
    # at most what the file holds, so that a header claiming more fails here
    # instead of allocating for it
    data = f.read(_held(f, count))
    _expect(len(data), count, path, what)
    return data


def _read_be32(f, path: Path, what: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path, what))[0]


def _read_count(f, path: Path, magic: int, item: str) -> int:
    """The item count of an IDX file's header, once its magic number and the
    count's sign check."""
    found = _read_be32(f, path, "magic number")
    if found != magic:
        raise IdxFormatError(
            f"{path}: wrong magic number 0x{found:08x} (expected 0x{magic:08x} for {item}s)"
        )
    count = _read_be32(f, path, f"{item} count")
    if count < 0:
        raise IdxFormatError(f"{path}: {item} count {count} is negative")
    return count


def idx_count(images_path) -> int:
    """The image count in an IDX images file's header; the pixels are not read."""
    images_path = Path(images_path)
    with _open_idx(images_path) as f:
        return _read_count(f, images_path, IDX_IMAGES_MAGIC, "image")


def load_idx(images_path, labels_path, num_classes: int = 10) -> Dataset:
    """Load an IDX image/label file pair (the Fashion-MNIST wire format).

    Images are flattened row-major to feature vectors of uint8 bytes,
    which are not read here: the features are an `IdxRows` over the images
    file, which reads the rows a gather selects, so no copy of the images
    is held and a stray in-place write raises. Their values are byte / 255,
    applied per batch by `decode`. The header and the labels are read and
    checked here, and the file's size checked against the header. A file
    that cannot be opened, an image of no pixels, or a label outside
    [0, num_classes), raises an IdxFormatError naming its file.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with _open_idx(images_path) as f:
        m = _read_count(f, images_path, IDX_IMAGES_MAGIC, "image")
        rows = _read_be32(f, images_path, "row count")
        cols = _read_be32(f, images_path, "column count")
        if rows < 1 or cols < 1:
            raise IdxFormatError(f"{images_path}: images of {rows}x{cols} pixels; "
                                 "rows and columns must be >= 1")
        _expect(_held(f, m * rows * cols), m * rows * cols, images_path, "pixel data")
        features = IdxRows(images_path, os.dup(f.fileno()), f.tell(), m, rows * cols)
    with _open_idx(labels_path) as f:
        m_labels = _read_count(f, labels_path, IDX_LABELS_MAGIC, "label")
        if m_labels != m:
            raise IdxFormatError(
                f"label count {m_labels} in {labels_path} does not match "
                f"image count {m} in {images_path}"
            )
        raw_labels = _read_exact(f, m_labels, labels_path, "label data")

    labels = np.frombuffer(raw_labels, dtype=np.uint8)
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise IdxFormatError(f"{labels_path}: label {labels[bad[0]]} of item {bad[0]} "
                             f"is not in [0, {num_classes})")
    return Dataset(features, labels.astype(np.int64), num_classes)


def load_idx_corpus(train_images, train_labels, test_images,
                    test_labels) -> tuple[Dataset, Dataset]:
    """The (train, test) pair of two `load_idx` file pairs. Both sets' images
    stay in their files: an evaluation reads the test rows one chunk at a
    time, as it scores them. Test images that are missing or of another
    size than the training images raise an IdxFormatError naming both
    images files, before any training."""
    train = load_idx(train_images, train_labels)
    test = load_idx(test_images, test_labels)
    if test.m == 0 or test.d != train.d:
        found = "no images" if test.m == 0 else f"images of {test.d} pixels"
        raise IdxFormatError(f"{test_images}: {found}, but the training images in "
                             f"{train_images} have {train.d} pixels each")
    return train, test


def _as_bytes(name: str, values) -> np.ndarray:
    """`values` as uint8. Unless they are uint8 already, each must be an
    integer in [0, 255]; the first that is not raises a ValueError naming
    `name`, the value and its flat index."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    flat = values.reshape(-1)
    ok = (flat >= 0) & (flat <= 255) & (flat == np.trunc(flat))
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ValueError(f"{name}: value {flat[i]} at flat index {i} is not an integer in [0, 255]")
    return values.astype(np.uint8)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write images (m, rows, cols) and labels (m,) as an IDX pair. Every
    value must be an integer in [0, 255]; the files are opened only after
    the checks pass."""
    images = _as_bytes("images", images)
    labels = _as_bytes("labels", labels)
    if images.ndim != 3:
        raise ValueError(f"images must be (m, rows, cols), got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels length must match image count")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def synth_blobs(
    n_per_class: int, num_classes: int, d: int, separation: float, seed: int
) -> Dataset:
    """Gaussian blobs: class c has unit variance around separation * e_{c mod d}."""
    rng = rng_for(seed, "synth-blobs")
    m = n_per_class * num_classes
    features = rng.standard_normal((m, d))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    for c in range(num_classes):
        features[labels == c, c % d] += separation
    return Dataset(features, labels, num_classes)


@dataclass(frozen=True)
class Partition:
    """Per-agent labeled splits plus the shared unlabeled pool and test set.

    The pool is `source_features[shared_indices]`: `source_features` is the
    source corpus's feature matrix itself, shared rather than copied (for
    an IDX corpus, its `IdxRows`, which reads each batch's rows from the
    file), and the engine gathers and `decode`s one batch of pool rows at a
    time. The per-agent train and validation sets are in-memory copies of
    their rows. The test set is the corpus's own, shared as well: for an
    IDX corpus its features are the test file's `IdxRows`, which each
    evaluation reads one chunk at a time. The pool's features carry no
    labels; its true labels live only in `shared_true_labels` and are
    consumed exclusively by the diagnostics channel that measures
    proxy-label correctness.
    """

    train: tuple[Dataset, ...]
    val: tuple[Dataset, ...]
    source_features: np.ndarray | IdxRows  # (m_source, d), read only through shared_indices
    shared_true_labels: np.ndarray
    test: Dataset
    train_indices: tuple[np.ndarray, ...]
    val_indices: tuple[np.ndarray, ...]
    shared_indices: np.ndarray

    @property
    def n_agents(self) -> int:
        return len(self.train)


def make_partition(
    source: Dataset,
    n_agents: int,
    train_size_per_agent: int,
    val_size_per_agent: int,
    seed: int,
    test: Dataset,
    common_val: bool = False,
) -> Partition:
    """Uniformly sample disjoint per-agent train/val sets; the rest becomes
    the shared unlabeled pool.

    With common_val, one validation block is drawn and every agent scores
    against it (per-agent disjoint sets otherwise).

    The sizes are taken as checked: the config's partition fields are >= 1,
    and `harness.check_partition` fits them to the corpus before a run.
    """
    n_val_blocks = 1 if common_val else n_agents
    needed = n_agents * train_size_per_agent + n_val_blocks * val_size_per_agent
    perm = rng_for(seed, "partition").permutation(source.m)
    train_idx = [
        np.sort(perm[i * train_size_per_agent : (i + 1) * train_size_per_agent])
        for i in range(n_agents)
    ]
    off = n_agents * train_size_per_agent
    if common_val:
        block = np.sort(perm[off : off + val_size_per_agent])
        val_idx = [block] * n_agents
    else:
        val_idx = [
            np.sort(perm[off + i * val_size_per_agent : off + (i + 1) * val_size_per_agent])
            for i in range(n_agents)
        ]
    shared_idx = np.sort(perm[needed:])
    return Partition(
        train=tuple(source.subset(ix) for ix in train_idx),
        val=tuple(source.subset(ix) for ix in val_idx),
        source_features=source.features,
        shared_true_labels=source.labels[shared_idx],
        test=test,
        train_indices=tuple(train_idx),
        val_indices=tuple(val_idx),
        shared_indices=shared_idx,
    )


def write_manifest(partition: Partition, path) -> None:
    """Dump the partition's index assignment as a reproducibility record."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"agents {partition.n_agents}\n")
        for i in range(partition.n_agents):
            f.write(f"[agent {i}]\n")
            f.write("train " + " ".join(map(str, partition.train_indices[i])) + "\n")
            f.write("val " + " ".join(map(str, partition.val_indices[i])) + "\n")
        f.write("[shared]\n")
        f.write(" ".join(map(str, partition.shared_indices)) + "\n")


def shuffled_batches(m: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Index arrays for one pass in the order of a permutation drawn from
    `rng`; the final short batch is kept."""
    if m < 1:
        raise ValueError("cannot batch an empty set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(m)
    return [perm[s : s + batch_size] for s in range(0, m, batch_size)]


def epoch_batches(m: int, batch_size: int, epochs: int, seed, stream: str,
                  cap: int | None = None) -> Iterator[np.ndarray]:
    """The one minibatch stream: `epochs` shuffled passes over m samples,
    epoch e in the order of rng_for(seed, stream, e), stopped after `cap`
    batches when given. An epoch's order is drawn when its first batch is."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    batches = (idx for e in range(epochs)
               for idx in shuffled_batches(m, batch_size, rng_for(seed, stream, e)))
    # zip stops when the range ends, before it draws another batch
    return batches if cap is None else (idx for _, idx in zip(range(cap), batches))
