"""Datasets, IDX file loading, synthetic data, and per-agent partitioning.

A partition splits one labeled source corpus into disjoint per-agent
train/validation sets plus a shared unlabeled pool; the pool's true labels
are withheld from training and kept only for diagnostics. The pool is not
copied: it is a set of row indices into the source's feature matrix, which
the partition holds by reference without the source's labels.

Features are float64, or uint8 for an IDX corpus: a uint8 matrix holds the
file's pixel bytes, and each byte b stands for the value b / 255. `decode`
is the one place that scale is applied; the training loop, the evaluation
loop and the collective engine call it on each batch they gather, so no
float64 copy of a whole IDX corpus is ever made.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import rng_for

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file does not parse as expected."""


def as_features(x) -> np.ndarray:
    """`x` as a feature array: uint8 pixel bytes stay bytes, anything else
    becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.uint8 else np.asarray(x, dtype=np.float64)


def decode(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Feature rows as `dtype` values: uint8 pixel bytes are scaled by 1/255
    into a new array, float64 rows are returned as they are (or rounded to
    `dtype` into a new array).

    The cast from uint8 is exact and the divide correctly rounded in
    `dtype`, so each float64 element is the double that
    `x.astype(np.float64) / 255.0` gives, and each float32 one is the
    nearest float32 to byte / 255.
    """
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, dtype=dtype)
    return x.astype(dtype, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional class labels.

    `features` is float64, or uint8 pixel bytes whose values are `decode`d
    a batch at a time by the code that consumes them; a byte matrix is
    finite by construction and is not scanned.
    """

    features: np.ndarray  # (m, d) float64, or uint8 bytes standing for byte / 255
    labels: np.ndarray | None  # (m,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(as_features(self.features))
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        # min and max propagate NaN and +-inf, and allocate no m x d mask
        if (feats.dtype != np.uint8 and feats.size
                and not (np.isfinite(feats.min()) and np.isfinite(feats.max()))):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
            if labels.shape != (feats.shape[0],):
                raise ValueError(
                    f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
                )
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise ValueError(f"labels must lie in [0, {self.num_classes})")
            object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.features[indices], labels, self.num_classes)


def _read_exact(f, count: int, path: Path, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated file, expected {count} more bytes for {what}, got {len(data)}"
        )
    return data


def _read_be32(f, path: Path, what: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path, what))[0]


def load_idx(images_path, labels_path, num_classes: int = 10) -> Dataset:
    """Load an IDX image/label file pair (the Fashion-MNIST wire format).

    Images are flattened row-major to feature vectors and kept as the
    uint8 bytes read from the file, in a read-only array over the read
    buffer: no float64 copy is made, and a stray in-place write raises
    instead of corrupting the corpus. Their values are byte / 255, applied
    per batch by `decode`.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path, "magic number")
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: wrong magic number 0x{magic:08x} "
                f"(expected 0x{IDX_IMAGES_MAGIC:08x} for images)"
            )
        m = _read_be32(f, images_path, "image count")
        rows = _read_be32(f, images_path, "row count")
        cols = _read_be32(f, images_path, "column count")
        raw = _read_exact(f, m * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path, "magic number")
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: wrong magic number 0x{magic:08x} "
                f"(expected 0x{IDX_LABELS_MAGIC:08x} for labels)"
            )
        m_labels = _read_be32(f, labels_path, "label count")
        if m_labels != m:
            raise IdxFormatError(
                f"label count {m_labels} in {labels_path} does not match "
                f"image count {m} in {images_path}"
            )
        raw_labels = _read_exact(f, m_labels, labels_path, "label data")

    features = np.frombuffer(raw, dtype=np.uint8).reshape(m, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, num_classes)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write uint8 images (m, rows, cols) and labels (m,) as an IDX pair."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
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
    if n_per_class < 1 or num_classes < 1 or d < 1:
        raise ValueError("n_per_class, num_classes and d must be positive")
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
    source corpus's feature matrix itself, shared rather than copied, and the
    engine gathers and `decode`s one batch of pool rows at a time. It is a
    bare array, so no label is reachable through it; the pool's true labels
    live only in `shared_true_labels` and are consumed exclusively by the
    diagnostics channel that measures proxy-label correctness.
    """

    train: tuple[Dataset, ...]
    val: tuple[Dataset, ...]
    source_features: np.ndarray  # (m_source, d) as stored, read only through shared_indices
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
    """
    if source.labels is None:
        raise ValueError("source corpus must be labeled")
    if test.labels is None:
        raise ValueError("test set must be labeled")
    if n_agents < 1 or train_size_per_agent < 1 or val_size_per_agent < 1:
        raise ValueError("n_agents and per-agent sizes must be positive")
    n_val_blocks = 1 if common_val else n_agents
    needed = n_agents * train_size_per_agent + n_val_blocks * val_size_per_agent
    if needed > source.m:
        raise ValueError(
            f"need {needed} samples for {n_agents} agents "
            f"({train_size_per_agent} train + {val_size_per_agent} val each) "
            f"but source has only {source.m}"
        )
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


def shuffled_batches(m: int, batch_size: int, seed) -> list[np.ndarray]:
    """Index arrays for one shuffled pass; the final short batch is kept.

    `seed` may be an int or a numpy Generator.
    """
    if m < 1:
        raise ValueError("cannot batch an empty set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed, "batch-order")
    perm = rng.permutation(m)
    return [perm[s : s + batch_size] for s in range(0, m, batch_size)]
