"""A Fashion-MNIST-shaped stand-in corpus with overlapping classes.

The benchmark writes 28x28 uint8 IDX files (60,000 train and 10,000 test
images) so that runs read them through ``colearn.data.load_idx``, exactly as
they would read the real corpus. Every image is its class prototype pulled
part of the way towards a second, random class and covered in pixel noise,
so the classes overlap and agents stay below an accuracy of 1.0: the quality
metrics can then fall when something breaks.

The overlap is kept below the point where the collective phase of
``table1_cl.yaml`` (gamma 100, two self-training epochs) collapses. With
images pulled up to 60% of the way to another class, agents start near 0.82
accuracy, and in four of six seeded trials every agent fell to chance (0.10)
within 200 iterations, all agreeing on one class. At the settings below the
final accuracies over 30 seeds lay between 0.94 and 0.995.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

IDX_NAMES = (
    "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
)
M_TRAIN = 60_000
M_TEST = 10_000
SIDE = 28
NUM_CLASSES = 10
CHUNK = 5_000  # images rendered at a time, to keep the float buffers small

MAX_PULL = 0.45  # largest share of the way an image moves towards another class
NOISE = 60.0  # pixel noise standard deviation, on the 0..255 scale
LIT = 0.4  # share of lit cells in a prototype; the rest is dark background


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """One blocky 28x28 pattern per class: a 7x7 grid of dark and lit cells,
    upsampled 4x."""
    lit = rng.uniform(size=(NUM_CLASSES, 7, 7)) < LIT
    coarse = lit * rng.uniform(150.0, 255.0, size=(NUM_CLASSES, 7, 7))
    return coarse.repeat(4, axis=1).repeat(4, axis=2).reshape(NUM_CLASSES, -1).astype(np.float32)


def _render(rng: np.random.Generator, protos: np.ndarray, count: int):
    labels = rng.integers(0, NUM_CLASSES, size=count)
    images = np.empty((count, SIDE * SIDE), dtype=np.uint8)
    for s in range(0, count, CHUNK):
        y = labels[s : s + CHUNK]
        other = (y + rng.integers(1, NUM_CLASSES, size=y.shape[0])) % NUM_CLASSES
        pull = rng.uniform(0.0, MAX_PULL, size=(y.shape[0], 1)).astype(np.float32)
        block = protos[y] + pull * (protos[other] - protos[y])
        block += NOISE * rng.standard_normal(block.shape, dtype=np.float32)
        np.clip(block, 0.0, 255.0, out=block)
        images[s : s + CHUNK] = block.astype(np.uint8)
    return images.reshape(count, SIDE, SIDE), labels.astype(np.uint8)


def write_standin(dirpath: Path, seed: int, write_idx) -> None:
    """Write the four IDX files into ``dirpath``; the same seed writes the
    same bytes. ``write_idx`` is ``colearn.data.write_idx``."""
    rng = np.random.default_rng([seed, 0x5EED])
    protos = _prototypes(rng)
    dirpath.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = _render(rng, protos, M_TRAIN)
    write_idx(train_images, train_labels, dirpath / IDX_NAMES[0], dirpath / IDX_NAMES[1])
    del train_images
    test_images, test_labels = _render(rng, protos, M_TEST)
    write_idx(test_images, test_labels, dirpath / IDX_NAMES[2], dirpath / IDX_NAMES[3])
