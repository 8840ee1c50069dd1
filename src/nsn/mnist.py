"""MNIST IDX parsing, pixel normalization, and shuffled mini-batches.

Only uncompressed IDX files are accepted; decompress ``.gz`` downloads
before pointing the CLI at them (``scripts/fetch_mnist.py`` does both).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, FormatError, LengthError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
IMAGE_SIDE = 28
PIXELS = IMAGE_SIDE * IMAGE_SIDE

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


@dataclass(frozen=True)
class Dataset:
    """Pixel rows [count, 784] plus labels [count] in 0..9.

    ``pixels`` is uint8 for data read from IDX files, held as the file's
    own bytes, or float32 already in [0, 1] for data built in memory.
    A uint8 row is scaled to float32 only when it is read, so a training
    run never holds a float copy of its training set.
    """

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape[0] != self.labels.shape[0]:
            raise ConfigError(f"images/labels counts differ: "
                              f"{self.pixels.shape[0]} vs "
                              f"{self.labels.shape[0]}")

    @property
    def count(self) -> int:
        return self.pixels.shape[0]

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        """The rows at ``index`` as float32 in [0, 1]. Byte rows are scaled
        into ``out`` when it is given; float rows are returned as they are
        (a view, for a slice)."""
        rows = self.pixels[index]
        return normalize(rows, out) if rows.dtype == np.uint8 else rows

    @cached_property
    def images(self) -> np.ndarray:
        """Every row as float32 in [0, 1], scaled on first access.

        The scaled rows then stand in for ``pixels``, so that the bytes are
        freed rather than held next to a float copy of the same rows.
        """
        images = self.rows(slice(None))
        object.__setattr__(self, "pixels", images)
        return images


def parse_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into a uint8 tensor [count, 28, 28].

    The tensor is a read-only view over ``data``, which it keeps alive.
    The header is four big-endian u32s: magic 2051, count, rows, cols.
    Raises FormatError on a wrong magic or unexpected geometry and
    LengthError when the payload is shorter than the header promises.
    """
    if len(data) < 16:
        raise LengthError(f"image header needs 16 bytes, got {len(data)}")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise FormatError(f"bad image magic: expected {IMAGE_MAGIC}, got {magic}")
    if rows != IMAGE_SIDE or cols != IMAGE_SIDE:
        raise FormatError(f"expected {IMAGE_SIDE}x{IMAGE_SIDE} images, "
                          f"got {rows}x{cols}")
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise LengthError(f"image payload: expected {expected} bytes, "
                          f"got {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows, cols)


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a uint8 vector [count] with values 0..9."""
    if len(data) < 8:
        raise LengthError(f"label header needs 8 bytes, got {len(data)}")
    magic, count = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise FormatError(f"bad label magic: expected {LABEL_MAGIC}, got {magic}")
    expected = 8 + count
    if len(data) != expected:
        raise LengthError(f"label payload: expected {expected} bytes, "
                          f"got {len(data)}")
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).copy()
    if labels.size and labels.max() > 9:
        bad = int(labels.max())
        raise FormatError(f"label byte out of range [0, 9]: {bad}")
    return labels


def normalize(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale uint8 pixels to float32 in [0, 1] and flatten to [count, 784],
    written into ``out`` when given.

    One pass, casting each byte as it is divided: no float temporary.
    """
    flat = raw.reshape(raw.shape[0], -1)
    return np.divide(flat, np.float32(255.0), out=out, dtype=np.float32)


def load_dataset(images_path: Path, labels_path: Path) -> Dataset:
    images = parse_idx_images(Path(images_path).read_bytes())
    labels = parse_idx_labels(Path(labels_path).read_bytes())
    if images.shape[0] != labels.shape[0]:
        raise LengthError(f"{images_path}: {images.shape[0]} images but "
                          f"{labels.shape[0]} labels")
    # An empty set can be neither trained on nor evaluated; say so here,
    # not after a first epoch of training.
    if images.shape[0] == 0:
        raise LengthError(f"{images_path}: no images")
    return Dataset(pixels=images.reshape(images.shape[0], PIXELS),
                   labels=labels.astype(np.int64))


def load_data_dir(data_dir: Path) -> tuple[Dataset, Dataset]:
    """Load (train, test) from the four canonical IDX files in data_dir."""
    d = Path(data_dir)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        if not (d / name).is_file():
            raise FileNotFoundError(
                f"missing {d / name}; fetch the MNIST IDX files first "
                f"(see scripts/fetch_mnist.py) and decompress them")
    train = load_dataset(d / TRAIN_IMAGES, d / TRAIN_LABELS)
    test = load_dataset(d / TEST_IMAGES, d / TEST_LABELS)
    return train, test


def batches(dataset: Dataset, batch_size: int, epoch: int,
            seed: int | None = None
            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (images[b, 784], labels[b]) covering every sample exactly once.

    The order is a pure function of (``seed``, ``epoch``), or the file's
    order when ``seed`` is None. The final batch may be smaller than
    ``batch_size``, which must be in [1, count].
    """
    count = dataset.count
    if not 1 <= batch_size <= count:
        raise ConfigError(f"batch_size must be in [1, {count}] for a set of "
                          f"{count} samples, got {batch_size}")
    order = (np.arange(count) if seed is None
             else np.random.default_rng([seed, epoch]).permutation(count))
    for start in range(0, count, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.rows(idx), dataset.labels[idx]
