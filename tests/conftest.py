import os

# Pin BLAS to one thread before numpy loads: the suite's bitwise-equality
# assertions rely on a fixed summation order.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nsn.mnist import (TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS,
                       Dataset)

IDX_FILES = (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)

# The L2 weight of each run the paper reports (arXiv 1908.00763), by mode
# and n_hidden, as the oracle for the one the program states.
PAPER_L2 = {("reference", 0): 9e-5, ("reference", 1): 5e-6,
            ("reference", 2): 1e-5, ("nsn", 1): 9e-6, ("nsn", 2): 9e-5}


def idx_image_bytes(images: np.ndarray) -> bytes:
    """Serialize a uint8 [count, 28, 28] tensor as an IDX image file."""
    count, rows, cols = images.shape
    return struct.pack(">IIII", 2051, count, rows, cols) + images.tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 2049, len(labels)) + bytes(labels.tolist())


def write_idx_dir(path: Path, train_count: int = 96,
                  test_count: int = 64, seed: int = 0) -> Path:
    """Write four small synthetic IDX files shaped like the real dataset."""
    rng = np.random.default_rng(seed)
    path.mkdir(parents=True, exist_ok=True)
    for images_name, labels_name, count in (
            (TRAIN_IMAGES, TRAIN_LABELS, train_count),
            (TEST_IMAGES, TEST_LABELS, test_count)):
        images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        (path / images_name).write_bytes(idx_image_bytes(images))
        (path / labels_name).write_bytes(idx_label_bytes(labels))
    return path


def toy_dataset(count: int, input_dim: int, classes: int,
                seed: int = 0) -> Dataset:
    """In-memory dataset with a learnable signal: pixel block means encode
    the label."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=count)
    images = rng.random((count, input_dim)) * 0.2
    for i, label in enumerate(labels):
        images[i, label % input_dim] += 0.8
    return Dataset(pixels=images.astype(np.float32),
                   labels=labels.astype(np.int64))


def array_bytes(records) -> list[bytes]:
    """The bytes of every array of some layers or momentum states, in
    order, for bitwise comparison."""
    return [a.tobytes() for r in records for a in vars(r).values()]


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak, over what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def find_real_data() -> Path | None:
    for cand in (os.environ.get("NSN_DATA_DIR"), "data"):
        if cand and all((Path(cand) / f).is_file() for f in IDX_FILES):
            return Path(cand)
    return None


REAL_DATA = find_real_data()
requires_mnist = pytest.mark.skipif(
    REAL_DATA is None,
    reason="real MNIST IDX files not found; set NSN_DATA_DIR")


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory) -> Path:
    return write_idx_dir(tmp_path_factory.mktemp("idx"))
