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

from nsn.checkpoint import Checkpoint, load_checkpoint
from nsn.family import ModelFamily
from nsn.mnist import (TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS,
                       Dataset)
from nsn.nn import DenseLayer
from nsn.optim import MomentumState
from nsn.train import TrainConfig, init_family

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


def new_family(n: int, width: int = 784, classes: int = 10,
               seed: int = 0) -> ModelFamily:
    """The family a run of n hidden layers, ``width`` inputs and
    ``classes`` classes starts from at ``seed``."""
    return init_family(TrainConfig(n_hidden=n, input_dim=width,
                                   classes=classes, seed=seed,
                                   l2_lambda=0.0))[0]


ECHOED_FIELDS = ["n_hidden", "classes", "input_dim", "mode"]


def disagree_with_echo(ckpt: Checkpoint, field: str) -> None:
    """Alter the groups or best record of a checkpoint a run wrote, in
    place, so that they disagree with its config echo on ``field`` (one of
    ``ECHOED_FIELDS``) alone: one more square group, whose model's
    accuracy a family's best record repeats; a head of one row fewer;
    groups one column (and the square ones one row) narrower; or a
    family's best record cut to a baseline's one model, or a baseline's
    grown to every model's."""
    groups, momentum, accs = ckpt.groups, ckpt.momentum, ckpt.best_accuracies
    if field == "n_hidden":
        last = groups[-1]
        groups.append(DenseLayer(last.weight.copy(), last.bias.copy()))
        momentum.append(MomentumState.zeros_like(last))
        if len(accs) > 1:  # a family's record: every model's
            accs.append(accs[-1])
    elif field == "classes":
        head, state = groups[0], momentum[0]
        groups[0] = DenseLayer(head.weight[:-1], head.bias[:-1])
        momentum[0] = MomentumState(state.v_weight[:-1], state.v_bias[:-1])
    elif field == "input_dim":
        for g, (layer, state) in enumerate(zip(groups, momentum)):
            rows = slice(None) if g == 0 else slice(-1)
            groups[g] = DenseLayer(layer.weight[rows, :-1], layer.bias[rows])
            momentum[g] = MomentumState(state.v_weight[rows, :-1],
                                        state.v_bias[rows])
    else:
        ckpt.best_accuracies = (accs[-1:] if len(accs) > 1
                                else accs * len(groups))


def rewrite_seeds(path: Path, seeds: tuple[int, int, int]) -> None:
    """Overwrite the three u64 seeds of the checkpoint file at ``path``,
    as only an API run of an older version could write them."""
    data = path.read_bytes()
    seed = load_checkpoint(path).seed
    at = data.rindex(struct.pack("<QQQ", seed, seed + 1, seed + 2))
    path.write_bytes(data[:at] + struct.pack("<QQQ", *seeds) + data[at + 24:])


def array_bytes(records) -> list[bytes]:
    """The bytes of every array of some layers or momentum states, in
    order, for bitwise comparison."""
    return [a.tobytes() for r in records for a in vars(r).values()]


def checkpoint_arrays(ckpt) -> list[np.ndarray]:
    """Every array of a checkpoint: its groups', then its momentum's."""
    return [a for r in ckpt.groups + ckpt.momentum for a in vars(r).values()]


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
