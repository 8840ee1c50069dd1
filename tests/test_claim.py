"""The paper's claim, structurally, on generated data: only a family's
training makes its leading layers detachable.

A family and a baseline, each of two hidden layers, train for three
epochs on 6000 rows from ``perfbench/synth.py``, the baseline at the
matched lr of 0.03 (lr x (1 - alpha): its standard momentum then takes
steps the size of the family's EMA ones). Each base model then loses its
first k layers (:func:`nsn.family.detach`, through the API, since
``nsn detach-eval`` refuses a baseline by design) and is scored on 2000
test rows. Chance is 0.1.

The margins come from seeds 0-11, each the data's seed and the run's
(0-7 under the default OpenBLAS kernels, 0, 2, 6 and 8-11 under Haswell
ones). Over them the detached family models scored 0.846-0.912, the
detached baseline sub-views (k >= 1) 0.048-0.189, and the two base models
differed by 0.001-0.022. The suite runs seed 0, TrainConfig's default,
in about 4 s.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nsn.checkpoint import load_checkpoint
from nsn.family import detach
from nsn.mnist import Dataset
from nsn.optim import Schedule
from nsn.train import TrainConfig, evaluate, family_from_checkpoint, train

_spec = importlib.util.spec_from_file_location(
    "synth", Path(__file__).resolve().parents[1] / "perfbench" / "synth.py")
synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synth)

TRAIN_ROWS, TEST_ROWS, EPOCHS = 6000, 2000, 3
SEED = 0
FAR_ABOVE_CHANCE = 0.75  # every detached family model scores above this
NEAR_CHANCE = 0.3  # every detached baseline sub-view scores below this
BASE_DELTA = 0.04  # the two base models' accuracies differ by less


def synth_split(seed: int, count: int, stream: int) -> Dataset:
    images, labels = synth.make_split(seed, count, stream)
    return Dataset(pixels=images.reshape(count, -1),
                   labels=labels.astype(np.int64))


def detached_accuracies(out_dir: Path, seed: int) -> dict:
    """Per run kind, the accuracy of its base model with k = 0, 1, 2
    leading layers dropped."""
    train_ds = synth_split(seed, TRAIN_ROWS, synth._STREAM_TRAIN)
    test_ds = synth_split(seed, TEST_ROWS, synth._STREAM_TEST)
    runs = {"family": ("nsn", Schedule()),
            "baseline": ("reference", Schedule(base_lr=0.03))}
    accs = {}
    for kind, (mode, schedule) in runs.items():
        config = TrainConfig(mode=mode, n_hidden=2, epochs=EPOCHS,
                             schedule=schedule, seed=seed,
                             out_dir=out_dir / kind)
        result = train(config, train_ds, test_ds)
        family, _ = family_from_checkpoint(
            load_checkpoint(result.checkpoint_path))
        accs[kind] = [evaluate(detach(family, k), test_ds)
                      for k in range(family.n + 1)]
    return accs


@pytest.fixture(scope="module")
def accuracies(tmp_path_factory):
    return detached_accuracies(tmp_path_factory.mktemp("claim"), SEED)


def test_every_detached_family_model_is_far_above_chance(accuracies):
    assert min(accuracies["family"]) > FAR_ABOVE_CHANCE, accuracies


def test_every_detached_baseline_sub_view_is_near_chance(accuracies):
    assert max(accuracies["baseline"][1:]) < NEAR_CHANCE, accuracies


def test_the_family_base_model_matches_its_baseline(accuracies):
    gap = abs(accuracies["family"][0] - accuracies["baseline"][0])
    assert gap < BASE_DELTA, accuracies
