import contextlib
import csv
import json
import math
import os
import signal
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ECHOED_FIELDS, PAPER_L2, array_bytes,
                      checkpoint_arrays, disagree_with_echo, new_family,
                      rewrite_seeds, toy_dataset, traced_peak)
from nsn.checkpoint import load_checkpoint, save_checkpoint
from nsn.errors import (ConfigError, DivergenceError, FormatError,
                        ShapeError)
from nsn.family import ModelFamily
from nsn.mnist import Dataset, load_data_dir
from nsn.nn import (DenseLayer, ModelBuffers, model_backward, model_forward,
                    spec_for_params)
from nsn.optim import MomentumState, Schedule, lr_at
from nsn.train import (BEST_CHECKPOINT, BEST_FILE, EVAL_BATCH,
                       FINAL_CHECKPOINT, METRICS_FILE, StepWorkspace, Task,
                       TrainConfig, evaluate, family_from_checkpoint,
                       init_family, reference_step, step_tasks, train,
                       train_reference, train_step)
import nsn.train as train_module


def toy_config(**overrides):
    base = dict(mode="nsn", n_hidden=2, epochs=3, batch_size=8,
                schedule=Schedule(base_lr=0.1, decay_every=2, alpha=0.9),
                l2_lambda=1e-4, input_keep=0.8, hidden_keep=0.5,
                input_dim=4, classes=5, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


def toy_batch(config, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((config.batch_size, config.input_dim)).astype(np.float32)
    labels = rng.integers(0, config.classes, size=config.batch_size)
    return x, labels


class TestTrainStepHandOracle:
    """Width-2 family, no momentum, no dropout, no L2: one step must match
    values precomputed with an independent float64 finite-difference oracle
    of the paired-average update."""

    W0 = [[0.5, -0.25], [0.1, 0.3]]
    B0 = [0.05, -0.05]
    W1 = [[0.2, 0.4], [-0.3, 0.1]]
    B1 = [0.03, 0.1]  # keeps every pre-activation away from the ReLU kink

    EXPECTED_LOSSES = [0.584196727368269, 0.62004077519897]
    EXPECTED_W0 = [[0.604458832681, -0.252879310762],
                   [-0.004458832681, 0.302879310762]]
    EXPECTED_B0 = [0.043163873224, -0.043163873238]
    EXPECTED_W1 = [[0.267751054378, 0.409366089182],
                   [-0.333700477187, 0.116850238593]]
    EXPECTED_B1 = [0.02422274044, 0.167400954429]

    def test_single_step(self):
        config = TrainConfig(
            mode="nsn", n_hidden=1, epochs=1, batch_size=2,
            schedule=Schedule(base_lr=0.5, decay_every=100, alpha=0.0),
            l2_lambda=0.0, input_keep=1.0, hidden_keep=1.0,
            input_dim=2, classes=2)
        family, momentum = init_family(config)
        family.groups[0].weight = np.array(self.W0, np.float32)
        family.groups[0].bias = np.array(self.B0, np.float32)
        family.groups[1].weight = np.array(self.W1, np.float32)
        family.groups[1].bias = np.array(self.B1, np.float32)
        x = np.array([[1.0, 0.5], [-0.5, 0.25]], np.float32)
        labels = np.array([0, 1])

        losses = train_step(family, momentum, (x, labels), config,
                            epoch=0, step=0)

        np.testing.assert_allclose(losses, self.EXPECTED_LOSSES, atol=1e-6)
        np.testing.assert_allclose(family.groups[0].weight,
                                   self.EXPECTED_W0, atol=1e-6)
        np.testing.assert_allclose(family.groups[0].bias,
                                   self.EXPECTED_B0, atol=1e-6)
        np.testing.assert_allclose(family.groups[1].weight,
                                   self.EXPECTED_W1, atol=1e-6)
        np.testing.assert_allclose(family.groups[1].bias,
                                   self.EXPECTED_B1, atol=1e-6)


class TestTrainStep:
    def test_ties_hold_after_any_step(self):
        config = toy_config()
        family, momentum = init_family(config)
        for step in range(5):
            train_step(family, momentum, toy_batch(config, step), config,
                       epoch=0, step=step)
            for m in range(1, family.n + 1):
                for lo, up in zip(family.view(m - 1), family.view(m)[1:]):
                    assert lo is up  # shared storage

    def test_deterministic_across_runs(self):
        config = toy_config()
        results = []
        for _ in range(2):
            family, momentum = init_family(config)
            for step in range(10):
                train_step(family, momentum, toy_batch(config, step),
                           config, epoch=0, step=step)
            results.append([g.weight.copy() for g in family.groups])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_losses_are_per_model_and_finite(self):
        config = toy_config()
        family, momentum = init_family(config)
        losses = train_step(family, momentum, toy_batch(config), config,
                            epoch=0, step=0)
        assert len(losses) == config.n_hidden + 1
        assert all(np.isfinite(v) for v in losses)

    def test_l2_reaches_only_base_paired_groups(self):
        # with alpha=0 and no dropout, the update difference between
        # lambda>0 and lambda=0 isolates the L2 routing:
        # group n shifts by lr*lam*W, group n-1 by lr*lam*W/2, group n-2 not.
        lam, lr = 0.01, 0.5
        common = dict(n_hidden=2, input_keep=1.0, hidden_keep=1.0,
                      schedule=Schedule(base_lr=lr, decay_every=100,
                                        alpha=0.0))
        cfg_l2 = toy_config(l2_lambda=lam, **common)
        cfg_plain = toy_config(l2_lambda=0.0, **common)
        fam_l2, mom_l2 = init_family(cfg_l2)
        fam_plain, mom_plain = init_family(cfg_plain)
        before = [g.weight.copy() for g in fam_l2.groups]
        batch = toy_batch(cfg_l2)
        train_step(fam_l2, mom_l2, batch, cfg_l2, 0, 0)
        train_step(fam_plain, mom_plain, batch, cfg_plain, 0, 0)
        deltas = [p.weight - q.weight
                  for p, q in zip(fam_plain.groups, fam_l2.groups)]
        np.testing.assert_allclose(deltas[2], lr * lam * before[2], atol=1e-6)
        np.testing.assert_allclose(deltas[1], lr * lam * before[1] / 2,
                                   atol=1e-6)
        np.testing.assert_allclose(deltas[0], 0, atol=1e-7)
        # biases never receive the penalty
        np.testing.assert_allclose(fam_plain.groups[2].bias,
                                   fam_l2.groups[2].bias, atol=1e-7)


def literal_reference_step(layers, momentum, batch, config, epoch, step):
    """The baseline update written out on input-first layers, with
    allocating passes: returns the new layers and momenta."""
    x, labels = batch
    spec = config.model_spec(config.n_hidden)
    rng = np.random.default_rng([config.dropout_seed, epoch, step, 0])
    _, cache = model_forward(spec, layers, x, "train", rng)
    grads = model_backward(spec, layers, cache, labels)
    lam, lr = config.l2_lambda, lr_at(config.schedule, epoch)
    alpha = config.schedule.alpha
    new_layers, new_momentum = [], []
    for layer, state, g in zip(layers, momentum, grads, strict=True):
        v_w = alpha * state.v_weight + (g.d_weight + lam * layer.weight)
        v_b = alpha * state.v_bias + g.d_bias
        new_layers.append(DenseLayer(layer.weight - lr * v_w,
                                     layer.bias - lr * v_b))
        new_momentum.append(MomentumState(v_weight=v_w, v_bias=v_b))
    return new_layers, new_momentum


class TestReferenceStep:
    def test_matches_the_literal_step_bitwise(self):
        config = toy_config(mode="reference", n_hidden=2, l2_lambda=1e-3,
                            input_keep=0.8, hidden_keep=0.5)
        batches = [toy_batch(config, seed) for seed in range(5)]
        x, labels = batches[-1]
        batches[-1] = (x[:3], labels[:3])  # a short last batch
        family, momentum = init_family(config)
        layers = [DenseLayer(layer.weight.copy(), layer.bias.copy())
                  for layer in family.view(family.n)]
        literal_momentum = [MomentumState.zeros_like(layer)
                            for layer in layers]
        workspace = StepWorkspace(config, config.batch_size)
        for step, batch in enumerate(batches):
            reference_step(family, momentum, batch, config, 0, step,
                           workspace)
            layers, literal_momentum = literal_reference_step(
                layers, literal_momentum, batch, config, 0, step)
        got = [a.tobytes() for layer, state in zip(family.view(family.n),
                                                   momentum[::-1])
               for a in (layer.weight, layer.bias, state.v_weight,
                         state.v_bias)]
        want = [a.tobytes() for layer, state in zip(layers, literal_momentum)
                for a in (layer.weight, layer.bias, state.v_weight,
                          state.v_bias)]
        assert got == want

    def test_single_layer_closed_form(self):
        config = toy_config(mode="reference", n_hidden=0, l2_lambda=0.0,
                            schedule=Schedule(base_lr=0.5, decay_every=100,
                                              alpha=0.0))
        rng = np.random.default_rng(20)
        w = rng.uniform(-0.5, 0.5, (config.classes,
                                    config.input_dim)).astype(np.float32)
        family = ModelFamily([DenseLayer(
            w.copy(), np.zeros(config.classes, np.float32))])
        momentum = [MomentumState.zeros_like(family.groups[0])]
        x, labels = toy_batch(config, seed=21)
        reference_step(family, momentum, (x, labels), config, 0, 0)
        # closed form in float64
        z = x.astype(np.float64) @ w.astype(np.float64).T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        y = np.zeros_like(p)
        y[np.arange(len(labels)), labels] = 1
        dW = (p - y).T @ x.astype(np.float64) / len(labels)
        np.testing.assert_allclose(family.groups[0].weight,
                                   w - 0.5 * dW, atol=1e-6)

    def test_l2_on_every_weight_layer(self):
        lam, lr = 0.01, 0.5
        common = dict(mode="reference", n_hidden=1, input_keep=1.0,
                      hidden_keep=1.0,
                      schedule=Schedule(base_lr=lr, decay_every=100,
                                        alpha=0.0))
        cfg_l2 = toy_config(l2_lambda=lam, **common)
        cfg_plain = toy_config(l2_lambda=0.0, **common)
        fam_l2, mom_l2 = init_family(cfg_l2)
        fam_plain, mom_plain = init_family(cfg_plain)
        before = [g.weight.copy() for g in fam_l2.groups]
        batch = toy_batch(cfg_l2, seed=22)
        reference_step(fam_l2, mom_l2, batch, cfg_l2, 0, 0)
        reference_step(fam_plain, mom_plain, batch, cfg_plain, 0, 0)
        for w0, plain, penalized in zip(before, fam_plain.groups,
                                        fam_l2.groups):
            np.testing.assert_allclose(
                plain.weight - penalized.weight, lr * lam * w0,
                atol=1e-6)


class TestEvaluate:
    def test_perfect_predictor(self):
        layers = [DenseLayer(10 * np.eye(10, dtype=np.float32),
                             np.zeros(10, np.float32))]
        labels = np.arange(100) % 10
        images = np.zeros((100, 10), np.float32)
        images[np.arange(100), labels] = 1.0
        ds = Dataset(pixels=images, labels=labels.astype(np.int64))
        assert evaluate(layers, ds) == 1.0

    def test_random_model_near_chance(self):
        rng = np.random.default_rng(23)
        family = new_family(1, width=8, classes=10, seed=24)
        labels = np.arange(5000) % 10  # balanced
        images = rng.random((5000, 8)).astype(np.float32)
        ds = Dataset(pixels=images, labels=labels.astype(np.int64))
        acc = evaluate(family.view(1), ds)
        assert abs(acc - 0.1) < 0.03

    def test_detached_view_scores_identically(self):
        from nsn.family import detach
        family = new_family(2, width=6, classes=4, seed=25)
        ds = toy_dataset(200, 6, 4, seed=26)
        assert (evaluate(detach(family, 1), ds)
                == evaluate(family.view(1), ds))

    def test_an_empty_set_is_a_config_error_before_any_lane_starts(
            self, monkeypatch):
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane started")

        monkeypatch.setattr(train_module, "_run_tasks", no_lanes)
        view = new_family(1, width=4, classes=3, seed=1).view(1)
        empty = Dataset(pixels=np.zeros((0, 4), np.float32),
                        labels=np.zeros(0, np.int64))
        with pytest.raises(ConfigError, match="empty set"):
            evaluate(view, empty)


def write_older_echo(path, shuffle=True):
    """Rewrite the checkpoint at ``path`` with the config echo of a version
    that stored three seeds and a shuffle switch, not one seed."""
    ckpt = load_checkpoint(path)
    echo = json.loads(ckpt.config_echo)
    seed = echo.pop("seed")
    echo.update(init_seed=seed, shuffle_seed=seed + 1,
                dropout_seed=seed + 2, shuffle=shuffle)
    ckpt.config_echo = json.dumps(echo, sort_keys=True)
    save_checkpoint(path, ckpt)


def assert_resume_matches_uninterrupted_run(tmp_path, mode, n_hidden,
                                          resume_name, before_resume=None):
    # At lr 1.0 on this data both trainers peak in their first two
    # epochs and fall back, so the resumed run must carry the best
    # epoch over, and resuming from the best checkpoint re-runs epochs
    # that metrics.csv already holds. ``before_resume`` may rewrite the
    # checkpoint the run resumes from.
    run = train if mode == "nsn" else train_reference
    train_ds = toy_dataset(40, 4, 5, seed=6)
    test_ds = toy_dataset(24, 4, 5, seed=7)

    def config(epochs, out_dir):
        return toy_config(mode=mode, n_hidden=n_hidden, epochs=epochs,
                          out_dir=out_dir,
                          schedule=Schedule(base_lr=1.0, decay_every=2,
                                            alpha=0.9))

    full, resumed = tmp_path / "full", tmp_path / "resumed"
    uninterrupted = run(config(8, full), train_ds, test_ds)
    run(config(4, resumed), train_ds, test_ds)
    if before_resume is not None:
        before_resume(resumed / resume_name)
    run(config(8, resumed), train_ds, test_ds,
        resume_from=resumed / resume_name)

    base_accs = [r.accuracies[-1] for r in uninterrupted.history]
    assert uninterrupted.best_epoch < 2
    assert max(base_accs[4:]) < base_accs[uninterrupted.best_epoch]
    for name in (METRICS_FILE, BEST_FILE):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()
    for name in (FINAL_CHECKPOINT, BEST_CHECKPOINT):
        a = load_checkpoint(full / name)
        b = load_checkpoint(resumed / name)
        assert array_bytes(a.groups) == array_bytes(b.groups)
        assert array_bytes(a.momentum) == array_bytes(b.momentum)
        a.groups = b.groups = a.momentum = b.momentum = None
        a.config_echo = b.config_echo = None
        assert a == b


class TestTrainLoop:
    def test_toy_run_writes_artifacts(self, tmp_path):
        config = toy_config(epochs=3, out_dir=tmp_path)
        train_ds = toy_dataset(40, config.input_dim, config.classes, seed=1)
        test_ds = toy_dataset(24, config.input_dim, config.classes, seed=2)
        result = train(config, train_ds, test_ds)

        assert len(result.history) == 3
        for record in result.history:
            assert all(np.isfinite(v) for v in record.losses)
            assert all(0.0 <= a <= 1.0 for a in record.accuracies)

        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lr", "loss_m0", "loss_m1", "loss_m2",
                           "acc_m0", "acc_m1", "acc_m2"]
        assert len(rows) == 4

        with open(tmp_path / "best.csv") as fh:
            best_rows = list(csv.reader(fh))
        assert best_rows[0] == ["best_epoch", "acc_m0", "acc_m1", "acc_m2"]
        assert int(best_rows[1][0]) == result.best_epoch

        ckpt = load_checkpoint(tmp_path / "checkpoint_final.nsn")
        assert ckpt.epoch == 3
        restored, _ = family_from_checkpoint(ckpt)
        for g, state in zip(restored.groups, result.views[-1][::-1]):
            assert np.array_equal(g.weight, state.weight)

    def test_best_tracking_is_running_max(self, tmp_path):
        config = toy_config(epochs=4, out_dir=tmp_path)
        train_ds = toy_dataset(40, config.input_dim, config.classes, seed=3)
        test_ds = toy_dataset(24, config.input_dim, config.classes, seed=4)
        result = train(config, train_ds, test_ds)
        base_accs = [r.accuracies[-1] for r in result.history]
        assert result.best_accuracies[-1] == max(base_accs)
        assert result.best_epoch == int(np.argmax(base_accs))

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        assert_resume_matches_uninterrupted_run(tmp_path, "nsn", 1,
                                                FINAL_CHECKPOINT)

    @pytest.mark.parametrize("mode, n_hidden, resume_name",
                             [("nsn", 1, BEST_CHECKPOINT),
                              ("reference", 2, FINAL_CHECKPOINT),
                              ("reference", 2, BEST_CHECKPOINT)],
                             ids=["nsn-best", "reference-final",
                                  "reference-best"])
    def test_resume_of_either_trainer_from_either_checkpoint(
            self, tmp_path, mode, n_hidden, resume_name):
        assert_resume_matches_uninterrupted_run(tmp_path, mode, n_hidden,
                                                resume_name)

    def test_resume_from_the_older_echo_matches_uninterrupted_run(
            self, tmp_path):
        assert_resume_matches_uninterrupted_run(
            tmp_path, "nsn", 1, FINAL_CHECKPOINT,
            before_resume=write_older_echo)

    def test_resume_refuses_a_run_that_did_not_shuffle(self, tmp_path):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=1, out_dir=tmp_path / "a"), ds, ds)
        write_older_echo(tmp_path / "a" / FINAL_CHECKPOINT, shuffle=False)
        with pytest.raises(ConfigError, match="other values of shuffle$"):
            train(toy_config(epochs=2, out_dir=tmp_path / "b"), ds, ds,
                  resume_from=tmp_path / "a" / FINAL_CHECKPOINT)
        assert not (tmp_path / "b").exists()

    def test_resume_refuses_seeds_of_no_one_seed(self, tmp_path):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=1, out_dir=tmp_path / "a"), ds, ds)
        path = tmp_path / "a" / FINAL_CHECKPOINT
        rewrite_seeds(path, (5, 6, 9))  # the run's seed is 5
        with pytest.raises(FormatError, match=r"seeds \(5, 6, 9\), not"):
            train(toy_config(epochs=2, out_dir=tmp_path / "b"), ds, ds,
                  resume_from=path)
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    @pytest.mark.parametrize("field", ECHOED_FIELDS)
    def test_resume_refuses_a_checkpoint_that_disagrees_with_its_echo(
            self, tmp_path, mode, field):
        ds = toy_dataset(40, 4, 5, seed=5)
        config = toy_config(mode=mode, n_hidden=1, epochs=1,
                            out_dir=tmp_path / "a")
        train(config, ds, ds)
        path = tmp_path / "a" / FINAL_CHECKPOINT
        ckpt = load_checkpoint(path)
        disagree_with_echo(ckpt, field)
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError, match=rf"config echo on {field} \("):
            train(replace(config, epochs=2, out_dir=tmp_path / "b"), ds, ds,
                  resume_from=path)
        assert not (tmp_path / "b").exists()

    def test_a_run_that_never_scores_takes_its_first_epoch_as_the_best(
            self, tmp_path, monkeypatch):
        ds = toy_dataset(40, 4, 5, seed=5)
        earlier = train(toy_config(epochs=1, out_dir=tmp_path), ds, ds)
        assert earlier.best_accuracies[-1] > 0
        monkeypatch.setattr(train_module, "evaluate", lambda view, ds: 0.0)
        result = train(toy_config(epochs=2, out_dir=tmp_path), ds, ds)
        assert (result.best_epoch, result.best_accuracies) == (0, [0.0] * 3)
        assert (tmp_path / BEST_FILE).read_text() == (
            "best_epoch,acc_m0,acc_m1,acc_m2\n0,0,0,0\n")
        # this run's best checkpoint, not the earlier run's left in place
        best = load_checkpoint(tmp_path / BEST_CHECKPOINT)
        assert (best.epoch, best.best_epoch) == (1, 0)
        assert json.loads(best.config_echo)["epochs"] == 2

    def test_fresh_run_replaces_old_metrics(self, tmp_path):
        train_ds = toy_dataset(40, 4, 5, seed=5)
        test_ds = toy_dataset(24, 4, 5, seed=6)
        for _ in range(2):
            train(toy_config(epochs=2, out_dir=tmp_path), train_ds, test_ds)
        assert len((tmp_path / METRICS_FILE).read_text().splitlines()) == 3

    def test_resume_rejects_a_checkpoint_of_the_other_trainer(self,
                                                              tmp_path):
        ds = toy_dataset(40, 4, 5, seed=5)
        train_reference(toy_config(mode="reference", n_hidden=1, epochs=1,
                                   out_dir=tmp_path), ds, ds)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match="other values of mode$"):
            train(toy_config(n_hidden=1, epochs=2, out_dir=tmp_path),
                  ds, ds, resume_from=tmp_path / FINAL_CHECKPOINT)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_rejects_a_changed_config(self, tmp_path):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=1, out_dir=tmp_path), ds, ds)
        with pytest.raises(ConfigError, match="l2_lambda"):
            train(toy_config(epochs=2, l2_lambda=0.1, out_dir=tmp_path),
                  ds, ds, resume_from=tmp_path / FINAL_CHECKPOINT)

    def test_resume_rejects_fewer_epochs_than_the_checkpoint(self,
                                                             tmp_path):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=3, out_dir=tmp_path), ds, ds)
        names = (FINAL_CHECKPOINT, METRICS_FILE, BEST_FILE)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        # No data is given and data_dir does not exist: the check must
        # come before the data is loaded, as well as before any write.
        with pytest.raises(ConfigError, match="epoch 3; a run of 2 epochs"):
            train(toy_config(epochs=2, out_dir=tmp_path,
                             data_dir=tmp_path / "absent"),
                  resume_from=tmp_path / FINAL_CHECKPOINT)
        assert {name: (tmp_path / name).read_bytes()
                for name in names} == before

    def test_reference_toy_run(self, tmp_path):
        config = toy_config(mode="reference", n_hidden=1, epochs=2,
                            out_dir=tmp_path)
        train_ds = toy_dataset(40, config.input_dim, config.classes, seed=7)
        test_ds = toy_dataset(24, config.input_dim, config.classes, seed=8)
        result = train_reference(config, train_ds, test_ds)
        assert len(result.history) == 2
        assert len(result.history[0].losses) == 1
        ckpt = load_checkpoint(tmp_path / "checkpoint_final.nsn")
        assert len(ckpt.groups) == 2  # n_hidden + 1 layers

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_context(self, tmp_path):
        config = toy_config(epochs=1, input_keep=1.0, hidden_keep=1.0,
                            out_dir=tmp_path)
        count = 16
        images = np.full((count, config.input_dim), 1e38, np.float32)
        labels = (np.arange(count) % config.classes).astype(np.int64)
        bad = Dataset(pixels=images, labels=labels)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(config, bad, bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parameters_that_overflow_in_the_last_update_are_divergence(
            self, tmp_path):
        # One step: its loss is finite, the update it makes is not.
        config = toy_config(n_hidden=1, epochs=1, batch_size=8,
                            schedule=Schedule(base_lr=1e300, alpha=0.0),
                            input_keep=1.0, hidden_keep=1.0, out_dir=tmp_path)
        ds = toy_dataset(8, config.input_dim, config.classes, seed=1)
        with pytest.raises(DivergenceError,
                           match="non-finite parameters in group . at "
                                 "epoch 0"):
            train(config, ds, ds)
        assert not (tmp_path / BEST_CHECKPOINT).exists()
        assert not (tmp_path / FINAL_CHECKPOINT).exists()
        assert not (tmp_path / BEST_FILE).exists()

    def test_learning_progress_on_separable_toy(self, tmp_path):
        # block-mean signal is linearly separable; even a short run should
        # beat chance by a wide margin
        config = toy_config(epochs=8, n_hidden=1, l2_lambda=0.0,
                            schedule=Schedule(base_lr=0.3, decay_every=4,
                                              alpha=0.9),
                            input_keep=1.0, hidden_keep=1.0, classes=4,
                            out_dir=tmp_path)
        train_ds = toy_dataset(200, config.input_dim, config.classes, seed=9)
        test_ds = toy_dataset(80, config.input_dim, config.classes, seed=10)
        result = train(config, train_ds, test_ds)
        assert result.best_accuracies[-1] > 0.5


class TestResumeCopiesWhatItTrains:
    """A loaded checkpoint's arrays are read-only views of its file; a
    resumed run trains copies of them."""

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_the_file_resumed_from_is_left_byte_identical(self, tmp_path,
                                                          mode):
        ds = toy_dataset(40, 4, 5, seed=5)
        config = toy_config(mode=mode, epochs=1, out_dir=tmp_path)
        train(config, ds, ds)
        source = tmp_path / "from.nsn"
        source.write_bytes((tmp_path / FINAL_CHECKPOINT).read_bytes())
        before = source.read_bytes()
        train(replace(config, epochs=2), ds, ds, resume_from=source)
        assert source.read_bytes() == before
        assert (tmp_path / FINAL_CHECKPOINT).read_bytes() != before

    def test_the_run_trains_writeable_arrays_apart_from_the_checkpoints(
            self, tmp_path, monkeypatch):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=1, out_dir=tmp_path), ds, ds)
        loaded, saved = [], []

        def load(path):
            loaded.append(load_checkpoint(path))
            return loaded[-1]

        def save(path, ckpt):
            saved.append(ckpt)
            save_checkpoint(path, ckpt)

        monkeypatch.setattr(train_module, "load_checkpoint", load)
        monkeypatch.setattr(train_module, "save_checkpoint", save)
        train(toy_config(epochs=2, out_dir=tmp_path), ds, ds,
              resume_from=tmp_path / FINAL_CHECKPOINT)
        held = checkpoint_arrays(loaded[0])
        trained = checkpoint_arrays(saved[-1])  # the run's own arrays
        assert not any(a.flags.writeable for a in held)
        assert all(a.flags.writeable for a in trained)
        assert not any(np.shares_memory(a, b) for a in trained for b in held)

    def test_the_run_holds_no_loaded_array_once_it_steps(self, tmp_path,
                                                         monkeypatch):
        ds = toy_dataset(40, 4, 5, seed=5)
        train(toy_config(epochs=1, out_dir=tmp_path), ds, ds)
        refs, alive = [], []

        def load(path):
            ckpt = load_checkpoint(path)
            refs.extend(weakref.ref(a) for a in checkpoint_arrays(ckpt))
            return ckpt

        def step(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return train_step(*args)

        monkeypatch.setattr(train_module, "load_checkpoint", load)
        monkeypatch.setattr(train_module, "train_step", step)
        train(toy_config(epochs=2, out_dir=tmp_path), ds, ds,
              resume_from=tmp_path / FINAL_CHECKPOINT)
        assert len(refs) == 12 and alive and alive[0] == 0


class TestConfigValidation:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(epochs=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(mode="both")

    def test_nsn_requires_hidden_layer(self):
        with pytest.raises(ConfigError):
            toy_config(n_hidden=0)

    @pytest.mark.parametrize("name", ["init_seed", "shuffle_seed",
                                      "dropout_seed"])
    def test_seeds_must_fit_a_checkpoint_u64(self, name):
        # each stream is seed + offset; the largest seed keeps all three
        # in a u64, and one that pushes this stream past it is refused
        offset = ["init_seed", "shuffle_seed", "dropout_seed"].index(name)
        config = toy_config(seed=2**64 - 3)
        assert getattr(config, name) == 2**64 - 3 + offset
        for bad in (-1, 2**64 - offset):
            with pytest.raises(ConfigError, match="seed must be in"):
                toy_config(seed=bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["base_lr", "decay_factor",
                                      "l2_lambda"])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            if name == "l2_lambda":
                toy_config(l2_lambda=value)
            else:
                toy_config(schedule=Schedule(**{name: value}))

    def test_reference_allows_zero_hidden(self):
        assert toy_config(mode="reference", n_hidden=0).n_hidden == 0

    @pytest.mark.parametrize("mode,n_hidden", list(PAPER_L2))
    def test_an_unset_l2_is_the_papers_for_the_run(self, mode, n_hidden):
        config = TrainConfig(mode=mode, n_hidden=n_hidden)
        assert config.l2_lambda == PAPER_L2[mode, n_hidden]
        assert json.loads(config.echo())["l2_lambda"] == config.l2_lambda
        explicit = TrainConfig(mode=mode, n_hidden=n_hidden, l2_lambda=0.5)
        assert explicit.l2_lambda == 0.5

    @pytest.mark.parametrize("mode,n_hidden", [("nsn", 3), ("nsn", 6),
                                               ("reference", 3)])
    def test_a_run_outside_the_protocol_must_give_its_l2(self, mode,
                                                         n_hidden):
        with pytest.raises(ConfigError, match="^l2_lambda must be given") \
                as exc:
            TrainConfig(mode=mode, n_hidden=n_hidden)
        assert exc.value.field == "l2_lambda"
        config = TrainConfig(mode=mode, n_hidden=n_hidden, l2_lambda=1e-4)
        assert config.l2_lambda == 1e-4

    def test_n_hidden_is_checked_before_the_l2_is_looked_up(self):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(mode="nsn", n_hidden=0)
        assert exc.value.field == "n_hidden"


class TestRunKind:
    FAMILY_ONLY = ("copy_up", "paired_average_gradients", "momentum_nsn")

    def test_one_step_and_one_trainer_under_both_names(self):
        assert reference_step is train_step
        assert train_reference is train

    @pytest.mark.parametrize("mode,n_hidden", [("nsn", 1), ("nsn", 2),
                                               ("reference", 0),
                                               ("reference", 2)])
    def test_only_a_family_step_calls_the_family_helpers(self, monkeypatch,
                                                         mode, n_hidden):
        calls = {name: 0 for name in self.FAMILY_ONLY}

        def counting(name):
            piece = getattr(train_module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return piece(*args, **kwargs)
            return counted

        for name in self.FAMILY_ONLY:
            monkeypatch.setattr(train_module, name, counting(name))
        config = toy_config(mode=mode, n_hidden=n_hidden)
        family, momentum = init_family(config)
        train_step(family, momentum, toy_batch(config), config, 0, 0)
        if mode == "nsn":
            assert all(count > 0 for count in calls.values()), calls
        else:
            assert calls == {name: 0 for name in self.FAMILY_ONLY}


def bad_set(case, count=32, input_dim=8, classes=3):
    ds = toy_dataset(count, input_dim, classes, seed=9)
    if case == "empty":
        return Dataset(pixels=ds.pixels[:0], labels=ds.labels[:0])
    if case == "wide":
        return toy_dataset(count, input_dim + 1, classes, seed=9)
    return Dataset(pixels=ds.pixels, labels=ds.labels + 2)  # 2..4


class TestDatasetChecks:
    @pytest.mark.parametrize("which,case", [
        ("train", "wide"), ("test", "wide"), ("train", "labels"),
        ("test", "empty"), ("test", "labels")])
    def test_a_bad_set_is_rejected_before_the_out_dir_is_made(
            self, tmp_path, which, case):
        config = toy_config(n_hidden=1, epochs=1, input_dim=8, classes=3,
                            batch_size=16, out_dir=tmp_path / "run")
        good = toy_dataset(32, 8, 3, seed=9)
        sets = {"train": good, "test": good, which: bad_set(case)}
        with pytest.raises(ConfigError):
            train(config, sets["train"], sets["test"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out, data, given, message", [
        (False, True, ("train", "test"), "no out_dir configured"),
        (True, False, (), "no datasets given and no data_dir configured"),
        (True, True, ("test",), "^train_ds is missing"),
        (True, True, ("train",), "^test_ds is missing")],
        ids=["no-out-dir", "no-data", "test-set-alone", "training-set-alone"])
    def test_a_run_missing_its_out_dir_or_a_set_is_a_config_error(
            self, synth_data_dir, tmp_path, out, data, given, message):
        # a set given alone is not dropped for the data_dir's
        config = toy_config(out_dir=tmp_path / "run" if out else None,
                            data_dir=synth_data_dir if data else None)
        sets = {f"{name}_ds": toy_dataset(16, config.input_dim,
                                          config.classes)
                for name in given}
        with pytest.raises(ConfigError, match=message):
            train(config, **sets)
        assert not (tmp_path / "run").exists()


class TestByteBackedData:
    def test_training_never_scales_the_training_set_whole(
            self, synth_data_dir, tmp_path):
        train_ds, test_ds = load_data_dir(synth_data_dir)
        config = toy_config(n_hidden=1, epochs=1, batch_size=32,
                            input_dim=784, classes=10, out_dir=tmp_path)
        train(config, train_ds, test_ds)
        assert "images" not in train_ds.__dict__
        assert train_ds.pixels.dtype == np.uint8

    def test_evaluate_is_the_same_on_bytes_and_scaled_rows(
            self, synth_data_dir, monkeypatch):
        monkeypatch.setattr(train_module, "EVAL_BATCH", 24)
        _, test_ds = load_data_dir(synth_data_dir)
        scaled = Dataset(
            pixels=test_ds.pixels.astype(np.float32) / np.float32(255.0),
            labels=test_ds.labels)
        family = new_family(2, seed=3)
        for view in family.views():
            assert evaluate(view, test_ds) == evaluate(view, scaled)


def workspace_arrays(workspace):
    """Every array of ``workspace``, the lanes' L2 scratch blocks last."""
    return [a for buffers in workspace.models
            for a in (*buffers.pre_acts, buffers.logp, *buffers.masks,
                      buffers.x_masked, *buffers.d_pre, buffers.draw,
                      *(x for g in buffers.grads
                        for x in (g.d_weight, g.d_bias)))
            if a is not None] + workspace.scratch


def step_of(mode, family, config):
    """The step of ``mode`` over ``family``, as f(batch, step, workspace)."""
    momentum = [MomentumState.zeros_like(g) for g in family.groups]
    step_fn = train_step if mode == "nsn" else reference_step
    return lambda batch, step, ws: step_fn(family, momentum, batch, config,
                                           0, step, ws)


class TestStepWorkspace:
    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_a_warmed_up_step_allocates_less_than_one_activation(self,
                                                                  mode):
        config = TrainConfig(mode=mode, n_hidden=2, batch_size=128)
        family = new_family(2, seed=1)
        step = step_of(mode, family, config)
        workspace = StepWorkspace(config, config.batch_size)
        rng = np.random.default_rng(2)
        batch = (rng.random((128, 784), dtype=np.float32),
                 rng.integers(0, 10, size=128))
        step(batch, 0, workspace)
        peak = traced_peak(lambda: step(batch, 1, workspace))
        assert peak < 128 * 784 * 4

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_one_workspace_for_every_step_equals_a_fresh_one_per_step(
            self, mode):
        # at n = 3 two models with dropout run on the helper lane
        for n_hidden in (2, 3):
            config = toy_config(mode=mode, n_hidden=n_hidden)
            batches = [toy_batch(config, seed) for seed in range(4)]
            x, labels = batches[-1]
            batches[-1] = (x[:3], labels[:3])  # a short last batch
            finals = []
            for shared in (True, False):
                family, _ = init_family(config)
                step = step_of(mode, family, config)
                workspace = (StepWorkspace(config, config.batch_size)
                             if shared else None)
                for i, batch in enumerate(batches):
                    step(batch, i, workspace)
                finals.append(array_bytes(family.groups))
            assert finals[0] == finals[1]

    @pytest.mark.parametrize("mode,n_hidden",
                             [("nsn", n) for n in range(1, 5)]
                             + [("reference", n) for n in range(3)])
    def test_no_two_arrays_share_memory(self, mode, n_hidden):
        arrays = workspace_arrays(StepWorkspace(
            toy_config(mode=mode, n_hidden=n_hidden), 8))
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("mode,size", [("nsn", 14_964_152),
                                           ("reference", 9_599_016)])
    def test_workspace_bytes_at_batch_128(self, mode, size):
        # a masked hidden layer holds no copy of its ReLU output: nsn2 has
        # three masked hidden layers over its models, ref2 two, each
        # 128 x 784 float32 less than a copy per layer held; the L2 scratch
        # is a 98 x 784 float32 block per lane, not one 784 x 784 weight
        workspace = StepWorkspace(TrainConfig(mode=mode, n_hidden=2), 128)
        assert sum(a.nbytes for a in workspace_arrays(workspace)) == size

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_a_batch_that_does_not_fit_is_a_shape_error(self, mode):
        config = toy_config(mode=mode)
        family, momentum = init_family(config)
        workspace = StepWorkspace(config, config.batch_size)
        step_fn = train_step if mode == "nsn" else reference_step
        x, labels = toy_batch(replace(config, batch_size=9))
        before = step_state(family, momentum)
        for batch in ((x, labels), (x[:8, :3], labels[:8])):
            with pytest.raises(ShapeError, match="does not fit"):
                step_fn(family, momentum, batch, config, 0, 0, workspace)
        assert step_state(family, momentum) == before

    def test_evaluate_never_scales_the_whole_set(self, monkeypatch):
        monkeypatch.setattr(train_module, "EVAL_BATCH", 128)
        rng = np.random.default_rng(3)
        count = 1024
        ds = Dataset(pixels=rng.integers(0, 256, (count, 784), np.uint8),
                     labels=rng.integers(0, 10, count))
        view = new_family(2, seed=4).view(2)
        want = evaluate(view, Dataset(pixels=ds.rows(slice(None)),
                                      labels=ds.labels))
        peak = traced_peak(lambda: evaluate(view, ds))
        assert peak < count * 784 * 4
        assert "images" not in ds.__dict__ and ds.pixels.dtype == np.uint8
        assert evaluate(view, ds) == want



class InlineExecutor:
    """Runs each task when it is submitted, on the submitting thread, so a
    step's two lanes run one after the other."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def square_gemms(config, task):
    """The batch x width x width GEMMs ``task`` runs: one for the forward
    or a backward piece of a hidden layer (every layer but the head)."""
    m = config.trained_views()[task.model]
    return int(task.kind in ("forward", "error", "weight") and task.layer < m)


def helper_lane_returned():
    """Wait until the helper thread has returned from the lane it is in,
    and so has recorded any error that lane raised: the thread runs one job
    at a time, so a job submitted now runs only after that lane's."""
    train_module._helper_thread().submit(int).result(10)


def step_state(family, momentum):
    return array_bytes(family.groups) + array_bytes(momentum)


def run_steps(mode, config, batches):
    """The losses of each step of ``mode`` over ``batches`` from a fresh
    init, and the bytes of the parameters and momentum after the last."""
    family, momentum = init_family(config)
    workspace = StepWorkspace(config, config.batch_size)
    step_fn = train_step if mode == "nsn" else reference_step
    losses = [step_fn(family, momentum, batch, config, 0, i, workspace)
              for i, batch in enumerate(batches)]
    return losses, step_state(family, momentum)


def workspace_bytes(workspace):
    return [a.tobytes() for a in workspace_arrays(workspace)]


class TestLanes:
    def step_threads(self, monkeypatch, mode, hold_caller):
        """Run three steps of ``mode`` at n = 2; return the thread ident of
        each task run, by task kind, and whether it ran square GEMMs. With
        ``hold_caller``, a square-GEMM error task on the caller first waits
        for the helper to start a square-GEMM task; one is always ready
        beside it, the same layer's weight gradient."""
        config = toy_config(mode=mode, n_hidden=2)
        family, momentum = init_family(config)
        caller = threading.get_ident()
        helper_started = threading.Event()
        ran = []
        run_tasks = train_module._run_tasks

        def recording_run_tasks(tasks, run):
            def recorded(k, lane):
                task = tasks[k]
                square = square_gemms(config, task)
                if square and threading.get_ident() != caller:
                    helper_started.set()
                elif square and task.kind == "error" and hold_caller:
                    assert helper_started.wait(10)
                run(k, lane)
                ran.append((threading.get_ident(), task))
            run_tasks(tasks, recorded)

        step_fn = train_step if mode == "nsn" else reference_step
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "_run_tasks", recording_run_tasks)
            for step in range(3):
                helper_started.clear()
                step_fn(family, momentum, toy_batch(config, step), config, 0,
                        step)
        return ran, step_state(family, momentum)

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_both_threads_run_square_gemm_tasks(self, monkeypatch, mode):
        ran, _ = self.step_threads(monkeypatch, mode, hold_caller=True)
        config = toy_config(mode=mode, n_hidden=2)
        threads = {thread for thread, task in ran
                   if square_gemms(config, task)}
        assert len(threads) == 2 and threading.get_ident() in threads

    def test_the_caller_runs_a_lane_the_busy_helper_has_not_started(
            self, monkeypatch):
        for mode in ("nsn", "reference"):
            config = toy_config(mode=mode, n_hidden=2)
            _, threaded = run_steps(mode, config, [toy_batch(config, step)
                                                   for step in range(3)])
            gate = threading.Event()
            busy = train_module._helper_thread().submit(gate.wait, 10)
            try:
                ran, state = self.step_threads(monkeypatch, mode,
                                               hold_caller=False)
            finally:
                gate.set()
                busy.result()
            # every task of every step, in list order, on this thread
            tasks = StepWorkspace(config, config.batch_size).tasks
            assert [task for _, task in ran] == 3 * tasks
            assert {thread for thread, _ in ran} == {threading.get_ident()}
            assert state == threaded

    @pytest.mark.parametrize("mode,n_hidden", [("nsn", 1), ("nsn", 2),
                                               ("nsn", 3), ("nsn", 4),
                                               ("reference", 0),
                                               ("reference", 1),
                                               ("reference", 2)])
    def test_threaded_lanes_equal_lanes_run_in_turn(self, monkeypatch, mode,
                                                    n_hidden):
        config = toy_config(mode=mode, n_hidden=n_hidden)
        batches = [toy_batch(config, seed) for seed in range(4)]
        x, labels = batches[-1]
        batches[-1] = (x[:3], labels[:3])  # a short last batch
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            threaded = run_steps(mode, config, batches)
        finally:
            sys.setswitchinterval(interval)
        gate = threading.Event()
        busy = train_module._helper_thread().submit(gate.wait, 10)
        try:
            all_on_the_caller = run_steps(mode, config, batches)
        finally:
            gate.set()
            busy.result()
        monkeypatch.setattr(train_module, "ThreadPoolExecutor",
                            InlineExecutor)
        monkeypatch.setattr(train_module, "_helper", None)
        in_turn = run_steps(mode, config, batches)
        assert threaded == in_turn == all_on_the_caller

    def test_a_nan_in_the_head_raises_model_0s_divergence_after_both_lanes(
            self, monkeypatch):
        config = toy_config(n_hidden=2)
        family, momentum = init_family(config)
        train_step(family, momentum, toy_batch(config), config, 0, 0)
        family.groups[0].weight[0, 0] = np.nan
        workspace = StepWorkspace(config, config.batch_size)
        backward_begun, backward_done = [], []

        def counting(piece):
            def counted(*args, **kwargs):
                backward_begun.append(threading.get_ident())
                result = piece(*args, **kwargs)
                backward_done.append(threading.get_ident())
                return result
            return counted

        for name in ("layer_error", "weight_gradient"):
            monkeypatch.setattr(train_module, name,
                                counting(getattr(train_module, name)))
        before = step_state(family, momentum)
        with pytest.raises(DivergenceError,
                           match=r"^non-finite loss at epoch 0 step 1 "
                                 r"\(model 0\)$"):
            train_step(family, momentum, toy_batch(config, 1), config, 0, 1,
                       workspace)
        at_raise = step_state(family, momentum) + workspace_bytes(workspace)
        # every backward piece either lane had begun had finished
        assert len(backward_done) == len(backward_begun)
        assert step_state(family, momentum) == before  # no update ran
        time.sleep(0.05)
        assert (step_state(family, momentum)
                + workspace_bytes(workspace)) == at_raise
        assert len(backward_done) == len(backward_begun)

    def test_an_error_in_the_helper_lane_is_raised_by_the_step(
            self, monkeypatch):
        config = toy_config(n_hidden=2)
        family, momentum = init_family(config)
        caller = threading.get_ident()
        caller_started = threading.Event()
        caller_done = []
        forward = train_module.layer_forward

        # The helper's forward fails while the caller runs one, whichever
        # lane claims a forward first: a forward of another model is
        # always ready beside the caller's.
        def failing_forward(params, buffers, x, i, *args, **kwargs):
            if threading.get_ident() != caller:
                assert caller_started.wait(10)
                raise ShapeError("helper lane failed")
            caller_started.set()
            helper_lane_returned()
            result = forward(params, buffers, x, i, *args, **kwargs)
            caller_done.append((len(params) - 1, i))
            return result

        monkeypatch.setattr(train_module, "layer_forward", failing_forward)
        before = step_state(family, momentum)
        with pytest.raises(ShapeError, match="helper lane failed"):
            train_step(family, momentum, toy_batch(config), config, 0, 0)
        # the layer the caller was running when the helper failed finished,
        # and the caller claimed no task after it
        assert len(caller_done) == 1
        assert step_state(family, momentum) == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_step(self):
        config = toy_config(n_hidden=2)
        family, momentum = init_family(config)
        train_step(family, momentum, toy_batch(config), config, 0, 0)
        assert exit_code_in_forked_child(
            lambda: train_step(family, momentum, toy_batch(config, 1),
                               config, 0, 1)) == 0


class TestStepTasks:
    @pytest.mark.parametrize("mode,n_hidden",
                             [("nsn", n) for n in range(1, 7)]
                             + [("reference", n) for n in range(4)])
    def test_every_hazard_is_ordered_and_every_gradient_is_read(
            self, mode, n_hidden):
        # most of these depths are outside the protocol, which gives no L2
        config = TrainConfig(mode=mode, n_hidden=n_hidden, l2_lambda=0.0)
        views = config.trained_views()
        tasks = step_tasks(config)
        ancestors = []
        for k, task in enumerate(tasks):
            assert all(d < k for d in task.deps)  # a topological order
            ancestors.append(set(task.deps).union(
                *(ancestors[d] for d in task.deps)))
        for k, task in enumerate(tasks):
            for u, earlier in enumerate(tasks[:k]):
                if (earlier.writes & (task.reads | task.writes)
                        or earlier.reads & task.writes):
                    assert u in ancestors[k]
        (check,) = [k for k, task in enumerate(tasks) if task.kind == "check"]
        at = {(task.kind, task.model, task.layer): k
              for k, task in enumerate(tasks)
              if task.kind in ("mask", "forward", "error", "weight")}
        for (kind, i, j), k in at.items():
            # a model's masks are one chain through its generator, in layer
            # order; a layer's forward follows its mask and the layer below,
            # and each backward piece of a layer follows its forward
            before = {"mask": [("mask", i, j2) for j2 in range(j)],
                      "forward": [("mask", i, j), ("forward", i, j - 1)],
                      "error": [("forward", i, j), ("mask", i, j)],
                      "weight": [("forward", i, j)]}[kind]
            assert {at[key] for key in before if key in at} <= ancestors[k]
        for i, m in enumerate(views):
            assert at[("forward", i, m)] in ancestors[check]  # its loss
            drawn = sorted(j for kind, i2, j in at if (kind, i2) == ("mask", i))
            spec = config.model_spec(m)
            keeps = [spec.input_keep] + [spec.hidden_keep] * m
            assert drawn == [j for j, keep in enumerate(keeps) if keep < 1]
        finishes = [k for k, task in enumerate(tasks)
                    if task.kind == "finish"]
        for k in finishes:
            g = tasks[k].group
            # every piece that multiplies by group g's weight
            readers = [u for u, task in enumerate(tasks)
                       if task.kind in ("forward", "error")
                       and views[task.model] - task.layer == g]
            assert readers and set(readers) <= ancestors[k]
            assert check in ancestors[k]
        formed = {(task.model, task.layer) for task in tasks
                  if task.kind == "weight"}
        read = {grad for k in finishes for grad in tasks[k].grads}
        assert formed == read
        if mode == "nsn":  # a model's input and second layers only
            assert {j for _, j in formed} == ({0, 1} if n_hidden else {0})
        else:
            assert len(formed) == n_hidden + 1
        rows = {}
        for k in finishes:  # each group's rows, once
            task = tasks[k]
            rows.setdefault(task.group, []).extend(
                range(task.rows.start, task.rows.stop))
        assert rows == {g: list(range(config.classes if g == 0
                                      else config.input_dim))
                        for g in range(n_hidden + 1)}

    @pytest.mark.parametrize("n_hidden,gemms", [(2, 7), (4, 23), (6, 47)])
    def test_square_gemms_of_a_family_step(self, n_hidden, gemms):
        # forming every gradient would take 7, 26 and 57
        config = TrainConfig(n_hidden=n_hidden, l2_lambda=0.0)
        assert sum(square_gemms(config, task)
                   for task in step_tasks(config)) == gemms

    @pytest.mark.parametrize("mode,n_hidden", [("nsn", 1), ("nsn", 3),
                                               ("reference", 2)])
    def test_masks_are_one_forward_passes_draws(self, mode, n_hidden):
        config = toy_config(mode=mode, n_hidden=n_hidden)
        family, momentum = init_family(config)
        workspace = StepWorkspace(config, config.batch_size)
        step_fn = train_step if mode == "nsn" else reference_step
        x, labels = toy_batch(config, 3)
        x = x[:5]  # a short batch draws masks of its own rows only
        views = config.trained_views()
        for step in range(2):
            params = [[layer.copy() for layer in family.view(m)]
                      for m in views]
            step_fn(family, momentum, (x, labels[:5]), config, 1, step,
                    workspace)
            for i, m in enumerate(views):
                # dropout is keyed by (seed, epoch, step, model)
                rng = np.random.default_rng([config.dropout_seed, 1, step, i])
                spec = config.model_spec(m)
                logp, want = model_forward(spec, params[i], x, "train", rng)
                got = workspace.models[i]
                for a, b in zip(got.masks, want.masks, strict=True):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a[:5].tobytes() == b.tobytes()
                assert got.logp[:5].tobytes() == logp.tobytes()

    @pytest.mark.parametrize("mode", ["nsn", "reference"])
    def test_finish_bytes_do_not_depend_on_the_block_size(self, monkeypatch,
                                                          mode):
        # 20-wide groups finish in halves of 10 rows, the 5-row head in 3
        # and 2: blocks of 1, 3 and 7 rows, and of 98, more than a half
        config = toy_config(mode=mode, n_hidden=2, input_dim=20)
        batches = [toy_batch(config, seed) for seed in range(3)]
        updates = []
        apply_update = train_module.apply_update

        def counted(*args, **kwargs):
            updates.append(args[0].shape)
            return apply_update(*args, **kwargs)

        monkeypatch.setattr(train_module, "apply_update", counted)
        results = []
        for rows in (1, 3, 7, 98):
            monkeypatch.setattr(train_module, "FINISH_ROWS", rows)
            updates.clear()
            results.append(run_steps(mode, config, batches))
            # per finish task: one update per block of weight rows, then
            # one of all its bias rows
            tasks = [task for task in step_tasks(config)
                     if task.kind == "finish"]
            sizes = [task.rows.stop - task.rows.start for task in tasks]
            assert len(updates) == len(batches) * sum(
                -(-size // rows) + 1 for size in sizes)
            assert sorted(shape for shape in updates if len(shape) == 1) \
                == sorted((size,) for size in sizes * len(batches))
        assert all(result == results[0] for result in results)

    def test_gradients_nothing_reads_are_never_formed(self):
        config = toy_config(n_hidden=4)
        batches = [toy_batch(config, seed) for seed in range(3)]
        want = run_steps("nsn", config, batches)
        family, momentum = init_family(config)
        workspace = StepWorkspace(config, config.batch_size)
        unread = [a for buffers in workspace.models
                  for grads in buffers.grads[2:]
                  for a in (grads.d_weight, grads.d_bias)]
        assert len(unread) == 2 * (1 + 2 + 3)
        for a in unread:
            a.fill(np.nan)
        losses = [train_step(family, momentum, batch, config, 0, i,
                             workspace)
                  for i, batch in enumerate(batches)]
        assert (losses, step_state(family, momentum)) == want
        assert all(np.isnan(a).all() for a in unread)


@st.composite
def task_graphs(draw):
    """A task list of 1-10 tasks in topological order, each waiting for up
    to three earlier ones, and a short sleep for each task."""
    count = draw(st.integers(1, 10))
    tasks = [Task("t", deps=tuple(sorted(draw(
                 st.sets(st.integers(0, k - 1), max_size=3)))) if k else ())
             for k in range(count)]
    sleeps = draw(st.lists(st.sampled_from([0.0, 1e-5, 1e-4, 1e-3]),
                           min_size=count, max_size=count))
    return tasks, sleeps


class TaskFailed(Exception):
    def __init__(self, k):
        super().__init__(f"task {k} failed")
        self.k = k


class TaskLog:
    """A ``run`` for :func:`_run_tasks` that sleeps each task's time and
    logs its ("start" | "end" | "raise", task, lane) events in one order.
    The first task at or after ``fail_from`` that ``fail_lane`` runs
    raises. A caller's task that starts after a helper's raised finishes
    only once the helper's lane has returned, with the error recorded."""

    def __init__(self, sleeps, fail_lane=None, fail_from=0):
        self.sleeps, self.fail_lane, self.fail_from = (sleeps, fail_lane,
                                                       fail_from)
        self.events = []
        self.raised = False
        self.lock = threading.Lock()

    def log(self, what, k, lane):
        with self.lock:
            self.events.append((what, k, lane))
            self.raised |= what == "raise"

    def run(self, k, lane):
        self.log("start", k, lane)
        if self.raised and lane == 0:
            helper_lane_returned()
        time.sleep(self.sleeps[k])
        if lane == self.fail_lane and k >= self.fail_from:
            self.fail_lane = None  # only once
            self.log("raise", k, lane)
            raise TaskFailed(k)
        self.log("end", k, lane)


@contextlib.contextmanager
def switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as it can
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestRunTasks:
    @pytest.mark.parametrize("failing_lane", [0, 1])
    def test_a_task_failing_while_the_other_lane_waits_on_it_ends_the_run(
            self, failing_lane):
        # a and b are ready at once, c waits for both
        tasks = [Task("a"), Task("b"), Task("c", deps=(0, 1))]
        failing_started, other_done = threading.Event(), threading.Event()
        ran, raised = [], []

        def run(k, lane):
            ran.append((tasks[k].kind, lane))
            if lane == failing_lane:
                failing_started.set()
                assert other_done.wait(10)
                time.sleep(0.05)  # the other lane now waits for this task
                raise ShapeError("task failed")
            assert failing_started.wait(10)
            other_done.set()

        def run_all():
            try:
                train_module._run_tasks(tasks, run)
            except ShapeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run_all)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        assert len(raised) == 1
        assert sorted(lane for _, lane in ran) == [0, 1]
        assert "c" not in [kind for kind, _ in ran]

    @settings(deadline=None, max_examples=60)
    @given(graph=task_graphs(), fail_lane=st.sampled_from([None, 0, 1]),
           fail_from=st.integers(0, 9))
    def test_any_graph_runs_each_task_once_after_its_deps(
            self, graph, fail_lane, fail_from):
        tasks, sleeps = graph
        log = TaskLog(sleeps, fail_lane, fail_from)
        with switching_often():
            try:
                train_module._run_tasks(tasks, log.run)
            except TaskFailed as exc:
                failed = exc
            else:
                failed = None
        at_return = list(log.events)
        helper_lane_returned()
        # both lanes were done: nothing ran on after the call returned
        assert log.events == at_return
        starts = [(k, lane) for what, k, lane in at_return
                  if what == "start"]
        ended = [k for what, k, _ in at_return if what != "start"]
        assert sorted(ended) == sorted(k for k, _ in starts)
        assert len(set(ended)) == len(ended)  # each task at most once
        done = set()
        for what, k, _ in at_return:
            if what == "start":
                assert set(tasks[k].deps) <= done
            elif what == "end":
                done.add(k)
        raises = [(k, lane) for what, k, lane in at_return if what == "raise"]
        if failed is None:
            assert raises == [] and sorted(ended) == list(range(len(tasks)))
            return
        # the one task that raised is the error raised, and it stopped new
        # claims: its lane started none after it, and the other lane at
        # most the one it claimed before the error was recorded
        ((k, lane),) = raises
        assert failed.k == k
        at = at_return.index(("raise", k, lane))
        after = [other for what, _, other in at_return[at:]
                 if what == "start"]
        assert lane not in after
        if lane == 1:
            assert len(after) <= 1

    @settings(deadline=None, max_examples=30)
    @given(graph=task_graphs())
    def test_with_the_helper_busy_the_caller_runs_every_task_in_order(
            self, graph):
        tasks, sleeps = graph
        log = TaskLog(sleeps)
        gate = threading.Event()
        busy = train_module._helper_thread().submit(gate.wait, 10)
        try:
            with switching_often():
                train_module._run_tasks(tasks, log.run)
        finally:
            gate.set()
            busy.result()
        assert [(k, lane) for what, k, lane in log.events
                if what == "start"] == [(k, 0) for k in range(len(tasks))]


def exit_code_in_forked_child(fn):
    """Exit code of a forked child that runs ``fn``: 0 when it returns,
    1 when it raises; the test fails if it has not exited in 30 s."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 1
        try:
            fn()
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish")
        time.sleep(0.01)


EVAL_ROWS = 16  # rows a chunk in the two-lane evaluation tests


def eval_case(count, kind):
    """A two-hidden-layer model and a 12-wide, 5-class set of ``count``
    rows whose pixels are bytes or already-scaled floats."""
    rng = np.random.default_rng(count)
    pixels = rng.integers(0, 256, (count, 12), np.uint8)
    if kind == "float":
        pixels = pixels.astype(np.float32) / np.float32(255.0)
    ds = Dataset(pixels=pixels, labels=rng.integers(0, 5, count))
    return new_family(2, width=12, classes=5, seed=31).view(2), ds


def accuracy_chunk_by_chunk(view, ds, rows):
    """Accuracy of ``view`` on ``ds`` in chunks of ``rows``, one after the
    other on this thread, each forward into fresh arrays."""
    spec = spec_for_params(view)
    correct = 0
    for start in range(0, ds.count, rows):
        logp, _ = model_forward(spec, view, ds.rows(slice(start,
                                                          start + rows)))
        correct += int(np.sum(np.argmax(logp, axis=1)
                              == ds.labels[start:start + rows]))
    return correct / ds.count


class TestEvaluateLanes:
    @pytest.fixture(autouse=True)
    def eval_rows(self, monkeypatch):
        monkeypatch.setattr(train_module, "EVAL_BATCH", EVAL_ROWS)

    def record_forwards(self, monkeypatch, meet=False,
                        fail_on_helper=False):
        """Route evaluate's forward passes through a recorder and return
        the (thread ident, rows) list it appends each finished pass to.
        With ``meet``, a lane's pass waits until the other lane has started
        one, so each lane runs a chunk whichever claims first. With
        ``fail_on_helper`` as well, the helper's pass then raises, and the
        caller's finishes only once the helper's lane has returned."""
        caller = threading.get_ident()
        started = [threading.Event(), threading.Event()]  # by lane
        calls = []

        def recording_forward(spec, params, x, *args, **kwargs):
            lane = int(threading.get_ident() != caller)
            started[lane].set()
            if meet:
                assert started[1 - lane].wait(10)
            if fail_on_helper:
                if lane == 1:
                    raise ShapeError("helper lane failed")
                helper_lane_returned()
            result = model_forward(spec, params, x, *args, **kwargs)
            calls.append((threading.get_ident(), x.shape[0]))
            return result

        monkeypatch.setattr(train_module, "model_forward", recording_forward)
        return calls

    @pytest.mark.parametrize("kind", ["bytes", "float"])
    # 1, 2 and 3 chunks, and 3 whose last is short
    @pytest.mark.parametrize("count", [16, 32, 48, 45])
    def test_two_lanes_equal_the_chunks_run_in_turn(self, monkeypatch, kind,
                                                    count):
        view, ds = eval_case(count, kind)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            threaded = evaluate(view, ds)
        finally:
            sys.setswitchinterval(interval)
        calls = self.record_forwards(monkeypatch)
        monkeypatch.setattr(train_module, "ThreadPoolExecutor",
                            InlineExecutor)
        monkeypatch.setattr(train_module, "_helper", None)
        in_turn = evaluate(view, ds)
        assert threaded == in_turn == accuracy_chunk_by_chunk(view, ds,
                                                              EVAL_ROWS)
        assert [rows for _, rows in calls] == [
            min(EVAL_ROWS, count - start)
            for start in range(0, count, EVAL_ROWS)]

    def test_every_chunk_is_claimed_once_under_frequent_switches(
            self, monkeypatch):
        view, ds = eval_case(1000, "bytes")
        rows = 4
        monkeypatch.setattr(train_module, "EVAL_BATCH", rows)
        first_rows = []

        def recording_forward(spec, params, x, *args, **kwargs):
            first_rows.append(x[0].tobytes())
            return model_forward(spec, params, x, *args, **kwargs)

        monkeypatch.setattr(train_module, "model_forward", recording_forward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            acc = evaluate(view, ds)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(first_rows) == sorted(
            ds.rows(start).tobytes() for start in range(0, ds.count, rows))
        assert acc == accuracy_chunk_by_chunk(view, ds, rows)

    def test_chunks_run_on_both_threads(self, monkeypatch):
        view, ds = eval_case(48, "bytes")
        want = accuracy_chunk_by_chunk(view, ds, EVAL_ROWS)
        calls = self.record_forwards(monkeypatch, meet=True)
        assert evaluate(view, ds) == want
        threads = {thread for thread, _ in calls}
        assert len(threads) == 2 and threading.get_ident() in threads
        assert len(calls) == 3

    def test_the_caller_runs_every_chunk_when_the_helper_is_busy(
            self, monkeypatch):
        view, ds = eval_case(48, "bytes")
        want = accuracy_chunk_by_chunk(view, ds, EVAL_ROWS)
        calls = self.record_forwards(monkeypatch)
        gate = threading.Event()
        busy = train_module._helper_thread().submit(gate.wait, 10)
        try:
            acc = evaluate(view, ds)
        finally:
            gate.set()
            busy.result()
        assert acc == want
        assert calls == [(threading.get_ident(), EVAL_ROWS)] * 3

    def test_an_error_in_the_helper_lane_is_raised_by_evaluate(
            self, monkeypatch):
        view, ds = eval_case(48, "bytes")
        calls = self.record_forwards(monkeypatch, meet=True,
                                     fail_on_helper=True)
        with pytest.raises(ShapeError, match="helper lane failed"):
            evaluate(view, ds)
        # only the caller's chunks finished; the failure stopped new claims
        assert calls and all(thread == threading.get_ident()
                             for thread, _ in calls)
        assert calls == [(threading.get_ident(), EVAL_ROWS)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_evaluates(self):
        view, ds = eval_case(48, "bytes")
        want = evaluate(view, ds)  # the helper has started

        def child():
            assert evaluate(view, ds) == want

        assert exit_code_in_forked_child(child) == 0

    def test_a_one_chunk_set_wakes_no_helper(self, monkeypatch):
        submitted = []

        class RecordingExecutor(InlineExecutor):
            def submit(self, fn, *args):
                submitted.append(fn)
                return super().submit(fn, *args)

        monkeypatch.setattr(train_module, "_helper_thread",
                            RecordingExecutor)
        evaluate(*eval_case(EVAL_ROWS, "bytes"))
        assert submitted == []
        evaluate(*eval_case(EVAL_ROWS + 1, "bytes"))
        assert len(submitted) == 1

    def test_two_lanes_hold_what_one_2048_row_set_held(self, monkeypatch):
        monkeypatch.setattr(train_module, "EVAL_BATCH", EVAL_BATCH)
        rng = np.random.default_rng(5)
        count = 5 * EVAL_BATCH + 100
        ds = Dataset(pixels=rng.integers(0, 256, (count, 784), np.uint8),
                     labels=rng.integers(0, 10, count))
        view = new_family(2, seed=6).view(2)
        one_set = ModelBuffers(spec_for_params(view), 2048, "eval")
        held = (sum(a.nbytes for a in (*one_set.pre_acts, one_set.logp))
                + 2048 * 784 * 4)  # and its scaled rows
        evaluate(view, ds)  # the helper thread is started
        peak = traced_peak(lambda: evaluate(view, ds))
        # a pass's log-softmax and argmax temporaries, under 64 bytes a row
        assert peak < held + 2048 * 64
