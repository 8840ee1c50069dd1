"""Training harness: the per-minibatch family procedure, reference-model
training, evaluation, metrics files, and checkpoint persistence.

One family step runs, in order: the lesser-to-bigger parameter copy, a
train-mode forward of every model with independent per-model dropout masks
(the softmax-regression model gets none), per-model backward passes, the L2
penalty added to the base model's weight gradients, pairwise gradient
averaging into canonical groups, the EMA-style momentum update, and the
parameter update. Reference runs train a single model with plain gradients,
L2 on all weights, and standard momentum; that model is stored as a family
whose base view is the only one trained, so both kinds of run share one
init, resume, loop and checkpoint path, and one step body: the forward,
backward and L2 of the views a run trains, and the in-place update of every
group. The two steps differ only in the copy, the pairing and the momentum
format.

A step runs on two lanes: the calling thread and one helper thread per
process, started on first use. The per-model passes are independent until
the pairing, and the per-group updates after it, so the base model's
forward, backward and L2, and group n's update, run on the caller while
models 0..n-1 and groups 0..n-1 run, in order, on the helper; a helper
that has not started its lane by the time the caller's is done leaves it
to the caller. An evaluation splits the test rows into chunks that each
lane takes in turn until none is left. Every BLAS call stays
single-threaded in the thread that makes it, and each float operation
reads the same data in the same order as on one thread, so results are
bitwise those of running the lanes one after the other, on whichever
threads. A step or an evaluation returns or raises only once both lanes
are done.

Randomness is split by purpose and keyed by position: shuffling by
(seed, epoch), dropout by (seed, epoch, step, model). Resuming from a
checkpoint therefore reproduces the uninterrupted run bit for bit.

A run allocates every array its steps write once, in a
:class:`StepWorkspace`, and updates momentum and parameters in place, so a
step allocates nothing large; each lane of an evaluation scales one chunk
of test rows at a time into its own reused array.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .blas import one_blas_thread
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import ConfigError, ConsistencyError, DivergenceError, FormatError
from .family import (ModelFamily, build_family, copy_up, init_layer,
                     paired_average_gradients)
from .mnist import BatchPlan, Dataset, batches, load_data_dir
from .nn import (DenseLayer, ModelBuffers, ModelSpec, model_backward,
                 model_forward, nll_loss, spec_for_params)
from .optim import (MomentumState, Schedule, apply_update, l2_gradient, lr_at,
                    momentum_nsn, momentum_standard)

DEFAULT_EPOCHS = 600
DEFAULT_BATCH = 128
# Rows an evaluation chunk holds; the two lanes' buffers together hold
# what one 2048-row batch's did. With the kernels OpenBLAS 0.3.31 picks
# at run time on an AVX-512 machine (SkylakeX), a row's GEMM result is the
# same in any chunk of 128 rows or more, so 1024-row chunks give the
# logits 2048-row batches gave.
EVAL_BATCH = 1024

METRICS_FILE = "metrics.csv"
BEST_FILE = "best.csv"
BEST_CHECKPOINT = "checkpoint_best.nsn"
FINAL_CHECKPOINT = "checkpoint_final.nsn"


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "nsn"  # "nsn" | "reference"
    n_hidden: int = 2
    epochs: int = DEFAULT_EPOCHS
    batch_size: int = DEFAULT_BATCH
    schedule: Schedule = field(default_factory=Schedule)
    l2_lambda: float = 9e-5
    input_keep: float = 0.8
    hidden_keep: float = 0.5
    init_seed: int = 0
    shuffle_seed: int = 1
    dropout_seed: int = 2
    shuffle: bool = True
    input_dim: int = 784  # also the hidden width, which tying requires
    classes: int = 10
    data_dir: Path | None = None
    out_dir: Path | None = None

    def __post_init__(self):
        if self.mode not in ("nsn", "reference"):
            raise ConfigError(f"mode must be 'nsn' or 'reference', "
                              f"got {self.mode!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.l2_lambda < math.inf:
            raise ConfigError(f"l2_lambda must be finite and >= 0, "
                              f"got {self.l2_lambda}")
        min_hidden = 1 if self.mode == "nsn" else 0
        if self.n_hidden < min_hidden:
            raise ConfigError(f"{self.mode} mode needs n_hidden >= "
                              f"{min_hidden}, got {self.n_hidden}")
        for name in ("init_seed", "shuffle_seed", "dropout_seed"):
            if not 0 <= getattr(self, name) < 2**64:  # a checkpoint's u64
                raise ConfigError(f"{name} must be in [0, 2**64), "
                                  f"got {getattr(self, name)}")
        for name, p in (("input_keep", self.input_keep),
                        ("hidden_keep", self.hidden_keep)):
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {p}")

    def trained_views(self) -> Sequence[int]:
        """Views a run trains: every view of a family, the base view of a
        baseline."""
        if self.mode == "nsn":
            return range(self.n_hidden + 1)
        return [self.n_hidden]

    def model_spec(self, m: int) -> ModelSpec:
        """Spec of the model with m hidden layers; the 0-hidden model never
        gets dropout."""
        dims = (self.input_dim,) * (m + 1) + (self.classes,)
        if m == 0:
            return ModelSpec(dims)
        return ModelSpec(dims, self.input_keep, self.hidden_keep)

    def echo(self) -> str:
        d = {k: (str(v) if isinstance(v, Path) else v)
             for k, v in self.__dict__.items()}
        d["schedule"] = self.schedule.__dict__
        return json.dumps(d, sort_keys=True)


@dataclass
class MetricsRecord:
    epoch: int
    lr: float
    losses: list
    accuracies: list


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_accuracies: list
    views: list  # final parameters, one layer list per model
    checkpoint_path: Path


def _dropout_rng(config: TrainConfig, epoch: int, step: int,
                 model: int) -> np.random.Generator:
    return np.random.default_rng([config.dropout_seed, epoch, step, model])


class StepWorkspace:
    """Every array a training step writes, allocated once for a run.

    One train-mode :class:`ModelBuffers` per model ``config`` trains, in
    the order of ``config.trained_views()``, for batches of up to ``rows``
    rows (a shorter last batch uses their leading rows); no two models
    share an array. One scratch array as large as the base model's largest
    weight holds its L2 term.
    """

    def __init__(self, config: TrainConfig, rows: int):
        self.models = [ModelBuffers(config.model_spec(m), rows)
                       for m in config.trained_views()]
        dims = self.models[-1].spec.dims
        self.scratch = np.empty(max(o * i for i, o in zip(dims, dims[1:])),
                                np.float32)

    def scratch_like(self, a: np.ndarray) -> np.ndarray:
        return self.scratch[:a.size].reshape(a.shape)


_helper: ThreadPoolExecutor | None = None


def _helper_thread() -> ThreadPoolExecutor:
    """The process's one helper thread, started on first use."""
    global _helper
    if _helper is None:
        _helper = ThreadPoolExecutor(max_workers=1,
                                     thread_name_prefix="nsn-lane")
    return _helper


def _forget_helper() -> None:
    # A forked child inherits the executor but not its thread, so a task
    # submitted to it would never run; the child starts its own.
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def _in_two_lanes(on_helper: Sequence[Callable[[], None]],
                  on_caller: Callable[[], None]) -> None:
    """Run the calls ``on_helper``, in order, on the helper thread while
    ``on_caller`` runs on this one. Whichever thread reaches them first
    runs them all, so if the helper has not started by the time
    ``on_caller`` is done, this thread runs them rather than wait for it
    to get a core; with none, the helper is not woken. Returns, or
    raises the caller's error or else the helper's, only once both lanes
    are done. BLAS is set to one thread before either lane starts."""
    one_blas_thread()
    if not on_helper:
        on_caller()
        return
    claim = threading.Lock()

    def run_helper_lane() -> None:
        for call in on_helper:
            call()

    def on_helper_thread() -> None:
        if claim.acquire(blocking=False):
            run_helper_lane()

    future = _helper_thread().submit(on_helper_thread)
    try:
        on_caller()
    finally:
        mine = claim.acquire(blocking=False)
        if not mine:
            wait((future,))
    if mine:
        run_helper_lane()
    else:
        future.result()


def _forward_backward(family: ModelFamily,
                      batch: tuple[np.ndarray, np.ndarray],
                      config: TrainConfig, epoch: int, step: int,
                      workspace: StepWorkspace | None
                      ) -> tuple[list[float], list]:
    """Train-mode forward, loss and backward of each view ``config``
    trains, dropout keyed by its position among them, into ``workspace``
    (built when None); then L2 on the base view's weight gradients. The
    base view runs on the caller, the others in order on the helper; the
    losses are checked in view order once both are done. Returns the
    losses and the gradient sets (input layer first)."""
    x, labels = batch
    views = config.trained_views()
    if workspace is None:
        workspace = StepWorkspace(config, x.shape[0])
    losses: list[float] = [0.0] * len(views)
    grad_sets: list = [None] * len(views)

    def run(i: int) -> None:
        buffers = workspace.models[i]
        spec = buffers.spec
        rng = (_dropout_rng(config, epoch, step, i)
               if spec.uses_dropout else None)
        view = family.view(views[i])
        logp, _ = model_forward(spec, view, x, "train", rng, out=buffers)
        losses[i] = nll_loss(logp, labels)
        grad_sets[i] = model_backward(spec, view, buffers, labels)

    def base_view() -> None:
        run(len(views) - 1)
        if config.l2_lambda > 0:
            for grads, layer in zip(grad_sets[-1], family.view(family.n)):
                grads.d_weight += l2_gradient(
                    config.l2_lambda, layer.weight,
                    out=workspace.scratch_like(layer.weight))

    _in_two_lanes([partial(run, i) for i in range(len(views) - 1)],
                  base_view)
    for m, loss in zip(views, losses):
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch} "
                                  f"step {step} (model {m})")
    return losses, grad_sets


def _update(family: ModelFamily, momentum: Sequence[MomentumState],
            group_grads: Sequence, config: TrainConfig, epoch: int,
            ema: bool) -> None:
    """Momentum (EMA when ``ema``, else standard), then the parameter
    update, in place for every group: group n on the caller, groups
    0..n-1 in order on the helper. Each group's temporaries go into the
    gradient it consumes."""
    lr = lr_at(config.schedule, epoch)
    alpha = config.schedule.alpha

    def update(g: int) -> None:
        grads, state, layer = group_grads[g], momentum[g], family.groups[g]
        pairs = ((state.v_weight, grads.d_weight),
                 (state.v_bias, grads.d_bias))
        for v, grad in pairs:
            if ema:
                momentum_nsn(v, grad, alpha, out=v, scratch=grad)
            else:
                momentum_standard(v, grad, alpha, out=v)
        for p, (v, grad) in zip((layer.weight, layer.bias), pairs):
            apply_update(p, v, lr, out=p, scratch=grad)

    _in_two_lanes([partial(update, g) for g in range(family.n)],
                  partial(update, family.n))


def train_step(family: ModelFamily, momentum: Sequence[MomentumState],
               batch: tuple[np.ndarray, np.ndarray], config: TrainConfig,
               epoch: int, step: int = 0,
               workspace: StepWorkspace | None = None) -> list[float]:
    """One family minibatch update; returns each model's pre-update loss.

    ``momentum`` is one state per group, head first. ``workspace`` holds
    buffers for models 0..n; a fresh one is built when none is given.
    """
    copy_up(family)
    losses, grad_sets = _forward_backward(
        family, batch, config, epoch, step, workspace)
    _update(family, momentum, paired_average_gradients(grad_sets), config,
            epoch, ema=True)
    return losses


def reference_step(family: ModelFamily, momentum: Sequence[MomentumState],
                   batch: tuple[np.ndarray, np.ndarray], config: TrainConfig,
                   epoch: int, step: int = 0,
                   workspace: StepWorkspace | None = None) -> list[float]:
    """One regularly-trained minibatch update of a baseline's base view:
    its own gradients, L2 on every weight layer, standard momentum.
    Arguments are as for :func:`train_step`; ``workspace`` holds buffers
    for the base model only."""
    losses, (grads,) = _forward_backward(
        family, batch, config, epoch, step, workspace)
    _update(family, momentum, grads[::-1], config, epoch, ema=False)
    return losses


def evaluate(params: Sequence[DenseLayer], dataset: Dataset,
             eval_batch: int = EVAL_BATCH) -> float:
    """Fraction of samples whose argmax log-probability equals the label.

    The rows are split into chunks of ``eval_batch`` that the two lanes
    share: each lane takes the next unclaimed chunk until none is left,
    and their counts of correct rows are summed. Which lane runs a chunk
    never changes its arithmetic, so the result does not depend on timing;
    a set of one chunk runs on the caller alone. Each lane scales its byte
    rows into its own array and runs the forward pass into its own
    buffers, all made here before the lanes start, so no float copy of the
    whole set is ever made.
    """
    spec = spec_for_params(params)
    rows = min(eval_batch, dataset.count)
    dtype = np.result_type(np.float32, dataset.pixels,
                           *(layer.weight for layer in params))
    chunks = range(0, dataset.count, eval_batch)
    lanes = [(ModelBuffers(spec, rows, "eval", dtype),
              np.empty((rows, dataset.pixels.shape[1]), np.float32))
             for _ in range(2 if len(chunks) > 1 else 1)]
    unclaimed = iter(chunks)
    claim = threading.Lock()
    correct = [0] * len(lanes)

    def run_lane(i: int) -> None:
        buffers, scaled = lanes[i]
        while True:
            with claim:
                start = next(unclaimed, None)
            if start is None:
                return
            stop = min(start + eval_batch, dataset.count)
            x = dataset.rows(slice(start, stop), out=scaled[:stop - start])
            logp, _ = model_forward(spec, params, x, "eval", out=buffers)
            correct[i] += int(np.sum(np.argmax(logp, axis=1)
                                     == dataset.labels[start:stop]))

    _in_two_lanes([partial(run_lane, i) for i in range(1, len(lanes))],
                  partial(run_lane, 0))
    return sum(correct) / dataset.count


class _MetricsWriter:
    """Appends one CSV row per epoch, flushing immediately.

    A fresh run starts a fresh file. A resumed run keeps the earlier run's
    rows before ``start_epoch`` and drops the rest, so it rewrites them
    instead of repeating them; a row that is not UTF-8 or whose first field
    is not an epoch is a :class:`FormatError`, raised before the file is
    rewritten.
    """

    def __init__(self, out_dir: Path, n_models: int, start_epoch: int):
        path = out_dir / METRICS_FILE
        cols = (["epoch", "lr"]
                + [f"loss_m{i}" for i in range(n_models)]
                + [f"acc_m{i}" for i in range(n_models)])
        kept = [",".join(cols) + "\n"]
        if start_epoch > 0 and path.exists():
            rows = path.read_bytes().splitlines(keepends=True)[1:]
            for line, row in enumerate(rows, 2):
                try:
                    row = row.decode("utf-8")
                    epoch = int(row.split(",", 1)[0])
                except ValueError:  # UnicodeDecodeError included
                    raise FormatError(f"{path} line {line} is not a "
                                      f"metrics row") from None
                if epoch < start_epoch:
                    kept.append(row)
        self.handle = open(path, "w", encoding="utf-8")
        self.handle.writelines(kept)
        self.handle.flush()

    def write(self, record: MetricsRecord) -> None:
        row = ([str(record.epoch), f"{record.lr:.8g}"]
               + [f"{v:.8g}" for v in record.losses]
               + [f"{v:.8g}" for v in record.accuracies])
        self.handle.write(",".join(row) + "\n")
        self.handle.flush()

    def close(self) -> None:
        self.handle.close()


def _write_best(out_dir: Path, best_epoch: int,
                best_accs: Sequence[float]) -> None:
    path = out_dir / BEST_FILE
    cols = ["best_epoch"] + [f"acc_m{i}" for i in range(len(best_accs))]
    row = [str(best_epoch)] + [f"{v:.8g}" for v in best_accs]
    path.write_text(",".join(cols) + "\n" + ",".join(row) + "\n",
                    encoding="utf-8")


def family_from_checkpoint(ckpt: Checkpoint) -> tuple[ModelFamily,
                                                      list[MomentumState]]:
    """The family, or a baseline stored as one, and its momentum state,
    sharing the checkpoint's arrays."""
    return ModelFamily(ckpt.groups), ckpt.momentum


def init_family(config: TrainConfig) -> ModelFamily:
    """Fresh parameters for ``config.mode``. A baseline's input-first layer
    i draws from [init_seed, i]; its layers are stored head first, as
    groups n..0 of a family."""
    if config.mode == "nsn":
        return build_family(config.n_hidden, config.input_dim,
                            config.classes, config.init_seed)
    dims = config.model_spec(config.n_hidden).dims
    layers = [init_layer(dims[i + 1], dims[i],
                         np.random.default_rng([config.init_seed, i]))
              for i in range(len(dims) - 1)]
    return ModelFamily(layers[::-1])


def echo_fields(echo: str) -> dict | None:
    """A checkpoint's config echo as a dict; None when it is not one."""
    try:
        fields = json.loads(echo)
    except ValueError:
        return None
    return fields if isinstance(fields, dict) else None


def _changed_fields(config: TrainConfig, echo: str) -> list[str]:
    """Fields of ``config`` that differ from a checkpoint's config echo,
    leaving out those a resumed run may change: its length, its paths, and
    the seeds, which it takes from the checkpoint."""
    stored = echo_fields(echo)
    if stored is None:
        raise ConsistencyError("checkpoint has no readable config echo")
    free = {"epochs", "data_dir", "out_dir", "init_seed", "shuffle_seed",
            "dropout_seed"}
    return sorted(k for k, v in json.loads(config.echo()).items()
                  if k not in free and stored.get(k) != v)


def train(config: TrainConfig, train_ds: Dataset | None = None,
          test_ds: Dataset | None = None, resume_from: Path | None = None,
          log: Callable[[str], None] | None = None) -> TrainResult:
    """Train the full family; track the epoch with the best base-model test
    accuracy and snapshot every model's accuracy there."""
    return _train(config, "nsn", train_ds, test_ds, resume_from, log)


def train_reference(config: TrainConfig, train_ds: Dataset | None = None,
                    test_ds: Dataset | None = None,
                    resume_from: Path | None = None,
                    log: Callable[[str], None] | None = None) -> TrainResult:
    """Train a single regularly-updated model (the baseline protocol)."""
    return _train(config, "reference", train_ds, test_ds, resume_from, log)


def _train(config: TrainConfig, mode: str, train_ds: Dataset | None,
           test_ds: Dataset | None, resume_from: Path | None,
           log: Callable[[str], None] | None) -> TrainResult:
    """The loop both trainers share; ``mode`` picks the step, and
    ``config.trained_views()`` the models that are trained and evaluated.

    When resuming, the checkpoint's seeds replace the config's, every other
    field but the epochs and paths must match the checkpoint's config echo,
    its groups must have the shapes the config builds, the epochs may not
    be fewer than the checkpoint's, and its best epoch is carried on, so
    the run continues exactly as the uninterrupted one, files included.
    Every check runs before the out dir is made, and all but those of the
    datasets before a data file is opened: each set needs a row, rows of
    ``input_dim`` columns and labels in [0, ``classes``), and the training
    set ``batch_size`` rows. A weight or bias that is not finite after an
    epoch's last step is a :class:`DivergenceError`, before that epoch is
    evaluated or saved.
    """
    if config.mode != mode:
        raise ConfigError(f"expected a config with mode={mode!r}, "
                          f"got {config.mode!r}")
    if config.out_dir is None:
        raise ConfigError("no out_dir configured")
    views = config.trained_views()
    n_models = len(views)
    start_epoch, best_epoch, best_accs = 0, -1, [0.0] * n_models
    if resume_from is None:
        family = init_family(config)
        momentum = [MomentumState.zeros_like(g) for g in family.groups]
    else:
        ckpt = load_checkpoint(resume_from)
        if config.epochs < ckpt.epoch:
            raise ConfigError(f"{resume_from} is at epoch {ckpt.epoch}; "
                              f"a run of {config.epochs} epochs cannot "
                              f"resume from it")
        shapes = [group.weight.shape for group in ckpt.groups]
        built = ([(config.classes, config.input_dim)]
                 + [(config.input_dim, config.input_dim)] * config.n_hidden)
        if shapes != built:  # n_hidden = the group count - 1
            raise ConsistencyError(f"checkpoint groups have shapes {shapes}, "
                                   f"the config builds {built}")
        config = replace(config, init_seed=ckpt.init_seed,
                         shuffle_seed=ckpt.shuffle_seed,
                         dropout_seed=ckpt.dropout_seed)
        family, momentum = family_from_checkpoint(ckpt)
        start_epoch = ckpt.epoch
        if ckpt.best_accuracies:  # a version 1 file leaves the best unknown
            if len(ckpt.best_accuracies) != n_models:
                raise ConsistencyError(
                    f"checkpoint tracks {len(ckpt.best_accuracies)} models, "
                    f"a {mode} run trains {n_models}")
            best_epoch, best_accs = ckpt.best_epoch, ckpt.best_accuracies
        changed = _changed_fields(config, ckpt.config_echo)
        if changed:
            raise ConfigError(f"{resume_from} was trained with other values "
                              f"of {', '.join(changed)}")
    models = [family.view(m) for m in views]
    if train_ds is None or test_ds is None:
        if config.data_dir is None:
            raise ConfigError("no datasets given and no data_dir configured")
        train_ds, test_ds = load_data_dir(config.data_dir)
    for name, ds in (("training", train_ds), ("test", test_ds)):
        if ds.count == 0:
            raise ConfigError(f"the {name} set has no rows")
        if ds.pixels.shape[1:] != (config.input_dim,):
            raise ConfigError(f"the {name} set's rows have shape "
                              f"{ds.pixels.shape[1:]}, not the "
                              f"({config.input_dim},) of input_dim")
        if ds.labels.min() < 0 or ds.labels.max() >= config.classes:
            raise ConfigError(f"the {name} set has labels outside "
                              f"[0, {config.classes})")
    if config.batch_size > train_ds.count:
        raise ConfigError(f"batch_size {config.batch_size} exceeds the "
                          f"{train_ds.count} training samples")
    one_blas_thread()

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = BatchPlan(batch_size=config.batch_size, shuffle=config.shuffle,
                     seed=config.shuffle_seed)
    writer = _MetricsWriter(out_dir, n_models, start_epoch)
    history: list[MetricsRecord] = []
    workspace = StepWorkspace(config, config.batch_size)
    step_fn = train_step if mode == "nsn" else reference_step

    def checkpoint_at(epoch_done: int, name: str) -> Path:
        path = out_dir / name
        save_checkpoint(path, Checkpoint(
            groups=family.groups, momentum=momentum,
            epoch=epoch_done, init_seed=config.init_seed,
            shuffle_seed=config.shuffle_seed,
            dropout_seed=config.dropout_seed, config_echo=config.echo(),
            best_epoch=best_epoch, best_accuracies=best_accs))
        return path

    try:
        for epoch in range(start_epoch, config.epochs):
            lr = lr_at(config.schedule, epoch)
            loss_sums = np.zeros(n_models)
            seen = 0
            for step, batch in enumerate(batches(train_ds, plan, epoch)):
                losses = step_fn(family, momentum, batch, config, epoch,
                                 step, workspace)
                loss_sums += np.asarray(losses) * batch[0].shape[0]
                seen += batch[0].shape[0]
            for g, layer in enumerate(family.groups):
                if not (np.isfinite(layer.weight).all()
                        and np.isfinite(layer.bias).all()):
                    raise DivergenceError(f"non-finite parameters in group "
                                          f"{g} at epoch {epoch}")
            accs = [evaluate(view, test_ds) for view in models]
            record = MetricsRecord(epoch=epoch, lr=lr,
                                   losses=list(loss_sums / seen),
                                   accuracies=accs)
            history.append(record)
            writer.write(record)
            if accs[-1] > best_accs[-1]:
                best_epoch, best_accs = epoch, accs
                _write_best(out_dir, best_epoch, best_accs)
                checkpoint_at(epoch + 1, BEST_CHECKPOINT)
            if log is not None:
                losses_txt = " ".join(f"m{i}={v:.4f}"
                                      for i, v in enumerate(record.losses))
                accs_txt = " ".join(f"m{i}={v:.4f}"
                                    for i, v in enumerate(accs))
                log(f"epoch {epoch + 1}/{config.epochs} lr {lr:.6g} "
                    f"loss {losses_txt} acc {accs_txt} "
                    f"best@{best_epoch + 1} {best_accs[-1]:.4f}")
        _write_best(out_dir, best_epoch, best_accs)
        final_path = checkpoint_at(config.epochs, FINAL_CHECKPOINT)
    finally:
        writer.close()
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_accuracies=best_accs, views=models,
                       checkpoint_path=final_path)
