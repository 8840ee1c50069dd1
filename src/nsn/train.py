"""Training harness: the per-minibatch family procedure, reference-model
training, evaluation, metrics files, and checkpoint persistence.

One family step computes, in effect in this order: the lesser-to-bigger
parameter copy, a train-mode forward of every model with independent
per-model dropout masks (the softmax-regression model gets none),
per-model backward passes, the L2 penalty added to the base model's weight
gradients, pairwise gradient averaging into canonical groups, the
EMA-style momentum update, and the parameter update. Reference runs train
a single model with plain gradients, L2 on all weights, and standard
momentum; that model is stored as a family whose base view is the only one
trained. Both kinds of run share one init, :func:`init_family`, one
step, :func:`train_step`, and one loop, :func:`train` (init or resume,
evaluation, metrics, checkpoints); ``config.mode`` alone chooses the
things in which they differ: each group's init stream, the copy (which
shared storage makes moot, :func:`family.copy_up`), the gradients that
update each group (a family's pairs, :func:`family.group_sources`, or a
baseline's own) and the momentum format. A step forms only the weight
gradients its update reads: a family's model m never forms those of its
layers 2..m.

A step is a fixed list of tasks (:func:`step_tasks`, built once per run
with the :class:`StepWorkspace`): each dropout mask of each model, each
layer's forward, each layer's backward error, each weight gradient, the
loss check, and each group's finish (L2, pairing, momentum and update) in
row halves. A model's masks are drawn one after the other from its
generator, in layer order, so the draws are those of one whole forward
pass; a layer's forward waits only for its own mask, so the other lane
can draw the next masks while the first layer's GEMM runs. A task waits for
every earlier task that writes what it reads or writes, or reads what it
writes. The list runs on two lanes, the calling thread and one helper
thread per process, started on first use: each lane claims the first task
whose dependencies are done, in an order that puts the longest remaining
chain of work first, and waits only when every unclaimed task depends on
one the other lane is running; a helper that never gets a core leaves
every task, in list order, to the caller. An evaluation's chunks of test
rows run on the same lanes as tasks with no dependencies. Every BLAS call
stays single-threaded in the thread that makes it, no GEMM is split, and
each float operation reads the same data in the same order as on one
thread, so results are bitwise those of running the tasks one after the
other, on whichever threads. A step or an evaluation returns or raises
only once both lanes are idle.

A run has one seed, and its randomness is split by purpose and keyed by
position: the init by (seed, a family's group or a baseline's layer; see
:func:`init_family`), the batch order by (seed + 1, epoch), dropout by
(seed + 2, epoch, step, model). Resuming from a checkpoint therefore
reproduces the uninterrupted run bit for bit.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .blas import one_blas_thread
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import (ConfigError, ConsistencyError, DivergenceError,
                     FormatError, ShapeError, check_ranges)
from .family import (ModelFamily, copy_up, group_sources, init_layer,
                     paired_average_gradients)
from .mnist import Dataset, batches, load_data_dir
# A step calls neither model_forward nor model_backward: it runs their
# pieces as tasks. perfbench wraps both by name in nsn.train, so the names
# stay.
from .nn import (DenseLayer, LayerGrads, ModelBuffers, ModelSpec,  # noqa: F401
                 forward_mask, layer_error, layer_forward, model_backward,
                 model_forward, nll_loss, output_error, spec_for_params,
                 weight_gradient)
from .optim import (MomentumState, Schedule, apply_update, l2_gradient, lr_at,
                    momentum_nsn, momentum_standard)

# The L2 weight of each run the paper reports (arXiv 1908.00763), by mode
# and n_hidden: the baselines ref0-2 and the families nsn1-2.
PROTOCOL_L2 = {("reference", 0): 9e-5, ("reference", 1): 5e-6,
               ("reference", 2): 1e-5, ("nsn", 1): 9e-6, ("nsn", 2): 9e-5}
# Rows an evaluation chunk holds; the two lanes' buffers together hold
# what one 2048-row batch's did. With the kernels OpenBLAS 0.3.31 picks
# at run time on an AVX-512 machine (SkylakeX), a row's GEMM result is the
# same in any chunk of 128 rows or more, so 1024-row chunks give the
# logits 2048-row batches gave. Buffers of this many rows are above
# nn.FEATURE_MAJOR_ROWS, so they are row-major.
EVAL_BATCH = 1024

METRICS_FILE = "metrics.csv"
BEST_FILE = "best.csv"
BEST_CHECKPOINT = "checkpoint_best.nsn"
FINAL_CHECKPOINT = "checkpoint_final.nsn"


@dataclass(frozen=True)
class TrainConfig:
    """One run. The defaults, with :class:`Schedule`'s, are the protocol
    the paper's five runs share; an ``l2_lambda`` left None becomes the
    run's own, from :data:`PROTOCOL_L2`, and a run outside that table must
    give one."""

    mode: str = "nsn"  # "nsn" | "reference"
    n_hidden: int = 2
    epochs: int = 600
    batch_size: int = 128
    schedule: Schedule = field(default_factory=Schedule)
    l2_lambda: float | None = None
    input_keep: float = 0.8
    hidden_keep: float = 0.5
    seed: int = 0
    input_dim: int = 784  # also the hidden width, which tying requires
    classes: int = 10
    data_dir: Path | None = None
    out_dir: Path | None = None

    # The run's three random streams: the init, the batch order and the
    # dropout masks.
    init_seed = property(lambda self: self.seed)
    shuffle_seed = property(lambda self: self.seed + 1)
    dropout_seed = property(lambda self: self.seed + 2)

    def __post_init__(self):
        if self.mode not in ("nsn", "reference"):
            raise ConfigError(f"mode must be 'nsn' or 'reference', "
                              f"got {self.mode!r}")
        min_hidden = 1 if self.mode == "nsn" else 0
        check_ranges(self, (("n_hidden", self.n_hidden >= min_hidden,
                             f">= {min_hidden} in {self.mode} mode"),))
        if self.l2_lambda is None:
            if (self.mode, self.n_hidden) not in PROTOCOL_L2:
                raise ConfigError(f"l2_lambda must be given: the protocol "
                                  f"has no {self.mode} run at n_hidden "
                                  f"{self.n_hidden}", "l2_lambda")
            object.__setattr__(self, "l2_lambda",
                               PROTOCOL_L2[self.mode, self.n_hidden])
        check_ranges(self, (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("l2_lambda", 0 <= self.l2_lambda < math.inf, "finite and >= 0"),
            # each stream's seed, up to seed + 2, is a checkpoint's u64
            ("seed", 0 <= self.seed <= 2**64 - 3, "in [0, 2**64 - 3]"),
            ("input_keep", 0.0 < self.input_keep <= 1.0, "in (0, 1]"),
            ("hidden_keep", 0.0 < self.hidden_keep <= 1.0, "in (0, 1]")))

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


LANES = 2  # the calling thread and one helper thread
# A finish walks its weight rows in blocks of this many, doing a block's
# L2, pairing, momentum and update before the next, so the five 98 x 784
# float32 blocks it touches (1.5 MB) stay in a 2 MB L2 cache; a 392-row
# half is four blocks. On one core, a 784 x 784 finish took 1.1-1.5 ms in
# such blocks against 1.6-2.0 ms whole; 64-row blocks were as fast alone
# but, as the other lane's finish ran beside them, slower than whole. The
# bias rows of the task then go in one pass: a block makes 9 numpy calls,
# not 16, and the two lanes' calls slow each other per call.
FINISH_ROWS = 98
# What one element costs in the multiply-adds of a GEMM that takes as long
# (a 128 x 784 mask and a 784 x 784 finish against a 128 x 784 x 784 GEMM
# on one core): a dropout mask's draw and threshold, and a finish's
# element-wise work. Only the order of the tasks depends on them.
MASK_MACS = 200
FINISH_MACS = 80


@dataclass(frozen=True)
class Task:
    """One unit of work that a lane runs whole.

    A step's tasks (see :func:`step_tasks`) are a ``kind``: the "mask" of
    ``layer``'s input of the trained model at ``model`` (its position among
    the trained views); the "forward" of that model's ``layer``, which
    applies ReLU and the layer's mask to its input and runs its GEMM, and
    at the last layer the loss and output error; the "error" of its
    ``layer`` - 1 from ``layer``'s; the "weight" gradient of its
    ``layer``; the loss "check"; and the "finish" of ``rows`` of
    ``group``: the L2, pairing, momentum and update of those rows, reading
    the gradients ``grads``, (model, layer) pairs, its own first. An
    evaluation's tasks are "chunk"s of test ``rows``.

    ``reads`` and ``writes`` name what the task touches, ``deps`` the
    positions in its list of the tasks it waits for, and ``cost`` its work
    in square GEMMs (batch x width x width).
    """

    kind: str
    model: int = 0
    layer: int = 0
    group: int = 0
    rows: slice | None = None
    grads: tuple = ()
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    deps: tuple = ()
    cost: float = 0.0


def _halves(rows: int) -> list[slice]:
    half = (rows + 1) // 2
    return [s for s in (slice(0, half), slice(half, rows)) if s.stop > s.start]


def step_tasks(config: TrainConfig) -> list[Task]:
    """A step's tasks for ``config``, in the order the lanes claim them.

    Tasks are first listed in the order one thread would run them: for
    every trained model, its masks and then its layers' forwards, input
    layer first; then each model's backward, head first (the weight
    gradient of a layer, then the error below it), the loss check, and
    each group's finish, head group first, in row halves. A model's masks
    share its generator and draw array, so each mask waits for the one
    before it and they are drawn in layer order; a layer's forward waits
    for its own mask and the layer below. A group's finish reads the
    gradients of its sources: in a family, those :func:`group_sources`
    names, in a baseline the base view's layer that multiplies by it. A
    weight gradient is formed only where a finish reads it: in a family,
    model m's input and second layers, in a baseline every layer. A task
    depends on every earlier task that writes what it reads or writes, or
    reads what it writes; so a finish of group g follows every forward and
    error that multiplies by g's weight, and every finish follows the loss
    check. The list is then ordered by the
    longest chain of costs from each task to the end of the step, longest
    first, ties in listed order, which keeps every task after the tasks it
    depends on.
    """
    views = config.trained_views()
    base, n, width = len(views) - 1, config.n_hidden, config.input_dim
    square = config.batch_size * width * width
    parts = [_halves(config.classes if g == 0 else width)
             for g in range(n + 1)]
    if config.mode == "nsn":
        sources = group_sources(n)
    else:
        sources = [[(0, n - g)] for g in range(n + 1)]
    formed = {grad for grads in sources for grad in grads}
    # per model, the layers whose input it masks
    masked = [[j for j, keep in enumerate(config.model_spec(m).keeps)
               if keep < 1.0] for m in views]

    def param(g):
        return {("param", g, k) for k in range(len(parts[g]))}

    def grad(i, j):
        g = views[i] - j
        return {("grad", i, j, k) for k in range(len(parts[g]))}

    def mask(i, j):
        return {("mask", i, j)} if j in masked[i] else set()

    def gemm(dims, j):
        return config.batch_size * dims[j] * dims[j + 1] / square

    # ("act", i, j) is what layer j of model i wrote: its pre-activation,
    # then its masked ReLU output, and at the head the log-probabilities;
    # ("act", i, -1) is the model's record of its input and masked input.
    listed = []
    for i, m in enumerate(views):
        dims = config.model_spec(m).dims
        last = len(dims) - 2
        for j in masked[i]:
            listed.append(Task(
                "mask", model=i, layer=j,
                writes=frozenset({("rng", i), ("mask", i, j)}),
                cost=MASK_MACS * config.batch_size * dims[j] / square))
        for j in range(last + 1):
            ends = {("error", i, j), ("loss", i)} if j == last else set()
            listed.append(Task(
                "forward", model=i, layer=j,
                reads=frozenset(param(m - j) | mask(i, j)),
                writes=frozenset({("act", i, j - 1), ("act", i, j)} | ends),
                cost=gemm(dims, j)))
    for i, m in enumerate(views):
        dims = config.model_spec(m).dims
        for j in reversed(range(len(dims) - 1)):
            if (i, j) in formed:
                listed.append(Task(
                    "weight", model=i, layer=j,
                    reads=frozenset({("act", i, j - 1), ("error", i, j)}),
                    writes=frozenset(grad(i, j)), cost=gemm(dims, j)))
            if j > 0:
                listed.append(Task(
                    "error", model=i, layer=j,
                    reads=frozenset({("act", i, j - 1), ("error", i, j)}
                                    | mask(i, j) | param(m - j)),
                    writes=frozenset({("error", i, j - 1)}),
                    cost=gemm(dims, j)))
    listed.append(Task("check",
                       reads=frozenset(("loss", i) for i in range(base + 1)),
                       writes=frozenset({("checked",)})))
    for g in range(n + 1):
        for k, rows in enumerate(parts[g]):
            touched = {("param", g, k), ("momentum", g, k)} | {
                ("grad", i, j, k) for i, j in sources[g]}
            listed.append(Task(
                "finish", group=g, rows=rows, grads=tuple(sources[g]),
                reads=frozenset(touched | {("checked",)}),
                writes=frozenset(touched),
                cost=FINISH_MACS * (rows.stop - rows.start) * width / square))

    deps = [[u for u in range(t) if listed[u].writes
             & (listed[t].reads | listed[t].writes)
             or listed[u].reads & listed[t].writes]
            for t in range(len(listed))]
    path = [0.0] * len(listed)
    for t in reversed(range(len(listed))):
        after = [path[s] for s in range(t + 1, len(listed)) if t in deps[s]]
        path[t] = listed[t].cost + max(after, default=0.0)
    order = sorted(range(len(listed)), key=lambda t: (-path[t], t))
    position = {t: k for k, t in enumerate(order)}
    return [replace(listed[t], deps=tuple(sorted(position[u]
                                                 for u in deps[t])))
            for t in order]


class StepWorkspace:
    """Every array a training step writes, allocated once for a run, and
    the step's tasks.

    One train-mode :class:`ModelBuffers` per model ``config`` trains, in
    the order of ``config.trained_views()``, for batches of up to ``rows``
    rows (a shorter last batch uses their leading rows); no two models
    share an array. Each lane has a scratch block of ``FINISH_ROWS``
    weight rows for the L2 terms of the finish it runs. ``tasks`` is
    :func:`step_tasks` of ``config``.
    """

    def __init__(self, config: TrainConfig, rows: int):
        self.models = [ModelBuffers(config.model_spec(m), rows)
                       for m in config.trained_views()]
        self.scratch = [np.empty((FINISH_ROWS, config.input_dim), np.float32)
                        for _ in range(LANES)]
        self.tasks = step_tasks(config)


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


def _run_tasks(tasks: Sequence[Task],
               run: Callable[[int, int], None]) -> None:
    """Run ``run(k, lane)`` for every task k of ``tasks`` on two lanes:
    this thread (lane 0) and the helper thread (lane 1), the helper only
    when there is more than one task.

    Each lane repeatedly claims the first unclaimed task in list order
    whose ``deps`` are all done, and runs it. A lane waits only when every
    unclaimed task depends on a task the other lane is running, so a
    helper that has not started leaves every task to this thread, which
    then runs them in list order (the list is topologically ordered), and
    a helper that starts after the last task is done runs none. A task
    that raises stops new claims by both lanes. Returns, or raises the
    first error a task raised, only once both lanes are done, so nothing
    of the run outlives it. BLAS is set to one thread before either lane
    starts.
    """
    one_blas_thread()
    unmet = [len(task.deps) for task in tasks]
    dependents: list[list[int]] = [[] for _ in tasks]
    for k, task in enumerate(tasks):
        for d in task.deps:
            dependents[d].append(k)
    ready = [k for k, count in enumerate(unmet) if count == 0]  # a heap
    errors: list[BaseException] = []
    cond = threading.Condition()
    running = 0
    started = closed = False

    def lane(i: int) -> None:
        nonlocal running
        while True:
            with cond:
                while not ready and running and not errors:
                    cond.wait()
                if not ready or errors:
                    return
                k = heappop(ready)
                running += 1
            try:
                run(k, i)
            except BaseException as exc:  # re-raised once both lanes stop
                with cond:
                    errors.append(exc)
                return
            else:
                with cond:
                    for d in dependents[k]:
                        unmet[d] -= 1
                        if unmet[d] == 0:
                            heappush(ready, d)
            finally:
                with cond:
                    running -= 1
                    cond.notify()

    def helper_lane() -> None:
        nonlocal started
        with cond:
            if closed:
                return
            started = True
        lane(1)

    helper = _helper_thread().submit(helper_lane) if len(tasks) > 1 else None
    try:
        lane(0)
    finally:
        with cond:
            closed = True
        if started:  # wait until the helper lets go of this run
            helper.result()
    if errors:
        raise errors[0]


def train_step(family: ModelFamily, momentum: Sequence[MomentumState],
               batch: tuple[np.ndarray, np.ndarray], config: TrainConfig,
               epoch: int, step: int = 0,
               workspace: StepWorkspace | None = None) -> list[float]:
    """One minibatch update of the views ``config`` trains; returns each
    view's pre-update loss.

    ``momentum`` is one state per group, head first. ``config.mode``
    chooses what a family's step does and a baseline's does not: a family
    ("nsn") step first runs the lesser-to-bigger copy, which moves nothing
    under shared storage, and its finishes update EMA momentum; a
    baseline's update standard momentum. A finish averages the two
    gradients its task names (a family's pair) and passes a single one
    through.

    The step runs its tasks on the two lanes, into ``workspace`` (built
    when None, for the batch's rows). A "mask" task draws one dropout mask
    of a model from the model's generator, keyed by its position among the
    views and made by the model's first mask task; "forward", "error" and
    "weight" tasks run the forward's and backward's per-layer pieces, and
    a model's last "forward" its loss and output error; the "check" raises
    :class:`DivergenceError` for the first non-finite loss in view order,
    so no finish runs and nothing is updated. A "finish" walks its weight
    rows of a group ``FINISH_ROWS`` at a time: it adds L2 to the gradient
    read from the base view, forms the group's gradient, updates momentum
    and then the parameters, each in place; then it does the same,
    without L2, for its bias rows in one pass. The pairing's and
    momentum's temporaries go into the gradient they consume, the L2 term
    into the lane's scratch. A batch of more rows than ``workspace`` holds,
    or not ``config.input_dim`` wide, is a :class:`ShapeError`.
    """
    nsn = config.mode == "nsn"
    x, labels = batch
    if workspace is None:
        workspace = StepWorkspace(config, x.shape[0])
    held = workspace.models[0].rows
    if x.ndim != 2 or x.shape[0] > held or x.shape[1] != config.input_dim:
        raise ShapeError(f"a batch of shape {x.shape} does not fit a "
                         f"workspace of {held} x {config.input_dim}")
    if nsn:
        copy_up(family)
    views = config.trained_views()
    base = len(views) - 1
    tasks = workspace.tasks
    grad_sets = [buffers.grads for buffers in workspace.models]
    losses: list[float] = [0.0] * len(views)
    rngs: list[np.random.Generator | None] = [None] * len(views)
    lam, alpha = config.l2_lambda, config.schedule.alpha
    lr = lr_at(config.schedule, epoch)
    no_rows = slice(0, 0)

    def gradient(task: Task, rows: slice, bias_rows: slice) -> LayerGrads:
        named = [LayerGrads(grad_sets[i][j].d_weight[rows],
                            grad_sets[i][j].d_bias[bias_rows])
                 for i, j in task.grads]
        if len(named) == 2:
            return paired_average_gradients(named)[0]
        return named[0]

    def descend(p: np.ndarray, v: np.ndarray, grad: np.ndarray) -> None:
        if nsn:
            momentum_nsn(v, grad, alpha, out=v, scratch=grad)
        else:
            momentum_standard(v, grad, alpha, out=v)
        apply_update(p, v, lr, out=p, scratch=grad)

    def finish(task: Task, scratch: np.ndarray) -> None:
        layer, state = family.groups[task.group], momentum[task.group]
        for start in range(task.rows.start, task.rows.stop, FINISH_ROWS):
            rows = slice(start, min(start + FINISH_ROWS, task.rows.stop))
            weight = layer.weight[rows]
            if lam > 0:
                for i, j in task.grads:
                    if i == base:
                        grad_sets[i][j].d_weight[rows] += l2_gradient(
                            lam, weight, out=scratch[:weight.shape[0]])
            descend(weight, state.v_weight[rows],
                    gradient(task, rows, no_rows).d_weight)
        descend(layer.bias[task.rows], state.v_bias[task.rows],
                gradient(task, no_rows, task.rows).d_bias)

    def run(k: int, lane: int) -> None:
        task = tasks[k]
        if task.kind == "finish":
            finish(task, workspace.scratch[lane])
            return
        if task.kind == "check":
            for m, loss in zip(views, losses):
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch} "
                                          f"step {step} (model {m})")
            return
        i = task.model
        buffers = workspace.models[i]
        if task.kind == "mask":
            if rngs[i] is None:
                rngs[i] = _dropout_rng(config, epoch, step, i)
            forward_mask(buffers, task.layer, x.shape[0], rngs[i])
            return
        view = family.view(views[i])
        if task.kind == "forward":
            out = layer_forward(view, buffers, x, task.layer, train=True)
            if task.layer == len(view) - 1:
                losses[i] = nll_loss(out, labels)
                output_error(buffers, labels)
        elif task.kind == "error":
            layer_error(view, buffers, task.layer)
        else:
            weight_gradient(buffers, task.layer)

    _run_tasks(tasks, run)
    return losses


# perfbench times and patches a baseline's step under this name.
reference_step = train_step


def evaluate(params: Sequence[DenseLayer], dataset: Dataset) -> float:
    """Fraction of samples whose argmax log-probability equals the label.

    The rows are split into chunks of ``EVAL_BATCH``, tasks with no
    dependencies that the two lanes share (see :func:`_run_tasks`); each
    lane counts the correct rows of the chunks it runs, and the counts are
    summed. A chunk that fails stops both lanes, as in a step, and its
    error is raised once both stop. Which lane runs a chunk never changes
    its arithmetic, so the result does not depend on timing; a set of one
    chunk runs on the caller alone. Each lane scales its byte rows into
    its own array and runs the forward pass into its own buffers, all made
    here before the lanes start, so no float copy of the whole set is ever
    made. A set of no rows is a :class:`ConfigError`.
    """
    if dataset.count == 0:
        raise ConfigError("cannot evaluate an empty set: it has no rows")
    spec = spec_for_params(params)
    rows = min(EVAL_BATCH, dataset.count)
    dtype = np.result_type(np.float32, dataset.pixels,
                           *(layer.weight for layer in params))
    chunks = [Task("chunk", rows=slice(start, min(start + EVAL_BATCH,
                                                  dataset.count)))
              for start in range(0, dataset.count, EVAL_BATCH)]
    lanes = [(ModelBuffers(spec, rows, "eval", dtype),
              np.empty((rows, dataset.pixels.shape[1]), np.float32))
             for _ in range(min(LANES, len(chunks)))]
    correct = [0] * len(lanes)

    def run(k: int, lane: int) -> None:
        buffers, scaled = lanes[lane]
        chunk = chunks[k].rows
        x = dataset.rows(chunk, out=scaled[:chunk.stop - chunk.start])
        logp, _ = model_forward(spec, params, x, "eval", out=buffers)
        correct[lane] += int(np.sum(np.argmax(logp, axis=1)
                                    == dataset.labels[chunk]))

    _run_tasks(chunks, run)
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


def init_family(config: TrainConfig) -> tuple[ModelFamily,
                                               list[MomentumState]]:
    """A fresh run's groups, head first, and their zero momentum; the only
    place a run's parameters are drawn.

    Group 0 is ``classes x input_dim`` and every other group is
    ``input_dim`` square, in both kinds of run. Group g is drawn by
    :func:`family.init_layer` from its own stream, and the mode picks only
    that stream: a family's group g draws from [init_seed, g], a baseline's
    from [init_seed, n - g], its layer's position in the base model, input
    layer first.
    """
    n, width = config.n_hidden, config.input_dim
    groups = []
    for g in range(n + 1):
        position = g if config.mode == "nsn" else n - g
        rng = np.random.default_rng([config.init_seed, position])
        groups.append(init_layer(width if g else config.classes, width, rng))
    return (ModelFamily(groups),
            [MomentumState.zeros_like(group) for group in groups])


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
    the seed, which it takes from the checkpoint. A run that did not
    shuffle, which only an older version could make, differs in
    ``shuffle``."""
    stored = echo_fields(echo)
    if stored is None:
        raise ConsistencyError("checkpoint has no readable config echo")
    free = {"epochs", "data_dir", "out_dir", "seed"}
    changed = [k for k, v in json.loads(config.echo()).items()
               if k not in free and stored.get(k) != v]
    if stored.get("shuffle") is False:
        changed.append("shuffle")
    return sorted(changed)


def train(config: TrainConfig, train_ds: Dataset | None = None,
          test_ds: Dataset | None = None, resume_from: Path | None = None,
          log: Callable[[str], None] | None = None) -> TrainResult:
    """Train the models of ``config.trained_views()``: every model of a
    family, or a baseline's one regularly-updated model, each step by
    :func:`train_step`. Track the epoch with the best base-model test
    accuracy and snapshot every model's accuracy there.

    The datasets are both given or both loaded from ``config.data_dir``.
    When resuming, the checkpoint's seed replaces the config's, every other
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
    if config.out_dir is None:
        raise ConfigError("no out_dir configured")
    if (train_ds is None) != (test_ds is None):
        missing = "train_ds" if train_ds is None else "test_ds"
        raise ConfigError(f"{missing} is missing: give both datasets, or "
                          f"neither to load them from data_dir")
    views = config.trained_views()
    n_models = len(views)
    start_epoch, best_epoch, best_accs = 0, -1, [0.0] * n_models
    if resume_from is None:
        family, momentum = init_family(config)
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
        seeds = (ckpt.init_seed, ckpt.shuffle_seed, ckpt.dropout_seed)
        if seeds != tuple(range(seeds[0], seeds[0] + 3)):
            raise ConsistencyError(f"{resume_from} has the seeds {seeds}, "
                                   f"not a run's seed, seed + 1 and seed + 2")
        config = replace(config, seed=ckpt.init_seed)
        family, momentum = family_from_checkpoint(ckpt)
        start_epoch = ckpt.epoch
        if ckpt.best_accuracies:  # a version 1 file leaves the best unknown
            if len(ckpt.best_accuracies) != n_models:
                raise ConsistencyError(
                    f"checkpoint tracks {len(ckpt.best_accuracies)} models, "
                    f"a {config.mode} run trains {n_models}")
            best_epoch, best_accs = ckpt.best_epoch, ckpt.best_accuracies
        changed = _changed_fields(config, ckpt.config_echo)
        if changed:
            raise ConfigError(f"{resume_from} was trained with other values "
                              f"of {', '.join(changed)}")
    models = [family.view(m) for m in views]
    if train_ds is None:
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
    writer = _MetricsWriter(out_dir, n_models, start_epoch)
    history: list[MetricsRecord] = []
    workspace = StepWorkspace(config, config.batch_size)
    # one step, called by the name perfbench times for this mode
    step_fn = train_step if config.mode == "nsn" else reference_step

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
            for step, batch in enumerate(batches(
                    train_ds, config.batch_size, epoch,
                    config.shuffle_seed)):
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


# perfbench times and patches a baseline's run under this name.
train_reference = train
