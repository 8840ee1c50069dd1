"""Dense-network forward and backward passes.

A model is a list of :class:`DenseLayer` plus a :class:`ModelSpec` describing
its dimensions and dropout keep probabilities. The composition is fixed:

    input-dropout -> [dense -> ReLU -> hidden-dropout] x (L-1) -> dense -> log-softmax

Dropout is inverted (masks carry 1/keep_p at train time) so eval mode is the
identity. All functions preserve the dtype of their inputs: training runs in
float32, the finite-difference oracle pushes float64 through the same code.

A forward pass writes every array it computes into a :class:`ModelBuffers`:
the ``out`` it is given, so a training run allocates them once, or a fresh
set. Either way the same float operations run in the same order, so results
are bitwise equal. Those buffers are the pass's only record: the backward
pass reads the activations and masks from them and writes its errors and
gradients into them.

Both passes are composed of per-layer pieces, which a training step runs as
tasks of their own: :func:`forward_mask` and :func:`layer_forward` for the
forward, :func:`output_error`, :func:`layer_error` and
:func:`weight_gradient` for the backward. Eval-mode buffers of at most
``FEATURE_MAJOR_ROWS`` rows hold their hidden pre-activations feature-major,
which makes each hidden layer's product the faster W·Xᵀ GEMM on short
batches; training and long evaluation passes stay row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConsistencyError, ShapeError

GRADCHECK_EPSILON = 1e-4
# Eval-mode buffers of at most this many rows hold their hidden
# pre-activations feature-major (Fortran order; see ModelBuffers). Swept
# over 1-1024 rows on a 2-vCPU AVX-512 machine whose OpenBLAS 0.3.31 runs
# SkylakeX kernels, one BLAS thread, eval passes of 784-wide models with one
# and two hidden layers (m1, m2): feature-major took 0.52-0.56x the
# row-major time at 2-16 rows, 0.64-0.78x at 32-64, 0.84-0.87x at 96-192,
# 0.93-0.97x at 256, 0.95-0.99x at 320-512, and 1.03-1.07x at 768-1024.
# There a feature-major square layer gave the row-major bytes at every row
# count tried (1-320), and the head reading a feature-major input gave them
# at 1 row and from 128 rows on (at rounding level apart between). So the
# bound takes the gain up to 256 rows while passes of 128 rows and more
# keep their bytes; above it the gain is 5% or less. It stays below
# train.EVAL_BATCH, so an evaluation's chunks run row-major.
FEATURE_MAJOR_ROWS = 256


@dataclass(eq=False)
class DenseLayer:
    """Affine map: weight [out, in] and bias [out]. Equality is identity;
    tied layers are the same object."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(f"bias shape {self.bias.shape} does not match "
                             f"weight {self.weight.shape}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy())


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths plus dropout keep probabilities.

    ``dims`` runs (input, hidden..., classes); consecutive entries are the
    in/out widths of each dense layer.
    """

    dims: tuple[int, ...]
    input_keep: float = 1.0
    hidden_keep: float = 1.0

    def __post_init__(self):
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be >= 2 positive widths, got {self.dims}")
        for name, p in (("input_keep", self.input_keep),
                        ("hidden_keep", self.hidden_keep)):
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {p}")

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def keeps(self) -> tuple[float, ...]:
        """The keep probability of each dense layer's input: the input's,
        then each hidden layer's ReLU output's."""
        return (self.input_keep,) + (self.hidden_keep,) * (self.n_layers - 1)


def spec_for_params(params: Sequence[DenseLayer]) -> ModelSpec:
    """Derive a ModelSpec, with no dropout, from a layer list."""
    dims = [params[0].in_dim] + [layer.out_dim for layer in params]
    return ModelSpec(tuple(dims))


@dataclass
class LayerGrads:
    d_weight: np.ndarray
    d_bias: np.ndarray


GradientSet = list  # list[LayerGrads], one entry per layer, input layer first


class ModelBuffers:
    """Every array one model's forward and backward passes write, for
    batches of up to ``rows`` rows; a smaller batch uses their leading rows.
    They are the record of the last forward pass into them.

    Eval mode holds the pre-activations and log-probabilities; a hidden
    layer's pre-activation holds its ReLU output instead, with its dropout
    mask applied in place in train mode. Train mode adds the dropout masks
    (float32) wherever ``spec.keeps`` is below 1, the masked copy of the
    input ``x_masked`` when the input is masked, one flat float64 array
    ``draw`` for the masks' uniform draws (None when no layer is masked),
    and the backward pass's error per layer and the gradient set. ``x`` is
    the input of the last train-mode pass, None until one has run and after
    an eval-mode pass.

    Eval buffers of at most ``FEATURE_MAJOR_ROWS`` rows hold the hidden
    pre-activations feature-major (Fortran order), so :func:`dense_forward`
    runs each hidden layer as the W·Xᵀ GEMM, which OpenBLAS's SkylakeX
    kernels run faster on short batches (the constant's comment has the
    sweep); the head's output and the log-probabilities stay row-major.
    Every other array, and every array of a longer or train-mode set, is
    row-major, so training and an evaluation's 1024-row chunks keep their
    bytes.
    """

    def __init__(self, spec: ModelSpec, rows: int, mode: str = "train",
                 dtype=np.float32):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        dims = spec.dims
        train = mode == "train"
        self.spec, self.rows, self.mode = spec, rows, mode
        self.x: np.ndarray | None = None
        hidden = "F" if not train and rows <= FEATURE_MAJOR_ROWS else "C"
        self.pre_acts = ([np.empty((rows, d), dtype, order=hidden)
                          for d in dims[1:-1]]
                         + [np.empty((rows, dims[-1]), dtype)])
        self.logp = np.empty((rows, dims[-1]), dtype)
        # mask per dense layer's input; None where unmasked
        self.masks = [np.empty((rows, d), np.float32)
                      if train and keep < 1.0 else None
                      for d, keep in zip(dims, spec.keeps)]
        self.x_masked = (np.empty((rows, dims[0]), dtype)
                         if self.masks[0] is not None else None)
        self.draw = (np.empty(rows * max(dims[:-1]))
                     if any(mask is not None for mask in self.masks)
                     else None)
        self.d_pre = ([np.empty((rows, d), dtype) for d in dims[1:]]
                      if train else [])
        self.grads: GradientSet = (
            [LayerGrads(np.empty((o, i), dtype), np.empty(o, dtype))
             for i, o in zip(dims, dims[1:])] if train else [])

    def draw_for(self, shape: tuple[int, int]) -> np.ndarray:
        rows, cols = shape
        return self.draw[:rows * cols].reshape(shape)


def dense_forward(x: np.ndarray, layer: DenseLayer,
                  out: np.ndarray | None = None) -> np.ndarray:
    """x @ W.T + b, bias broadcast over rows, written into ``out``, a fresh
    row-major array when None.

    The product is formed as W · xᵀ into the transpose of ``out``. Into a
    row-major ``out`` numpy makes the BLAS call of x @ W.T, with the same
    bytes; into a feature-major (Fortran-order) one it makes the W·Xᵀ call
    itself, which is faster on short batches (see ``FEATURE_MAJOR_ROWS``).
    """
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ShapeError(f"dense_forward: input {x.shape} does not match "
                         f"weight {layer.weight.shape}")
    if out is None:
        out = np.empty((x.shape[0], layer.out_dim),
                       np.result_type(x, layer.weight))
    np.matmul(layer.weight, x.T, out=out.T)
    out += layer.bias
    return out


def relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0, out=out)


def relu_backward(d_out: np.ndarray, z: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Pass d_out where z > 0; the subgradient at exactly 0 is 0."""
    if d_out.shape != z.shape:
        raise ShapeError(f"relu_backward: shapes differ: {d_out.shape} "
                         f"vs {z.shape}")
    return np.multiply(d_out, z > 0, out=out)


def dropout_mask(shape: tuple[int, ...], keep_p: float,
                 rng: np.random.Generator, out: np.ndarray | None = None,
                 draw: np.ndarray | None = None) -> np.ndarray:
    """Inverted-dropout mask: 1/keep_p with probability keep_p, else 0.

    The mask is float32, written into ``out`` when given; the float64
    uniform draws it thresholds go to ``draw`` when given.
    """
    if not 0.0 < keep_p <= 1.0:
        raise ConfigError(f"keep_p must be in (0, 1], got {keep_p}")
    if out is None:
        out = np.empty(shape, np.float32)
    np.less(rng.random(shape, out=draw), keep_p, out=out)
    out /= np.float32(keep_p)
    return out


def log_softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-softmax, stabilized by subtracting the row max."""
    shifted = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def nll_loss(logp: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the batch of -logp at the true label."""
    labels = np.asarray(labels)
    if labels.shape != (logp.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match "
                         f"batch {logp.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= logp.shape[1]):
        raise ConfigError(f"label out of range [0, {logp.shape[1] - 1}]")
    return float(-np.mean(logp[np.arange(logp.shape[0]), labels]))


def _check_params(spec: ModelSpec, params: Sequence[DenseLayer]) -> None:
    if len(params) != spec.n_layers:
        raise ConsistencyError(f"spec has {spec.n_layers} layers, "
                               f"params has {len(params)}")
    for i, layer in enumerate(params):
        expect = (spec.dims[i + 1], spec.dims[i])
        if layer.weight.shape != expect:
            raise ConsistencyError(f"layer {i}: weight {layer.weight.shape}, "
                                   f"spec expects {expect}")


def _check_buffers(spec: ModelSpec, out: ModelBuffers, rows: int,
                   mode: str) -> None:
    if out.spec != spec:
        raise ConsistencyError(f"buffers are for {out.spec}, not {spec}")
    if rows > out.rows:
        raise ShapeError(f"{rows} rows do not fit buffers of {out.rows}")
    if mode == "train" and out.mode != "train":
        raise ConsistencyError("a train-mode pass needs train-mode buffers")


def forward_mask(buffers: ModelBuffers, i: int, rows: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the dropout mask of layer i's input for a train-mode pass of
    ``rows`` rows into ``buffers.masks[i]``, its uniform draws into
    ``buffers.draw``: the input's mask for layer 0, else the mask of layer
    i - 1's ReLU output. A pass draws its masks from one generator, in layer
    order."""
    spec = buffers.spec
    shape = (rows, spec.dims[i])
    return dropout_mask(shape, spec.keeps[i], rng, out=buffers.masks[i][:rows],
                        draw=buffers.draw_for(shape))


def layer_forward(params: Sequence[DenseLayer], buffers: ModelBuffers,
                  x: np.ndarray, i: int, train: bool = False) -> np.ndarray:
    """Layer i of the pass of ``x`` into ``buffers``; returns layer i's
    pre-activation, or for the last layer the log-probabilities.

    Layer 0 takes ``x``, in a train-mode pass masked into
    ``buffers.x_masked`` where a mask was drawn for it, and records ``x``
    for the backward (None in an eval-mode pass). Layer i > 0 takes layer
    i - 1's pre-activation and applies ReLU and, in a train-mode pass, the
    drawn mask to it in place. The product goes through
    :func:`dense_forward` into ``buffers.pre_acts[i]``; the last layer also
    writes its log-softmax into ``buffers.logp``.
    """
    rows = x.shape[0]
    mask = buffers.masks[i] if train else None
    if i == 0:
        buffers.x = x if train else None
        h = (x if mask is None
             else np.multiply(x, mask[:rows], out=buffers.x_masked[:rows]))
    else:
        h = buffers.pre_acts[i - 1][:rows]
        relu(h, out=h)
        if mask is not None:
            h *= mask[:rows]
    z = dense_forward(h, params[i], out=buffers.pre_acts[i][:rows])
    if i < len(params) - 1:
        return z
    return log_softmax(z, out=buffers.logp[:rows])


def model_forward(spec: ModelSpec, params: Sequence[DenseLayer],
                  x: np.ndarray, mode: str = "eval",
                  rng: np.random.Generator | None = None,
                  out: ModelBuffers | None = None,
                  ) -> tuple[np.ndarray, ModelBuffers]:
    """Run the full network; returns (log-probabilities, buffers).

    In train mode, dropout masks are drawn from ``rng`` wherever the spec's
    keep probability is below 1 (so train mode with all keeps at 1 needs no
    rng, and computes what eval mode computes into row-major buffers). Every
    array the pass computes, the returned ones included, lies in the
    buffers returned: ``out`` when it is given, a fresh
    :class:`ModelBuffers` otherwise. A train-mode pass keeps a reference to
    ``x`` there for the backward pass. The pass is :func:`forward_mask` for
    each masked layer, in layer order, then :func:`layer_forward` for each
    layer.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    _check_params(spec, params)
    if x.ndim != 2 or x.shape[1] != spec.dims[0]:
        raise ShapeError(f"input {x.shape} does not match spec dims "
                         f"{spec.dims}")
    train = mode == "train"
    if train and min(spec.keeps) < 1.0 and rng is None:
        raise ConfigError("train-mode forward with dropout requires an rng")
    rows = x.shape[0]
    if out is None:
        out = ModelBuffers(spec, rows, mode, np.result_type(
            x, *(layer.weight for layer in params)))
    _check_buffers(spec, out, rows, mode)

    if train:
        for i, mask in enumerate(out.masks):
            if mask is not None:
                forward_mask(out, i, rows, rng)
    for i in range(len(params)):
        h = layer_forward(params, out, x, i, train)
    return h, out


def layer_input(buffers: ModelBuffers, i: int) -> np.ndarray:
    """What layer i multiplied in the last train-mode pass into
    ``buffers``: the (masked) input for layer 0, else the masked ReLU
    output of layer i - 1."""
    batch = buffers.x.shape[0]
    if i > 0:
        return buffers.pre_acts[i - 1][:batch]
    return buffers.x if buffers.x_masked is None else buffers.x_masked[:batch]


def output_error(buffers: ModelBuffers, labels: np.ndarray) -> np.ndarray:
    """The last layer's error, (softmax(z) - onehot) / b, written into
    ``buffers.d_pre[-1]``."""
    batch = buffers.x.shape[0]
    dz = np.exp(buffers.logp[:batch], out=buffers.d_pre[-1][:batch])
    dz[np.arange(batch), np.asarray(labels)] -= 1  # minus the one-hot labels
    dz /= batch
    return dz


def layer_error(params: Sequence[DenseLayer], buffers: ModelBuffers,
                i: int) -> np.ndarray:
    """Layer i - 1's error from layer i's (i >= 1), written into
    ``buffers.d_pre[i - 1]``. A hidden ReLU's sign is read from its masked
    output: a kept unit's mask is 1/keep >= 1, which keeps the sign, and a
    dropped unit's error is already zero."""
    batch = buffers.x.shape[0]
    da = np.matmul(buffers.d_pre[i][:batch], params[i].weight,
                   out=buffers.d_pre[i - 1][:batch])
    if buffers.masks[i] is not None:
        da *= buffers.masks[i][:batch]
    return relu_backward(da, layer_input(buffers, i), out=da)


def weight_gradient(buffers: ModelBuffers, i: int) -> LayerGrads:
    """Layer i's weight and bias gradients from its error, written into
    ``buffers.grads[i]``."""
    batch = buffers.x.shape[0]
    dz = buffers.d_pre[i][:batch]
    grads = buffers.grads[i]
    np.matmul(dz.T, layer_input(buffers, i), out=grads.d_weight)
    dz.sum(axis=0, out=grads.d_bias)
    return grads


def model_backward(spec: ModelSpec, params: Sequence[DenseLayer],
                   buffers: ModelBuffers, labels: np.ndarray) -> GradientSet:
    """Exact gradients of the mean NLL w.r.t. every weight and bias, for the
    last train-mode forward pass into ``buffers``.

    The output-layer pre-activation gradient is (softmax(z) - onehot) / b.
    The gradients, and the error of each layer on the way down, are written
    into ``buffers`` by :func:`output_error`, :func:`weight_gradient` and
    :func:`layer_error`, the pieces a training step runs as tasks of their
    own; the gradient set returned is ``buffers.grads``.
    """
    _check_params(spec, params)
    if buffers.spec != spec:
        raise ConsistencyError(f"buffers are for {buffers.spec}, not {spec}")
    if buffers.x is None:
        raise ConsistencyError("backward requires buffers that a train-mode "
                               "forward pass wrote last")
    output_error(buffers, labels)
    for i in reversed(range(len(params))):
        weight_gradient(buffers, i)
        if i > 0:
            layer_error(params, buffers, i)
    return buffers.grads


def forward_loss(spec: ModelSpec, params: Sequence[DenseLayer],
                 x: np.ndarray, labels: np.ndarray,
                 input_mask: np.ndarray | None = None,
                 hidden_masks: Sequence[np.ndarray | None] | None = None,
                 ) -> float:
    """Mean NLL of a deterministic forward pass, optionally with fixed
    dropout masks (given as data, not drawn from an rng)."""
    _check_params(spec, params)
    h = x if input_mask is None else x * input_mask
    for i, layer in enumerate(params[:-1]):
        a = relu(dense_forward(h, layer))
        if hidden_masks is not None and hidden_masks[i] is not None:
            a = a * hidden_masks[i]
        h = a
    logp = log_softmax(dense_forward(h, params[-1]))
    return nll_loss(logp, labels)


def central_difference(f: Callable[[list[np.ndarray]], float],
                       arrays: Sequence[np.ndarray],
                       epsilon: float) -> list[np.ndarray]:
    """Central finite differences of a scalar function of several arrays.

    Works on float64 copies; the inputs are not modified.
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = [np.zeros_like(a) for a in work]
    for a, g in zip(work, grads):
        flat_a = a.ravel()
        flat_g = g.ravel()
        for i in range(flat_a.size):
            saved = flat_a[i]
            flat_a[i] = saved + epsilon
            plus = f(work)
            flat_a[i] = saved - epsilon
            minus = f(work)
            flat_a[i] = saved
            flat_g[i] = (plus - minus) / (2.0 * epsilon)
    return grads


def numerical_gradient(spec: ModelSpec, params: Sequence[DenseLayer],
                       x: np.ndarray, labels: np.ndarray,
                       epsilon: float = GRADCHECK_EPSILON,
                       input_mask: np.ndarray | None = None,
                       hidden_masks: Sequence[np.ndarray | None] | None = None,
                       ) -> GradientSet:
    """Finite-difference gradient oracle, run entirely in float64.

    Random dropout must be off (all keeps at 1); fixed masks may be passed
    instead to differentiate the masked network.
    """
    if min(spec.keeps) < 1.0 and input_mask is None and hidden_masks is None:
        raise ConfigError("numerical_gradient requires dropout disabled "
                          "(keep probabilities of 1) or fixed masks")
    x64 = np.asarray(x, dtype=np.float64)
    eval_spec = ModelSpec(spec.dims)
    arrays: list[np.ndarray] = []
    for layer in params:
        arrays.extend((layer.weight, layer.bias))

    def loss_of(work: list[np.ndarray]) -> float:
        layers = [DenseLayer(work[2 * i], work[2 * i + 1])
                  for i in range(len(params))]
        return forward_loss(eval_spec, layers, x64, labels,
                            input_mask=input_mask, hidden_masks=hidden_masks)

    flat = central_difference(loss_of, arrays, epsilon)
    return [LayerGrads(d_weight=flat[2 * i], d_bias=flat[2 * i + 1])
            for i in range(len(params))]
