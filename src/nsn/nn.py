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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConsistencyError, ShapeError

GRADCHECK_EPSILON = 1e-4


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
    def uses_dropout(self) -> bool:
        return self.input_keep < 1.0 or (self.hidden_keep < 1.0
                                         and self.n_layers > 1)


def spec_for_params(params: Sequence[DenseLayer], input_keep: float = 1.0,
                    hidden_keep: float = 1.0) -> ModelSpec:
    """Derive a ModelSpec from a layer list."""
    dims = [params[0].in_dim] + [layer.out_dim for layer in params]
    return ModelSpec(tuple(dims), input_keep, hidden_keep)


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
    (float32) wherever the spec's keep probability is below 1, the masked
    copy of the input ``x_masked`` when the input is masked, one flat
    float64 array ``draw`` for the masks' uniform draws (None when no layer
    is masked), and the backward pass's error per layer and the gradient
    set. ``x`` is the input of the last train-mode pass, None until one has
    run and after an eval-mode pass.
    """

    def __init__(self, spec: ModelSpec, rows: int, mode: str = "train",
                 dtype=np.float32):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        dims = spec.dims
        train = mode == "train"
        self.spec, self.rows, self.mode = spec, rows, mode
        self.x: np.ndarray | None = None
        self.pre_acts = [np.empty((rows, d), dtype) for d in dims[1:]]
        self.logp = np.empty((rows, dims[-1]), dtype)
        in_keep = spec.input_keep if train else 1.0
        hidden_keep = spec.hidden_keep if train else 1.0
        # mask per dense layer's input; None where unmasked
        keeps = [in_keep] + [hidden_keep] * (spec.n_layers - 1)
        self.masks = [np.empty((rows, d), np.float32) if keep < 1.0 else None
                      for d, keep in zip(dims, keeps)]
        self.x_masked = (np.empty((rows, dims[0]), dtype) if in_keep < 1.0
                         else None)
        self.draw = (np.empty(rows * max(dims[:-1])) if min(keeps) < 1.0
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
    """x @ W.T + b, bias broadcast over rows, written into ``out`` when
    given."""
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ShapeError(f"dense_forward: input {x.shape} does not match "
                         f"weight {layer.weight.shape}")
    z = np.matmul(x, layer.weight.T, out=out)
    z += layer.bias
    return z


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
        raise ValueError(f"label out of range [0, {logp.shape[1] - 1}]")
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


def model_forward(spec: ModelSpec, params: Sequence[DenseLayer],
                  x: np.ndarray, mode: str = "eval",
                  rng: np.random.Generator | None = None,
                  out: ModelBuffers | None = None,
                  ) -> tuple[np.ndarray, ModelBuffers]:
    """Run the full network; returns (log-probabilities, buffers).

    In train mode, dropout masks are drawn from ``rng`` wherever the spec's
    keep probability is below 1 (so train mode with all keeps at 1 is
    bitwise identical to eval mode, and needs no rng). Every array the pass
    computes, the returned ones included, lies in the buffers returned:
    ``out`` when it is given, a fresh :class:`ModelBuffers` otherwise. A
    train-mode pass keeps a reference to ``x`` there for the backward pass.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    _check_params(spec, params)
    if x.ndim != 2 or x.shape[1] != spec.dims[0]:
        raise ShapeError(f"input {x.shape} does not match spec dims "
                         f"{spec.dims}")
    train = mode == "train"
    if train and spec.uses_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout requires an rng")
    rows = x.shape[0]
    if out is None:
        out = ModelBuffers(spec, rows, mode, np.result_type(
            x, *(layer.weight for layer in params)))
    _check_buffers(spec, out, rows, mode)

    out.x = x if train else None
    h = x
    if train and spec.input_keep < 1.0:
        mask = dropout_mask(h.shape, spec.input_keep, rng,
                            out=out.masks[0][:rows],
                            draw=out.draw_for(h.shape))
        h = np.multiply(h, mask, out=out.x_masked[:rows])
    for i, layer in enumerate(params[:-1]):
        z = dense_forward(h, layer, out=out.pre_acts[i][:rows])
        h = relu(z, out=z)
        if train and spec.hidden_keep < 1.0:
            h *= dropout_mask(h.shape, spec.hidden_keep, rng,
                              out=out.masks[i + 1][:rows],
                              draw=out.draw_for(h.shape))
    z = dense_forward(h, params[-1], out=out.pre_acts[-1][:rows])
    return log_softmax(z, out=out.logp[:rows]), out


def model_backward(spec: ModelSpec, params: Sequence[DenseLayer],
                   buffers: ModelBuffers, labels: np.ndarray) -> GradientSet:
    """Exact gradients of the mean NLL w.r.t. every weight and bias, for the
    last train-mode forward pass into ``buffers``.

    The output-layer pre-activation gradient is (softmax(z) - onehot) / b.
    The gradients, and the error of each layer on the way down, are written
    into ``buffers``; the gradient set returned is ``buffers.grads``. A
    hidden ReLU's sign is read from its masked output: a kept unit's mask
    is 1/keep >= 1, which keeps the sign, and a dropped unit's error is
    already zero.
    """
    _check_params(spec, params)
    if buffers.spec != spec:
        raise ConsistencyError(f"buffers are for {buffers.spec}, not {spec}")
    if buffers.x is None:
        raise ConsistencyError("backward requires buffers that a train-mode "
                               "forward pass wrote last")
    batch = buffers.x.shape[0]
    inputs = ([buffers.x if buffers.x_masked is None
               else buffers.x_masked[:batch]]
              + [a[:batch] for a in buffers.pre_acts[:-1]])
    dz = np.exp(buffers.logp[:batch], out=buffers.d_pre[-1][:batch])
    dz[np.arange(batch), np.asarray(labels)] -= 1  # minus the one-hot labels
    dz /= batch
    grads = buffers.grads
    for i in reversed(range(len(params))):
        np.matmul(dz.T, inputs[i], out=grads[i].d_weight)
        dz.sum(axis=0, out=grads[i].d_bias)
        if i > 0:
            da = np.matmul(dz, params[i].weight,
                           out=buffers.d_pre[i - 1][:batch])
            if buffers.masks[i] is not None:
                da *= buffers.masks[i][:batch]
            dz = relu_backward(da, inputs[i], out=da)
    return grads


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
    if spec.uses_dropout and input_mask is None and hidden_masks is None:
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
