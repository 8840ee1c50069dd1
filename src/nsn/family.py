"""The nested base/sub-model family over shared canonical parameter groups.

A family with ``n`` hidden layers in the base model holds ``n + 1`` canonical
layer groups. Group 0 is the classifier head shared by every model; group g
(g >= 1) is a hidden-width square layer. Model m's layer list is

    [group m, group m-1, ..., group 0]

so model 0 is plain softmax regression and model n is the base model.
Removing the base model's first k layers yields model n-k exactly, because
the views alias one storage location per group.

Each group is "owned" by the model whose input layer it is. Updates touch
only owner slots: the pairwise-averaged gradient for group g combines model
g's input-layer gradient with model g+1's second-layer gradient, and the
base model's own input layer (group n) is updated from its single gradient,
unaveraged. This computes exactly the values that survive the per-minibatch
copy from lesser to bigger models; ``verify.LiteralFamily`` re-derives the
same trajectory the long way as a cross-check.

A regularly trained baseline with n hidden layers is stored the same way,
head first, and trains only through the base view, model n.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ConsistencyError
from .nn import DenseLayer, LayerGrads

DEFAULT_INPUT_DIM = 784
DEFAULT_CLASSES = 10
INIT_ROWS = 64  # rows of weights drawn at a time


class ModelFamily:
    """n+1 nested model views over n+1 canonical parameter groups, each a
    :class:`DenseLayer`, head first.

    Everything else is read from the groups: group 0 is the head
    ``classes x input_dim``; every other group is square, because a model's
    input layer doubles as the next model's first hidden layer.
    """

    def __init__(self, groups: list[DenseLayer]):
        if not groups:
            raise ConsistencyError("a family needs at least the head group")
        self.n = len(groups) - 1
        self.groups = groups
        self.classes, self.input_dim = groups[0].weight.shape
        square = (self.input_dim, self.input_dim)
        for g, group in enumerate(groups[1:], 1):
            if group.weight.shape != square:
                raise ConsistencyError(
                    f"group {g} has shape {group.weight.shape}, "
                    f"tying needs {square}")

    def view(self, m: int) -> list[DenseLayer]:
        """Model m's layer list (aliases of the shared storage)."""
        if not 0 <= m <= self.n:
            raise IndexError(f"model index {m} out of range [0, {self.n}]")
        return self.groups[m::-1]

    def views(self) -> list[list[DenseLayer]]:
        return [self.view(m) for m in range(self.n + 1)]


def init_layer(out_dim: int, in_dim: int, rng: np.random.Generator) -> DenseLayer:
    """Scaled-uniform init: weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    biases zero. The float64 draws are made ``INIT_ROWS`` rows at a time
    and rounded into the float32 weight, the same values one draw of the
    whole weight would give, with no whole-weight temporary."""
    bound = 1.0 / np.sqrt(in_dim)
    weight = np.empty((out_dim, in_dim), np.float32)
    for start in range(0, out_dim, INIT_ROWS):
        block = weight[start:start + INIT_ROWS]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return DenseLayer(weight=weight, bias=np.zeros(out_dim, dtype=np.float32))


def build_family(n: int, input_dim: int = DEFAULT_INPUT_DIM,
                 classes: int = DEFAULT_CLASSES,
                 init_seed: int = 0) -> ModelFamily:
    """Allocate and initialize the n+1 canonical groups; group g draws from
    the stream ``[init_seed, g]``."""
    if n < 1:
        raise ConfigError(f"family needs n >= 1 hidden layers, got {n}")
    groups = []
    for g in range(n + 1):
        rng = np.random.default_rng([init_seed, g])
        out_dim = classes if g == 0 else input_dim
        groups.append(init_layer(out_dim, input_dim, rng))
    return ModelFamily(groups)


def param_count(family: ModelFamily, m: int) -> int:
    """Total weights plus biases of model m's view."""
    return sum(layer.weight.size + layer.bias.size for layer in family.view(m))


def copy_up(family: ModelFamily) -> None:
    """Enforce the lesser-to-bigger parameter copy across tied layers.

    With shared storage every tied pair aliases one array, so this is a
    consistency check rather than data movement. (The per-model-storage
    double in ``verify`` implements the actual overwrite.)
    """
    for m in range(1, family.n + 1):
        upper = family.view(m)
        lower = family.view(m - 1)
        for o, (lo, up) in enumerate(zip(lower, upper[1:])):
            if lo.weight.shape != up.weight.shape:
                raise ConsistencyError(
                    f"tied layers differ in shape at model {m}, layer {o + 2}: "
                    f"{up.weight.shape} vs {lo.weight.shape}")
            if lo is not up:
                up.weight[...] = lo.weight
                up.bias[...] = lo.bias


def paired_average_gradients(per_model_grads: list,
                             groups: Sequence[int] | None = None,
                             rows: slice = slice(None),
                             bias_rows: slice | None = None
                             ) -> list[LayerGrads]:
    """Collapse per-model gradients into one gradient per canonical group.

    ``per_model_grads`` holds models 0..n, so n is its length - 1. Group
    g < n averages model g's input-layer gradient with model g+1's
    second-layer gradient; group n (the base model's input layer) passes
    through unaveraged. Only the ``groups`` given (every group when None)
    are formed, and of each only ``rows`` of its weight and ``bias_rows``
    of its bias (``rows`` when None): the rule is element-wise, so forming
    a group's rows in any split gives the bytes of forming it whole. The
    averages are formed in place, in each model's input-layer gradient,
    whose rows are returned for its group, in the order of ``groups``, so
    the pass allocates no array.
    """
    n = len(per_model_grads) - 1
    for m, grads in enumerate(per_model_grads):
        if len(grads) != m + 1:
            raise ConsistencyError(f"model {m} must have {m + 1} layer "
                                   f"gradients, got {len(grads)}")
    if bias_rows is None:
        bias_rows = rows
    out: list[LayerGrads] = []
    for g in range(n + 1) if groups is None else groups:
        own = per_model_grads[g][0]
        mine = LayerGrads(own.d_weight[rows], own.d_bias[bias_rows])
        out.append(mine)
        if g == n:
            continue
        pair = per_model_grads[g + 1][1]
        if own.d_weight.shape != pair.d_weight.shape:
            raise ConsistencyError(
                f"group {g}: paired gradient shapes differ: "
                f"{own.d_weight.shape} vs {pair.d_weight.shape}")
        half = own.d_weight.dtype.type(0.5)
        for a, b in ((mine.d_weight, pair.d_weight[rows]),
                     (mine.d_bias, pair.d_bias[bias_rows])):
            if a.size:
                a += b
                a *= half
    return out


def detach(family: ModelFamily, k: int) -> list[DenseLayer]:
    """The base model with its first k weight layers removed: model n-k's
    view, sharing storage with the family."""
    if not 0 <= k <= family.n:
        raise IndexError(f"cannot drop {k} layers from a base model with "
                         f"{family.n + 1}")
    return family.view(family.n - k)
