"""The nested base/sub-model family over shared canonical parameter groups.

A family with ``n`` hidden layers in the base model holds ``n + 1`` canonical
layer groups. Group 0 is the classifier head shared by every model; group g
(g >= 1) is a hidden-width square layer. Model m's layer list is

    [group m, group m-1, ..., group 0]

so model 0 is plain softmax regression and model n is the base model.
Removing the base model's first k layers yields model n-k exactly, because
the views alias one storage location per group.

Each group is "owned" by the model whose input layer it is. Updates touch
only owner slots, and :func:`group_sources` is the pairing rule: group g < n
is updated from the average of model g's input-layer gradient and model
g+1's second-layer gradient (:func:`paired_average_gradients` forms one such
average), and the base model's own input layer (group n) from its single
gradient, unaveraged. This computes exactly the values that survive the
per-minibatch copy from lesser to bigger models, a copy that shared
storage makes moot (:func:`copy_up`); ``verify.LiteralFamily`` re-derives
the same trajectory the long way as a cross-check.

A regularly trained baseline with n hidden layers is stored the same way,
head first, and trains only through the base view, model n. Both kinds of
run draw their groups in ``train.init_family``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError
from .nn import DenseLayer, LayerGrads

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


def param_count(family: ModelFamily, m: int) -> int:
    """Total weights plus biases of model m's view."""
    return sum(layer.weight.size + layer.bias.size for layer in family.view(m))


def copy_up(family: ModelFamily) -> None:
    """The per-step copy of parameters from each model to the next bigger
    one. It moves nothing: ``view(m)[1:]`` is ``view(m - 1)``, element for
    element, so each tied pair is one array. (``verify.LiteralFamily``,
    which keeps a copy per model, makes the copy for real.) A family step
    still calls it, because perfbench times it under this name."""


def group_sources(n: int) -> list[list[tuple[int, int]]]:
    """The gradients that update each group of a family with n hidden
    layers, head first: (model, layer) pairs, the group's own input-layer
    gradient first. Group g < n pairs model g's layer 0 with model g+1's
    layer 1; group n, the base model's input layer, has its one gradient."""
    return [[(g, 0), (g + 1, 1)] for g in range(n)] + [[(n, 0)]]


def paired_average_gradients(pair: Sequence[LayerGrads]) -> list[LayerGrads]:
    """Average one group's two gradients, or the same rows of both, into
    the first, in place, and return ``[first]``.

    The average is element-wise, so averaging a group's rows in any split
    gives the bytes of averaging it whole; it allocates no array.
    """
    own, other = pair
    shapes = [(g.d_weight.shape, g.d_bias.shape) for g in pair]
    if shapes[0] != shapes[1]:
        raise ConsistencyError(f"paired gradient shapes differ: "
                               f"{shapes[0]} vs {shapes[1]}")
    half = own.d_weight.dtype.type(0.5)
    for a, b in ((own.d_weight, other.d_weight), (own.d_bias, other.d_bias)):
        if a.size:
            a += b
            a *= half
    return [own]


def detach(family: ModelFamily, k: int) -> list[DenseLayer]:
    """The base model with its first k weight layers removed: model n-k's
    view, sharing storage with the family."""
    if not 0 <= k <= family.n:
        raise IndexError(f"cannot drop {k} layers from a base model with "
                         f"{family.n + 1}")
    return family.view(family.n - k)
