"""Momentum-SGD in both formats, the stepped learning-rate schedule, and
the L2 penalty gradient.

The standard format accumulates raw gradients (V <- alpha*V + G); the
family's own variant keeps V an exponential moving average
(V <- alpha*V + (1-alpha)*G), which equals the standard trajectory at a
learning rate scaled by (1-alpha). Both share the same parameter update
W <- W - lr*V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_ranges
from .nn import DenseLayer


@dataclass(frozen=True)
class Schedule:
    base_lr: float = 0.3
    decay_every: int = 200
    decay_factor: float = 1.0 / 3.0
    alpha: float = 0.9

    def __post_init__(self):
        check_ranges(self, (
            ("base_lr", 0 < self.base_lr < math.inf, "finite and positive"),
            ("alpha", 0.0 <= self.alpha < 1.0, "in [0, 1)"),
            ("decay_every", self.decay_every >= 1, ">= 1"),
            ("decay_factor", 0 < self.decay_factor < math.inf,
             "finite and positive")))


@dataclass
class MomentumState:
    """Gradient-accumulation buffers, shape-matched to one layer."""

    v_weight: np.ndarray
    v_bias: np.ndarray

    @classmethod
    def zeros_like(cls, layer: DenseLayer) -> "MomentumState":
        return cls(v_weight=np.zeros_like(layer.weight),
                   v_bias=np.zeros_like(layer.bias))


def _check_match(v: np.ndarray, g: np.ndarray, op: str) -> None:
    if v.shape != g.shape:
        raise ShapeError(f"{op}: V shape {v.shape} does not match "
                         f"G shape {g.shape}")


def momentum_standard(v: np.ndarray, g: np.ndarray, alpha: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """V' = alpha*V + G, written into ``out`` (which may be ``v``) when
    given."""
    _check_match(v, g, "momentum_standard")
    out = np.multiply(alpha, v, out=out)
    return np.add(out, g, out=out)


def momentum_nsn(v: np.ndarray, g: np.ndarray, alpha: float,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """V' = alpha*V + (1-alpha)*G, written into ``out`` (which may be ``v``
    or ``g``) when given; the (1-alpha)*G term goes to ``scratch``, an
    array of G's shape, when given."""
    _check_match(v, g, "momentum_nsn")
    term = np.multiply(1.0 - alpha, g, out=scratch)
    out = np.multiply(alpha, v, out=out)
    return np.add(out, term, out=out)


def apply_update(w: np.ndarray, v: np.ndarray, lr: float,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """W' = W - lr*V, written into ``out`` (which may be ``w``) when given;
    the lr*V term goes to ``scratch``, an array of V's shape, when given."""
    _check_match(w, v, "apply_update")
    step = np.multiply(lr, v, out=scratch)
    return np.subtract(w, step, out=out)


def l2_gradient(lam: float, w: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of (lam/2)*||W||^2; added to weight gradients only, never
    biases. Written into ``out`` when given."""
    if lam < 0:
        raise ConfigError(f"l2 lambda must be >= 0, got {lam}")
    return np.multiply(lam, w, out=out)


def lr_at(schedule: Schedule, epoch: int) -> float:
    """base_lr * decay_factor^floor(epoch / decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return schedule.base_lr * schedule.decay_factor ** (epoch // schedule.decay_every)
