"""Self-contained property suites over synthetic data.

These are the checks `nsn verify` runs: gradient correctness against the
finite-difference oracle, tie and detachment invariants of the family,
equivalence of the two momentum formats, and equivalence of the canonical
shared-storage update with the literal per-model scheme. Everything here is
seeded and runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .family import ModelFamily, build_family, detach, init_layer
from .nn import (DenseLayer, ModelSpec, model_backward, model_forward,
                 numerical_gradient, spec_for_params)
from .optim import (MomentumState, Schedule, apply_update, l2_gradient,
                    lr_at, momentum_nsn, momentum_standard)
from .train import TrainConfig, _dropout_rng, train_step


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _to64(params) -> list[DenseLayer]:
    return [DenseLayer(p.weight.astype(np.float64),
                       p.bias.astype(np.float64)) for p in params]


def max_relative_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor) over all layers."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for av, nv in ((a.d_weight, n.d_weight), (a.d_bias, n.d_bias)):
            denom = np.maximum(np.maximum(np.abs(av), np.abs(nv)), floor)
            worst = max(worst, float(np.max(np.abs(av - nv) / denom)))
    return worst


GRADCHECK_DIMS = [(784, 10), (784, 16, 10), (784, 16, 16, 10)]
GRADCHECK_TOL = 1e-4


def check_gradcheck(dims_list=None, batch: int = 4,
                    tol: float = GRADCHECK_TOL) -> CheckResult:
    """Analytic gradients vs 64-bit central differences, dropout off."""
    worst = 0.0
    for dims in dims_list or GRADCHECK_DIMS:
        rng = np.random.default_rng([7, len(dims)])
        params = _to64(init_layer(o, i, rng)
                       for i, o in zip(dims, dims[1:]))
        x = rng.random((batch, dims[0]))
        labels = rng.integers(0, dims[-1], size=batch)
        spec = ModelSpec(tuple(dims))
        _, buffers = model_forward(spec, params, x, "train")
        analytic = model_backward(spec, params, buffers, labels)
        numeric = numerical_gradient(spec, params, x, labels)
        worst = max(worst, max_relative_error(analytic, numeric))
    return CheckResult("gradcheck", worst <= tol,
                       f"max relative error {worst:.3g} (tolerance {tol:g})")


def _toy_config(n: int = 2, width: int = 4, classes: int = 3,
                dropout: bool = True) -> TrainConfig:
    return TrainConfig(
        mode="nsn", n_hidden=n, epochs=1, batch_size=8,
        schedule=Schedule(base_lr=0.1, decay_every=1000,
                          decay_factor=1.0 / 3.0, alpha=0.9),
        l2_lambda=1e-3,
        input_keep=0.8 if dropout else 1.0,
        hidden_keep=0.5 if dropout else 1.0,
        input_dim=width, classes=classes)


def _toy_batches(config: TrainConfig, steps: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.random((config.batch_size, config.input_dim),
                       dtype=np.float64).astype(np.float32)
        labels = rng.integers(0, config.classes, size=config.batch_size)
        yield x, labels


def check_tie_invariant(steps: int = 100) -> CheckResult:
    """Tied layers stay bitwise equal across views after random updates."""
    config = _toy_config()
    family = build_family(config.n_hidden, config.input_dim, config.classes,
                          init_seed=3)
    momentum = [MomentumState.zeros_like(g) for g in family.groups]
    for step, batch in enumerate(_toy_batches(config, steps)):
        train_step(family, momentum, batch, config, epoch=0, step=step)
        for m in range(1, family.n + 1):
            upper, lower = family.view(m), family.view(m - 1)
            for lo, up in zip(lower, upper[1:]):
                if not (np.array_equal(lo.weight, up.weight)
                        and np.array_equal(lo.bias, up.bias)):
                    return CheckResult("tie-invariant", False,
                                       f"views diverged at step {step}")
    return CheckResult("tie-invariant", True,
                       f"{steps} steps, all tied layers bitwise equal")


def check_detach_exactness() -> CheckResult:
    """detach(family, k) forwards bitwise identically to view(n - k)."""
    family = build_family(2, 8, 10, init_seed=5)
    x = np.random.default_rng(6).random((16, 8)).astype(np.float32)
    for k in range(family.n + 1):
        view = family.view(family.n - k)
        spec = spec_for_params(view)
        got, _ = model_forward(spec, detach(family, k), x, "eval")
        want, _ = model_forward(spec, view, x, "eval")
        if not np.array_equal(got, want):
            return CheckResult("detach-exactness", False,
                               f"logits differ at k={k}")
    return CheckResult("detach-exactness", True,
                       f"k in 0..{family.n} bitwise identical")


def check_momentum_equivalence(steps: int = 200,
                               tol: float = 1e-6) -> CheckResult:
    """EMA momentum at lr tracks standard momentum at lr*(1-alpha)."""
    rng = np.random.default_rng(9)
    w_ema = rng.uniform(-1, 1, size=(8, 3)).astype(np.float32)
    w_std = w_ema.copy()
    v_ema = np.zeros_like(w_ema)
    v_std = np.zeros_like(w_std)
    alpha, lr = 0.9, 0.05
    lr_std = lr * (1.0 - alpha)
    worst = 0.0
    for _ in range(steps):
        v_ema = momentum_nsn(v_ema, w_ema, alpha)  # grad of ||w||^2/2 is w
        w_ema = apply_update(w_ema, v_ema, lr)
        v_std = momentum_standard(v_std, w_std, alpha)
        w_std = apply_update(w_std, v_std, lr_std)
        worst = max(worst, float(np.max(np.abs(w_ema - w_std))))
    return CheckResult("momentum-equivalence", worst <= tol,
                       f"max per-step drift {worst:.3g} (tolerance {tol:g})")


class LiteralFamily:
    """Per-model-storage double of the family update.

    Every model keeps private copies of its layers. Each step copies
    parameters from lesser to bigger models (actual data movement), then
    applies the pairwise-averaged update to every copy: a model's layer i
    pairs with the next model's layer i+1, the base model's non-input
    layers pair downward, and the base input layer is updated unpaired.
    Only the values in each group's owner slot survive the next copy; they
    must match the canonical shared-storage trajectory exactly.
    """

    def __init__(self, family: ModelFamily, config: TrainConfig):
        self.n = family.n
        self.config = config
        self.models = [[layer.copy() for layer in family.view(m)]
                       for m in range(family.n + 1)]
        self.momentum = [[MomentumState.zeros_like(layer) for layer in model]
                         for model in self.models]

    def copy_up(self) -> None:
        for m in range(1, self.n + 1):
            for i in range(1, m + 1):
                src = self.models[m - 1][i - 1]
                self.models[m][i] = src.copy()

    def owner_layer(self, g: int) -> DenseLayer:
        return self.models[g][0]

    def step(self, batch, epoch: int, step: int) -> None:
        self.copy_up()
        x, labels = batch
        config = self.config
        grad_sets = []
        for m in range(self.n + 1):
            spec = config.model_spec(m)
            _, buffers = model_forward(spec, self.models[m], x, "train",
                                       _dropout_rng(config, epoch, step, m))
            grad_sets.append(model_backward(spec, self.models[m], buffers,
                                            labels))
        if config.l2_lambda > 0:
            for grads, layer in zip(grad_sets[-1], self.models[self.n]):
                grads.d_weight = grads.d_weight + l2_gradient(
                    config.l2_lambda, layer.weight)
        lr = lr_at(config.schedule, epoch)
        alpha = config.schedule.alpha
        for m in range(self.n + 1):
            for i in range(m + 1):
                own = grad_sets[m][i]
                if m < self.n:
                    pair = grad_sets[m + 1][i + 1]
                elif i > 0:
                    pair = grad_sets[m - 1][i - 1]
                else:
                    pair = None
                if pair is None:
                    gw, gb = own.d_weight, own.d_bias
                else:
                    gw = np.float32(0.5) * (own.d_weight + pair.d_weight)
                    gb = np.float32(0.5) * (own.d_bias + pair.d_bias)
                state = self.momentum[m][i]
                layer = self.models[m][i]
                state.v_weight = momentum_nsn(state.v_weight, gw, alpha)
                state.v_bias = momentum_nsn(state.v_bias, gb, alpha)
                layer.weight = apply_update(layer.weight, state.v_weight, lr)
                layer.bias = apply_update(layer.bias, state.v_bias, lr)


def check_canonical_vs_literal(steps: int = 50,
                               tol: float = 1e-6) -> CheckResult:
    """Shared-storage trajectory equals the literal scheme's owner values."""
    config = _toy_config()
    family = build_family(config.n_hidden, config.input_dim, config.classes,
                          init_seed=13)
    momentum = [MomentumState.zeros_like(g) for g in family.groups]
    literal = LiteralFamily(family, config)
    worst = 0.0
    for step, batch in enumerate(_toy_batches(config, steps, seed=17)):
        train_step(family, momentum, batch, config, epoch=0, step=step)
        literal.step(batch, epoch=0, step=step)
        for g, group in enumerate(family.groups):
            owner = literal.owner_layer(g)
            worst = max(worst,
                        float(np.max(np.abs(group.weight - owner.weight))),
                        float(np.max(np.abs(group.bias - owner.bias))))
        if worst > tol:
            return CheckResult("canonical-vs-literal", False,
                               f"diverged at step {step}: {worst:.3g}")
    return CheckResult("canonical-vs-literal", True,
                       f"{steps} steps, max deviation {worst:.3g} "
                       f"(tolerance {tol:g})")


ALL_CHECKS = (check_gradcheck, check_tie_invariant, check_detach_exactness,
              check_momentum_equivalence, check_canonical_vs_literal)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
