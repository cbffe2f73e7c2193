"""AdamW with decoupled weight decay and a reduce-on-plateau learning-rate
scheduler.

The decay is applied to the weights before the moment update (w -= lr*wd*w),
so it never leaks into the running moments. Moments use the usual bias
correction. The scheduler halves the rate after ``patience`` consecutive
epochs without a relative improvement of more than ``threshold``, with a
hard floor at ``min_lr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ModelParams


class TrainingDivergedError(RuntimeError):
    """A parameter array went non-finite during optimization."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for one training run."""

    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    early_stopping_patience: int = 10
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.early_stopping_patience < 1:
            raise ValueError("early_stopping_patience must be at least 1")


@dataclass
class OptimState:
    """First and second moment estimates plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optim_state(params: ModelParams) -> OptimState:
    return OptimState(
        m={k: np.zeros_like(a) for k, a in params.arrays.items()},
        v={k: np.zeros_like(a) for k, a in params.arrays.items()},
    )


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimState,
    config: TrainConfig,
    lr: float | None = None,
) -> None:
    """One in-place update of every parameter array.

    ``lr`` overrides the configured rate so the scheduler can drive it.
    Raises TrainingDivergedError naming the first array that goes
    non-finite.
    """
    rate = config.learning_rate if lr is None else lr
    state.step += 1
    bc1 = 1.0 - config.beta1**state.step
    bc2 = 1.0 - config.beta2**state.step
    for name, w in params.arrays.items():
        g = grads[name]
        if config.weight_decay:
            w -= rate * config.weight_decay * w
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        w -= rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        if not np.all(np.isfinite(w)):
            raise TrainingDivergedError(f"array {name!r} contains non-finite values")


@dataclass
class PlateauScheduler:
    """Tracks the best validation loss and halves the rate on stagnation.

    An epoch improves when its loss is below best * (1 - threshold). After
    ``patience`` consecutive non-improving epochs the rate is multiplied by
    ``factor`` (never below ``min_lr``) and the stagnation counter resets.
    """

    lr: float
    factor: float = 0.5
    patience: int = 3
    min_lr: float = 1e-6
    threshold: float = 1e-4
    best: float = math.inf
    num_bad: int = 0

    def step(self, val_loss: float) -> float:
        """Feed one epoch's validation loss; returns the rate to use next."""
        if val_loss < self.best * (1.0 - self.threshold):
            self.best = val_loss
            self.num_bad = 0
        else:
            self.num_bad += 1
            if self.num_bad >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.num_bad = 0
        return self.lr
