"""SGD with momentum, a multi-step learning-rate schedule, and training-loop errors."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .autodiff import Tensor


class TrainingDiverged(RuntimeError):
    """A training loop hit a non-finite loss; message carries epoch/step context."""


class SGD:
    """Plain momentum SGD: v <- momentum*v + g; p <- p - lr*v."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.0,
                 clip_norm: float | None = None):
        check_sgd(lr, momentum)
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive when set, got {clip_norm}")
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        missing = [name for name, p in self.params.items() if p.grad is None]
        if missing:
            raise ValueError(f"missing gradient for parameter(s): {', '.join(missing)}")
        grads = {name: p.grad for name, p in self.params.items()}
        if self.clip_norm is not None:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = {name: g * scale for name, g in grads.items()}
        for name, p in self.params.items():
            v = self.velocity[name]
            if self.momentum:
                v *= self.momentum
                v += grads[name]
            else:
                v[...] = grads[name]
            p.data -= (self.lr * v).astype(p.data.dtype, copy=False)


def check_sgd(lr: float, momentum: float, lr_key: str = "lr") -> None:
    """Raise ValueError unless learning rate `lr_key` is positive and momentum is in [0, 1)."""
    if not lr > 0:
        raise ValueError(f"{lr_key} must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")


def check_schedule(milestones: Sequence[int], gamma: float) -> None:
    """Raise ValueError unless milestones strictly increase and gamma is in (0, 1]."""
    if any(b >= a for a, b in zip(milestones[1:], milestones)):
        raise ValueError(f"milestones must be strictly increasing: {list(milestones)}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")


def multistep_lr(epoch: int, base_lr: float, milestones: Sequence[int], gamma: float) -> float:
    """base_lr decayed by gamma once per milestone that epoch has reached."""
    check_schedule(milestones, gamma)
    passed = sum(1 for m in milestones if m <= epoch)
    return base_lr * gamma**passed
