"""Central finite-difference gradient checking.

The numeric side only ever evaluates forward passes, so it is an
independent oracle for the gradient functions in :mod:`mekd.autodiff`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nets import LEAKY_SLOPE

H = 1e-5  # central-difference step
KINK_MARGIN = 0.08  # how far probes stay from a kink


def numeric_gradient(f: Callable[..., float], arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradient of f with respect to each input array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            up = f(*arrays)
            flat[i] = orig - H
            down = f(*arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * H)
        grads.append(g)
    return grads


def analytic_gradient(build: Callable[..., Tensor], arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Backprop gradient of the scalar built by ``build`` from leaf tensors."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*leaves)
    loss.backward()
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]


def max_relative_error(build: Callable[..., Tensor], arrays: Sequence[np.ndarray]) -> float:
    """Worst relative disagreement between backprop and finite differences."""
    analytic = analytic_gradient(build, arrays)
    numeric = numeric_gradient(lambda *xs: build(*[Tensor(x) for x in xs]).item(), list(arrays))
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(1.0, float(np.max(np.abs(n))) if n.size else 0.0)
        worst = max(worst, float(np.max(np.abs(a - n))) / scale if a.size else 0.0)
    return worst


def _away_from(x: np.ndarray, points) -> np.ndarray:
    """Push values at least KINK_MARGIN away from each kink point."""
    for pt in points:
        near = np.abs(x - pt) < KINK_MARGIN
        x = np.where(near, np.where(x >= pt, pt + KINK_MARGIN, pt - KINK_MARGIN), x)
    return x


def op_suite(seed: int) -> list[tuple[str, Callable[..., Tensor], list[np.ndarray]]]:
    """One randomized check case per supported op; call repeatedly with fresh seeds."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 7))
    k = int(rng.integers(2, 6))
    x = rng.standard_normal((m, n))
    w = rng.standard_normal((n, k)) / np.sqrt(n)
    b = rng.standard_normal(k)
    r = rng.standard_normal((m, k))  # random probe so all output entries matter
    rx = rng.standard_normal((m, n))
    R, RX, R0, RX0, RXT = map(ad.constant, (r, rx, r[:, 0], rx[0], rx.T.copy()))
    kinky = _away_from(rng.standard_normal((m, n)), [0.0])
    clippy = _away_from(rng.standard_normal((m, n)), [-0.5, 0.5])
    positive = np.abs(rng.standard_normal((m, n))) + 0.5
    y2 = rng.standard_normal((m, n))

    return [
        ("linear", lambda X, W, B: (ad.linear(X, W, B) * R).sum(), [x, w, b]),
        ("matmul", lambda X, W: (ad.matmul(X, W) * R).sum(), [x, w]),
        ("matmul_t", lambda X, W: (ad.matmul_t(X, W) * RX).sum(), [r, w]),
        ("relu", lambda X: (ad.relu(X) * RX).sum(), [kinky]),
        ("leaky_relu", lambda X: (ad.leaky_relu(X, LEAKY_SLOPE) * RX).sum(), [kinky]),
        ("tanh", lambda X: (ad.tanh(X) * RX).sum(), [x]),
        ("sigmoid", lambda X: (ad.sigmoid(X) * RX).sum(), [x]),
        ("softmax", lambda X: (ad.softmax(X) * RX).sum(), [x]),
        ("log", lambda X: (ad.log(X) * RX).sum(), [positive]),
        ("sqrt", lambda X: (ad.sqrt(X) * RX).sum(), [positive]),
        ("square", lambda X: (ad.square(X) * RX).sum(), [x]),
        ("abs", lambda X: (ad.absolute(X) * RX).sum(), [kinky]),
        ("sum", lambda X: (X.sum(axis=1) * R0).sum(), [x]),
        ("mean", lambda X: (X.mean(axis=0) * RX0).sum() + X.mean(), [x]),
        ("transpose", lambda X: (ad.transpose(X) * RXT).sum(), [x]),
        ("reshape", lambda X: (ad.reshape(X, (n, m)) * RXT).sum(), [x]),
        ("clip", lambda X: (ad.clip(X, -0.5, 0.5) * RX).sum(), [clippy]),
        ("mul", lambda A, B: (A * B).sum(), [x, y2]),
        ("add_mul", lambda A, B: (((A + B) * 2.0 + 1.0) * RX).sum(), [x, y2]),
    ]


def run_op_suite(shapes_per_op: int = 20, tol: float = 1e-4, seed: int = 0,
                 report: Callable[[str], None] | None = None) -> dict[str, float]:
    """Check every op against finite differences on randomized shapes.

    Returns the worst relative error per op; raises AssertionError on failure.
    """
    if shapes_per_op < 1:
        raise ValueError(f"shapes_per_op must be >= 1, got {shapes_per_op}")
    worst: dict[str, float] = {}
    for trial in range(shapes_per_op):
        for name, build, arrays in op_suite(seed * 10_000 + trial):
            err = max_relative_error(build, arrays)
            worst[name] = max(worst.get(name, 0.0), err)
    failures = {name: e for name, e in worst.items() if e >= tol}
    if report is not None:
        for name in sorted(worst):
            status = "ok" if name not in failures else "FAIL"
            report(f"{name:11s} max rel err {worst[name]:.3e}  {status}")
    if failures:
        raise AssertionError(f"gradient check failed: {failures}")
    return worst
