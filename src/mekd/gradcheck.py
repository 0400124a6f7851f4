"""Central finite-difference gradient checking.

The numeric side only ever evaluates forward passes, so it is an
independent oracle for the gradient functions in :mod:`mekd.autodiff`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def numeric_gradient(f: Callable[..., float], arrays: Sequence[np.ndarray],
                     h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of f with respect to each input array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(*arrays)
            flat[i] = orig - h
            down = f(*arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def analytic_gradient(build: Callable[..., Tensor], arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Backprop gradient of the scalar built by ``build`` from leaf tensors."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*leaves)
    loss.backward()
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]


def max_relative_error(build: Callable[..., Tensor], arrays: Sequence[np.ndarray],
                       h: float = 1e-5) -> float:
    """Worst relative disagreement between backprop and finite differences."""
    analytic = analytic_gradient(build, arrays)
    numeric = numeric_gradient(lambda *xs: build(*[Tensor(x) for x in xs]).item(), list(arrays), h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(1.0, float(np.max(np.abs(n))) if n.size else 0.0)
        worst = max(worst, float(np.max(np.abs(a - n))) / scale if a.size else 0.0)
    return worst


def _away_from(x: np.ndarray, points, margin: float = 0.08) -> np.ndarray:
    """Push values at least ``margin`` away from each kink point."""
    for pt in points:
        near = np.abs(x - pt) < margin
        x = np.where(near, np.where(x >= pt, pt + margin, pt - margin), x)
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
    kinky = _away_from(rng.standard_normal((m, n)), [0.0])
    clippy = _away_from(rng.standard_normal((m, n)), [-0.5, 0.5])
    positive = np.abs(rng.standard_normal((m, n))) + 0.5
    y2 = rng.standard_normal((m, n))

    cases = [
        ("linear", lambda X, W, B: (ad.linear(X, W, B) * r).sum(), [x, w, b]),
        ("matmul", lambda X, W: (ad.matmul(X, W) * r).sum(), [x, w]),
        ("matmul_t", lambda X, W: (ad.matmul_t(X, W) * rx).sum(), [r, w]),
        ("relu", lambda X: (ad.relu(X) * rx).sum(), [kinky]),
        ("leaky_relu", lambda X: (ad.leaky_relu(X, 0.2) * rx).sum(), [kinky]),
        ("tanh", lambda X: (ad.tanh(X) * rx).sum(), [x]),
        ("sigmoid", lambda X: (ad.sigmoid(X) * rx).sum(), [x]),
        ("softmax", lambda X: (ad.softmax(X) * rx).sum(), [x]),
        ("log", lambda X: (ad.log(X) * rx).sum(), [positive]),
        ("sqrt", lambda X: (ad.sqrt(X) * rx).sum(), [positive]),
        ("square", lambda X: (ad.square(X) * rx).sum(), [x]),
        ("abs", lambda X: (ad.absolute(X) * rx).sum(), [kinky]),
        ("sum", lambda X: (X.sum(axis=1) * r[:, 0]).sum(), [x]),
        ("mean", lambda X: (X.mean(axis=0) * rx[0]).sum() + X.mean(), [x]),
        ("transpose", lambda X: (ad.transpose(X) * rx.T).sum(), [x]),
        ("reshape", lambda X: (ad.reshape(X, (n, m)) * rx.T.copy()).sum(), [x]),
        ("clip", lambda X: (ad.clip(X, -0.5, 0.5) * rx).sum(), [clippy]),
        ("mul", lambda A, B: (A * B).sum(), [x, y2]),
        ("add_mul", lambda A, B: (((A + B) * 2.0 + 1.0) * rx).sum(), [x, y2]),
    ]
    return cases


def run_op_suite(shapes_per_op: int = 20, tol: float = 1e-4, seed: int = 0,
                 report: Callable[[str], None] | None = None) -> dict[str, float]:
    """Check every op against finite differences on randomized shapes.

    Returns the worst relative error per op; raises AssertionError on failure.
    """
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
