"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its parents and, for each parent, a gradient
function that maps the output's gradient to that parent's gradient.
Calling ``backward()`` on a scalar loss walks the graph in reverse
topological order and is the one place that decides which parent gets a
gradient: each parent that requires one accumulates ``grad(node.grad)``.
Parents are stored as tuples (never sets) so traversal order, and
therefore floating-point accumulation order, is identical across runs:
same seed, same bits.

Gradient functions capture the forward arrays they need (inputs, masks,
the output's values), never the output tensor itself.  A function held
by the output that refers back to the output would make every graph a
reference cycle, freed only by the cyclic garbage collector.

An affine map ``x @ w + b`` is one ``linear`` node rather than a
``matmul`` node feeding a bias ``add``: the cost of a training step here
is Python overhead per node, not arithmetic, so every network layer
records a single node for its affine part.

A parent's first gradient is stored as a new array, never as the array
the gradient function returned: one gradient array may reach several
parents (``_same`` hands the same object to both sides of an ``add``),
and a later ``+=`` into a shared array would corrupt the other parent's
gradient.

Values are checked for NaN/Inf as they are produced; a non-finite
result raises :class:`NonFiniteError` naming the operation instead of
propagating silently.
"""

from __future__ import annotations

import contextlib

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf values."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values produced by op '{op}'")
        self.op = op


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """An n-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if not np.isfinite(self.data).all():
            raise NonFiniteError("leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grads: tuple = ()
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()  # requires a size-1 value

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # Bit-identical to zeros_like(data) + g (-0.0 becomes +0.0) in
            # one pass, in data's dtype and shape, and never an alias of g.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate ``grad`` for every tensor reachable from this scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            for parent, grad in zip(node._parents, node._grads):
                if parent.requires_grad:
                    parent._accumulate(grad(node.grad))

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, (int, float)) else mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS postorder; parent tuples make the order deterministic.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str, grads: tuple) -> Tensor:
    """The output node of ``op``; ``grads[i]`` maps its gradient to ``parents[i]``'s."""
    if not np.isfinite(data).all():
        raise NonFiniteError(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out._parents, out._grads = (parents, grads) if out.requires_grad else ((), ())
    return out


def _same(g: np.ndarray) -> np.ndarray:
    return g


# -- arithmetic ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise add of a same-shape tensor or a python scalar."""
    if isinstance(b, (int, float)):
        a = _wrap(a)
        return _result(a.data + b, (a,), "add", (_same,))

    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), "add", (_same, _same))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise multiply by a same-shape tensor or a python scalar."""
    a = _wrap(a)
    if isinstance(b, (int, float)):
        return _result(a.data * b, (a,), "mul", (lambda g: g * b,))

    b = _wrap(b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data * b.data, (a, b), "mul",
                   (lambda g: g * b.data, lambda g: g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data @ b.data, (a, b), "matmul",
                   (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: an (m, n) batch, (n, k) weights, a (k,) bias."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    return _result(x.data @ w.data + b.data, (x, w, b), "linear",
                   (lambda g: g @ w.data.T, lambda g: x.data.T @ g, lambda g: g.sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _result(a.data.T.copy(), (a,), "transpose", (lambda g: g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    return _result(a.data.reshape(shape).copy(), (a,), "reshape",
                   (lambda g: g.reshape(a.shape),))


# -- elementwise nonlinearities ------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    return _result(np.where(mask, a.data, 0.0), (a,), "relu", (lambda g: g * mask,))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    a = _wrap(a)
    slope = np.where(a.data > 0, 1.0, alpha)
    return _result(a.data * slope, (a,), "leaky_relu", (lambda g: g * slope,))


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)
    return _result(data, (a,), "tanh", (lambda g: g * (1.0 - data * data),))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    # Stable in both tails.
    data = np.empty_like(a.data)
    pos = a.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    data[~pos] = e / (1.0 + e)
    return _result(data, (a,), "sigmoid", (lambda g: g * data * (1.0 - data),))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis of a 2-d tensor."""
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ValueError(f"softmax expects a 2-d tensor, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)
    return _result(data, (a,), "softmax",
                   (lambda g: data * (g - (g * data).sum(axis=1, keepdims=True)),))


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError:
            raise NonFiniteError("log") from None
    return _result(data, (a,), "log", (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    """Square root with subgradient 0 at exactly 0."""
    a = _wrap(a)
    data = np.sqrt(a.data)
    return _result(data, (a,), "sqrt",
                   (lambda g: g * np.where(data > 0, 0.5 / np.where(data > 0, data, 1.0), 0.0),))


def square(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _result(a.data * a.data, (a,), "square", (lambda g: g * 2.0 * a.data,))


def absolute(a: Tensor) -> Tensor:
    a = _wrap(a)
    sign = np.sign(a.data)
    return _result(np.abs(a.data), (a,), "abs", (lambda g: g * sign,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    a = _wrap(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _result(np.clip(a.data, lo, hi), (a,), "clip", (lambda g: g * mask,))


# -- reductions ----------------------------------------------------------


def _unreduce(g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """The reduced gradient with the reduced axis put back (size 1)."""
    return np.expand_dims(g, axis) if axis is not None and not keepdims else g


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad(g):
        g = _unreduce(g, axis, keepdims)
        return np.broadcast_to(g, a.shape).copy() if g.shape != a.shape else g

    return _result(np.asarray(data), (a,), "sum", (grad,))


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]
    return _result(np.asarray(data), (a,), "mean",
                   (lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), a.shape) / count,))
