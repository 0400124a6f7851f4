"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its parents and, for each parent, a gradient
function that maps the output's gradient to that parent's gradient.
Calling ``backward()`` on a scalar loss walks the graph in reverse
topological order and is the one place that decides which parent gets a
gradient: each parent that requires one accumulates ``grad(node.grad)``.
Parents are stored as tuples (never sets) so traversal order, and
therefore floating-point accumulation order, is identical across runs:
same seed, same bits.

Ops take tensors (``add`` and ``mul`` also a python scalar second operand)
and convert nothing; arrays enter through ``Tensor(...)`` or :func:`constant`.

Gradient functions capture the forward arrays they need (inputs, masks,
the output's values), never the output tensor itself.  A function held
by the output that refers back to the output would make every graph a
reference cycle, freed only by the cyclic garbage collector.

An affine map ``x @ w + b`` is one ``linear`` node rather than a
``matmul`` node feeding a bias ``add``: the cost of a training step here
is Python overhead per node, not arithmetic, so every network layer
records a single node for its affine part.

Only leaves copy their first gradient; an intermediate node stores the
array its child's gradient function returned, and a second contribution
rebinds it (``grad = grad + g``) rather than adding in place.  One
gradient array may reach several parents (``_same`` hands the same
object to both sides of an ``add``), so an in-place update of a stored
gradient would corrupt every other holder of that array; never updating
one in place makes sharing safe and saves a copy per node.  A leaf's
gradient is what optimizers read, and later contributions (and later
backward calls) add into it in place, so its first gradient is copied
into an array of its own as ``+0.0 + g``, which also turns a ``-0.0``
into ``+0.0``.  Intermediate gradients may keep a ``-0.0``; that changes
no leaf's bits, because the sign of a zero never changes a nonzero value
further down and leaves normalize zeros.  Backward walks only nodes that
require a gradient: constants and no-grad subgraphs never enter its
order.

Values are checked for NaN/Inf as they are produced; a non-finite
result raises :class:`NonFiniteError` naming the operation instead of
propagating silently.  A leaf is checked when it is made, and so is the
output of every op except ``relu``, ``tanh``, ``sigmoid``, ``softmax`` and
``abs``: their output is finite for every finite input, and every input was
itself checked when it was made.  (An optimizer step updates a parameter in
place unchecked, but a network feeds its parameters only to the checked
``linear``.)  One check is one BLAS dot of the values with themselves: a
finite sum of squares proves every value finite, and only a non-finite one
(or an overflowing one of finite values) pays the elementwise ``isfinite``
pass.  ``leaky_relu`` stays checked because its ``alpha`` is unbounded,
and ``clip`` because its bounds may be NaN or infinite.
"""

from __future__ import annotations

import contextlib
import math

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
        if not _finite(self.data):
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
            g = node.grad
            for parent, grad in zip(node._parents, node._grads):
                if not parent.requires_grad:
                    continue
                if not parent._parents:
                    parent._accumulate(grad(g))
                elif parent.grad is None:
                    parent.grad = grad(g)
                else:
                    parent.grad = parent.grad + grad(g)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, (int, float)) else mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS postorder over the nodes that need a gradient; parent
    # tuples make the order deterministic.
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
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _finite(data: np.ndarray) -> bool:
    """Whether every value of data is finite."""
    # A finite sum of squares proves every value finite; only a non-finite
    # one (or one that overflows on finite values) needs the elementwise
    # pass.  vdot, unlike matmul, raises no overflow warning.
    return math.isfinite(np.vdot(data, data)) or bool(np.isfinite(data).all())


# Ops whose output is finite for every finite input, so _result skips their
# check: every input was checked when it was made.
_ALWAYS_FINITE = frozenset({"relu", "tanh", "sigmoid", "softmax", "abs"})


def checked(data: np.ndarray, op: str) -> np.ndarray:
    """``data``, once it is known to be finite; otherwise :class:`NonFiniteError` names ``op``."""
    if not _finite(data):
        raise NonFiniteError(op)
    return data


def checked_mean(data: np.ndarray, axis=None):
    """What :func:`reduce_mean` computes from data's values, checked under its op name."""
    count = data.size if axis is None else data.shape[axis]
    return checked(np.add.reduce(data, axis) / count, "mean")


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str, grads: tuple) -> Tensor:
    """The output node of ``op``; ``grads[i]`` maps its gradient to ``parents[i]``'s."""
    if op not in _ALWAYS_FINITE:
        checked(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out.requires_grad = _needs_grad(parents)
    out._parents, out._grads = (parents, grads) if out.requires_grad else ((), ())
    return out


def _needs_grad(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _same(g: np.ndarray) -> np.ndarray:
    return g


# -- arithmetic ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise add of a same-shape tensor or a python scalar."""
    if isinstance(b, (int, float)):
        return _result(a.data + b, (a,), "add", (_same,))
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), "add", (_same, _same))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise multiply by a same-shape tensor or a python scalar."""
    if isinstance(b, (int, float)):
        return _result(a.data * b, (a,), "mul", (lambda g: g * b,))
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data * b.data, (a, b), "mul",
                   (lambda g: g * b.data, lambda g: g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data @ b.data, (a, b), "matmul",
                   (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: an (m, n) batch, (n, k) weights, a (k,) bias."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data
    out += b.data
    return _result(out, (x, w, b), "linear",
                   (lambda g: g @ w.data.T, lambda g: x.data.T @ g, lambda g: g.sum(axis=0)))


def matmul_t(a: Tensor, w: Tensor) -> Tensor:
    """``a @ w.T`` as one node, bit-identical to ``matmul(a, transpose(w))``."""
    if a.data.ndim != 2 or w.data.ndim != 2 or a.shape[1] != w.shape[1]:
        raise ValueError(f"matmul_t shape mismatch: {a.shape} @ {w.shape}.T")
    wt = w.data.T.copy()
    return _result(a.data @ wt, (a, w), "matmul_t",
                   (lambda g: g @ wt.T, lambda g: (a.data.T @ g).T))


def transpose(a: Tensor) -> Tensor:
    return _result(a.data.T.copy(), (a,), "transpose", (lambda g: g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    return _result(a.data.reshape(shape).copy(), (a,), "reshape",
                   (lambda g: g.reshape(a.shape),))


# -- elementwise nonlinearities ------------------------------------------


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    data += 0.0  # relu(-0.0) is +0.0
    if not _needs_grad((a,)):
        return _result(data, (a,), "relu", ())
    mask = (a.data > 0).astype(np.float64)
    return _result(data, (a,), "relu", (lambda g: g * mask,))


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    if not _needs_grad((a,)):
        return _result(np.maximum(a.data, alpha * a.data), (a,), "leaky_relu", ())
    slope = np.where(a.data > 0, 1.0, alpha)
    return _result(a.data * slope, (a,), "leaky_relu", (lambda g: g * slope,))


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _result(data, (a,), "tanh", (lambda g: g * (1.0 - data * data),))


def sigmoid(a: Tensor) -> Tensor:
    data = sigmoid_values(a.data)
    return _result(data, (a,), "sigmoid", (lambda g: g * data * (1.0 - data),))


def sigmoid_values(a: np.ndarray) -> np.ndarray:
    """The logistic of each entry, stable in both tails: the values :func:`sigmoid` computes."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis of a 2-d tensor."""
    if a.data.ndim != 2:
        raise ValueError(f"softmax expects a 2-d tensor, got shape {a.shape}")
    data = softmax_rows(a.data)
    return _result(data, (a,), "softmax", (lambda g: softmax_grad(data, g),))


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-d array: the values :func:`softmax` computes."""
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_grad(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient at softmax's input, for its output values data and output gradient g."""
    return data * (g - (g * data).sum(axis=1, keepdims=True))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError:
            raise NonFiniteError("log") from None
    return _result(data, (a,), "log", (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    """Square root with subgradient 0 at exactly 0."""
    data = np.sqrt(a.data)
    return _result(data, (a,), "sqrt",
                   (lambda g: g * np.where(data > 0, 0.5 / np.where(data > 0, data, 1.0), 0.0),))


def square(a: Tensor) -> Tensor:
    return _result(a.data * a.data, (a,), "square", (lambda g: g * 2.0 * a.data,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _result(np.abs(a.data), (a,), "abs", (lambda g: g * sign,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    mask = (a.data >= lo) & (a.data <= hi)
    return _result(np.clip(a.data, lo, hi), (a,), "clip", (lambda g: g * mask,))


# -- reductions ----------------------------------------------------------


def _kept_shape(shape: tuple, axis) -> tuple | None:
    """``shape`` with the reduced axis kept at size 1; None when every axis is reduced."""
    if axis is None:
        return None
    kept = list(shape)
    kept[axis] = 1
    return tuple(kept)


def _unreduce(g: np.ndarray, kept) -> np.ndarray:
    """The reduced gradient with the reduced axis put back (size 1)."""
    return g if kept is None else g.reshape(kept)


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    data = np.add.reduce(a.data, axis)
    kept = _kept_shape(a.shape, axis)

    def grad(g):
        out = np.empty(a.shape, g.dtype)
        out[...] = _unreduce(g, kept)  # one broadcast pass, no intermediate view copy
        return out

    return _result(np.asarray(data), (a,), "sum", (grad,))


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    data = np.add.reduce(a.data, axis) / count  # what ndarray.mean computes, minus its helpers
    kept = _kept_shape(a.shape, axis)
    return _result(np.asarray(data), (a,), "mean",
                   (lambda g: np.divide(_unreduce(g, kept), count,
                                        out=np.empty(a.shape, g.dtype)),))
