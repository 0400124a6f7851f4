"""MLP builders for the three network roles: classifier, generator, discriminator.

Role contracts enforced at build time:
  * classifier maps R^n -> probability simplex over C classes (terminal softmax)
  * generator maps R^C -> R^n images (terminal tanh rescaled to the data range);
    its input width MUST equal the class count
  * discriminator maps R^n -> (0, 1) (terminal sigmoid); its pre-sigmoid
    score, ``logits``, is the critic value for wgan-gp

The array steps (GAN, distillation, teacher) share one array layer walk,
:func:`hidden_pass` and :func:`backward_pass`, for every hidden activation:
the tape's expressions and checks in the tape's order, so its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ROLES = ("classifier", "generator", "discriminator")
LEAKY_SLOPE = 0.2

_HIDDEN = {
    "relu": ad.relu,
    "leaky_relu": lambda t: ad.leaky_relu(t, LEAKY_SLOPE),
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
}

# d activation / d pre-activation as a graph node, from the activation h:
# piecewise-linear ones give constant masks (h > 0 exactly where the
# pre-activation is), smooth ones stay differentiable through h.
HIDDEN_DERIVATIVE = {
    "relu": lambda h: ad.constant((h.data > 0).astype(float)),
    "leaky_relu": lambda h: ad.constant(np.where(h.data > 0, 1.0, LEAKY_SLOPE)),
    "tanh": lambda h: 1.0 - ad.square(h),
    "sigmoid": lambda h: h * (1.0 - h),
}

HIDDEN_ACTIVATIONS = tuple(_HIDDEN)

# Activations whose HIDDEN_DERIVATIVE reads only the activation's sign, so
# it needs no graph through the hidden pass.
PIECEWISE_LINEAR = frozenset({"relu", "leaky_relu"})


class DimensionContractError(ValueError):
    """A network spec violates its role's input/output dimension contract."""


@dataclass(frozen=True)
class NetworkSpec:
    role: str
    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    activation: str = "relu"
    output_range: tuple[float, float] = (0.0, 1.0)  # generator only

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if self.activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = (self.input_dim, *self.hidden, self.output_dim)
        if any(int(d) <= 0 for d in dims):
            raise ValueError(f"layer widths must be positive, got {dims}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        lo, hi = self.output_range
        if not lo < hi:
            raise ValueError(f"output_range must satisfy lo < hi, got {self.output_range}")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)


class Network:
    """A fully-connected network with a role-specific output head."""

    def __init__(self, spec: NetworkSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params
        widths = spec.widths
        self.layers: list[tuple[Tensor, Tensor]] = [
            (params[f"layers.{i}.weight"], params[f"layers.{i}.bias"])
            for i in range(len(widths) - 1)
        ]

    # -- plumbing ---------------------------------------------------------

    def freeze(self) -> "Network":
        for p in self.params.values():
            p.requires_grad = False
            p.grad = None
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = sorted(set(self.params) - set(state))
            extra = sorted(set(state) - set(self.params))
            raise ValueError(f"parameter name mismatch: missing={missing} extra={extra}")
        for name, value in state.items():
            p = self.params[name]
            if tuple(value.shape) != tuple(p.data.shape):
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs net {p.data.shape}")
            p.data = np.asarray(value, dtype=p.data.dtype).copy()

    # -- forward passes ---------------------------------------------------

    def _hidden(self, x) -> list[Tensor]:
        """Run the hidden layers on a 2-d batch; returns every activation,
        the input first and the last hidden layer's last."""
        t = x if isinstance(x, Tensor) else ad.constant(x)
        if t.data.ndim != 2 or t.shape[1] != self.spec.input_dim:
            raise ValueError(f"{self.spec.role} expects a (rows, {self.spec.input_dim}) "
                             f"batch, got shape {t.shape}")
        act = _HIDDEN[self.spec.activation]
        hidden = [t]
        for w, b in self.layers[:-1]:
            hidden.append(act(ad.linear(hidden[-1], w, b)))
        return hidden

    def logits(self, x) -> Tensor:
        """The last layer's affine output: classifier logits, critic score."""
        w, b = self.layers[-1]
        return ad.linear(self._hidden(x)[-1], w, b)

    def __call__(self, x) -> Tensor:
        # not self.logits(x): the benchmark counts each call of either as one pass
        w, b = self.layers[-1]
        out = ad.linear(self._hidden(x)[-1], w, b)
        if self.spec.role == "classifier":
            return ad.softmax(out)
        if self.spec.role == "discriminator":
            return ad.sigmoid(out)
        lo, hi = self.spec.output_range
        return (ad.tanh(out) + 1.0) * (0.5 * (hi - lo)) + lo


def build_network(spec: NetworkSpec, num_classes: int, seed) -> Network:
    """Construct a seeded network, enforcing the role's dimension contract.

    Initialization is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer,
    for both weights and biases.
    """
    if num_classes < 2:
        raise DimensionContractError(f"need at least 2 classes, got {num_classes}")
    if spec.role == "classifier" and spec.output_dim != num_classes:
        raise DimensionContractError(
            f"classifier output width {spec.output_dim} != class count {num_classes}")
    if spec.role == "generator" and spec.input_dim != num_classes:
        raise DimensionContractError(
            f"generator input width {spec.input_dim} != class count {num_classes}; "
            f"the latent dimension must equal the category count")
    if spec.role == "discriminator" and spec.output_dim != 1:
        raise DimensionContractError(
            f"discriminator output width must be 1, got {spec.output_dim}")

    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    widths = spec.widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        params[f"layers.{i}.weight"] = Tensor(w, requires_grad=True)
        params[f"layers.{i}.bias"] = Tensor(b, requires_grad=True)
    return Network(spec, params)


# -- the array layer walk --------------------------------------------------
#
# leaky_relu is always z * slope (bit-equal to its no-grad np.maximum form);
# piecewise slopes come from z's sign, and they, tanh and sigmoid go unchecked
# (finite), as in the tape.  A sigmoid's slope is h: its backward is g * h * (1 - h).


def affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    z = x @ w.data
    z += b.data
    return ad.checked(z, "linear")


def hidden_pass(net: Network, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's input (x first, the head's last) and each hidden activation's slope."""
    act = net.spec.activation
    inputs, slopes = [x], []
    for w, b in net.layers[:-1]:
        z = affine(inputs[-1], w, b)
        if act == "leaky_relu":
            slopes.append(np.where(z > 0, 1.0, LEAKY_SLOPE))
            inputs.append(ad.checked(z * slopes[-1], "leaky_relu"))
        elif act == "relu":
            slopes.append((z > 0).astype(np.float64))
            h = np.maximum(z, 0.0)
            h += 0.0  # relu(-0.0) is +0.0
            inputs.append(h)
        elif act == "tanh":
            inputs.append(np.tanh(z))
            slopes.append(1.0 - inputs[-1] * inputs[-1])
        else:
            inputs.append(ad.sigmoid_values(z))
            slopes.append(inputs[-1])
    return inputs, slopes


def backward_pass(net: Network, inputs: list[np.ndarray], slopes: list[np.ndarray],
                  g: np.ndarray, train: bool = True) -> np.ndarray | None:
    """Backprop g from net's head output, top layer down: with ``train`` into
    each layer's weight and then bias leaf, else to the input, returned."""
    sigmoid = net.spec.activation == "sigmoid"
    for i in range(len(net.layers) - 1, -1, -1):
        w, b = net.layers[i]
        if train:
            w._accumulate(inputs[i].T @ g)
            b._accumulate(g.sum(axis=0))
            if i == 0:
                return None
        g = g @ w.data.T
        if i:
            g = g * slopes[i - 1]
            if sigmoid:
                g = g * (1.0 - inputs[i])
    return g


def classifier_pass(net: Network, x: np.ndarray):
    """net(x) for an array x, checked as the tape's leaf: (inputs, slopes, probabilities)."""
    inputs, slopes = hidden_pass(net, ad.checked(x, "leaf"))
    return inputs, slopes, ad.softmax_rows(affine(inputs[-1], *net.layers[-1]))


def generator_pass(G: Network, y: np.ndarray):
    """G(y) for a checked feed y: (inputs, slopes, tanh output, images)."""
    inputs, slopes = hidden_pass(G, y)
    t = np.tanh(affine(inputs[-1], *G.layers[-1]))
    lo, hi = G.spec.output_range
    images = ad.checked(t + 1.0, "add")
    images = ad.checked(images * (0.5 * (hi - lo)), "mul")
    return inputs, slopes, t, ad.checked(images + lo, "add")


def generator_backward(G: Network, inputs, slopes, t: np.ndarray, g: np.ndarray,
                       train: bool = True) -> np.ndarray | None:
    """Backprop g from G's images: into its leaves with ``train``, else to the feed, returned."""
    lo, hi = G.spec.output_range
    return backward_pass(G, inputs, slopes, g * (0.5 * (hi - lo)) * (1.0 - t * t), train)
