"""MLP builders for the three network roles: classifier, generator, discriminator.

Role contracts enforced at build time:
  * classifier maps R^n -> probability simplex over C classes (terminal softmax)
  * generator maps R^C -> R^n images (terminal tanh rescaled to the data range);
    its input width MUST equal the class count
  * discriminator maps R^n -> (0, 1) (terminal sigmoid); the pre-sigmoid score
    is also exposed for critic-style training
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

# d activation / d pre-activation as a graph node, from (pre-activation a,
# activation h): piecewise-linear activations give constant masks, smooth
# ones are expressed through h and so stay differentiable.
HIDDEN_DERIVATIVE = {
    "relu": lambda a, h: ad.constant((a.data > 0).astype(float)),
    "leaky_relu": lambda a, h: ad.constant(np.where(a.data > 0, 1.0, LEAKY_SLOPE)),
    "tanh": lambda a, h: 1.0 - ad.square(h),
    "sigmoid": lambda a, h: h * (1.0 - h),
}

HIDDEN_ACTIVATIONS = tuple(_HIDDEN)


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
        self.frozen = False

    # -- plumbing ---------------------------------------------------------

    def freeze(self) -> "Network":
        for p in self.params.values():
            p.requires_grad = False
            p.grad = None
        self.frozen = True
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

    def _pre_head(self, x) -> tuple[Tensor, bool, list[tuple[Tensor, Tensor]]]:
        """Run all layers; final layer stays linear.

        Returns (out, was_1d, hidden), hidden holding each hidden layer's
        (pre-activation, activation) pair.
        """
        t = x if isinstance(x, Tensor) else ad.constant(x)
        was_1d = t.data.ndim == 1
        if was_1d:
            t = ad.reshape(t, (1, -1))
        if t.data.ndim != 2 or t.data.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"{self.spec.role} expects inputs of width {self.spec.input_dim}, "
                f"got shape {t.data.shape}")
        act = _HIDDEN[self.spec.activation]
        hidden = []
        for w, b in self.layers[:-1]:
            a = ad.linear(t, w, b)
            t = act(a)
            hidden.append((a, t))
        w, b = self.layers[-1]
        return ad.linear(t, w, b), was_1d, hidden

    def logits(self, x) -> Tensor:
        """Pre-head output: classifier logits / discriminator score."""
        out, was_1d, _ = self._pre_head(x)
        return ad.reshape(out, (-1,)) if was_1d else out

    def __call__(self, x) -> Tensor:
        out, was_1d, _ = self._pre_head(x)
        if self.spec.role == "classifier":
            out = ad.softmax(out)
        elif self.spec.role == "discriminator":
            out = ad.sigmoid(out)
        else:
            lo, hi = self.spec.output_range
            out = (ad.tanh(out) + 1.0) * (0.5 * (hi - lo)) + lo
        return ad.reshape(out, (-1,)) if was_1d else out

    def classify(self, x) -> Tensor:
        if self.spec.role != "classifier":
            raise ValueError(f"classify called on role {self.spec.role!r}")
        return self(x)

    def generate(self, y) -> Tensor:
        if self.spec.role != "generator":
            raise ValueError(f"generate called on role {self.spec.role!r}")
        return self(y)

    def discriminate(self, x) -> Tensor:
        if self.spec.role != "discriminator":
            raise ValueError(f"discriminate called on role {self.spec.role!r}")
        return self(x)

    def score(self, x) -> Tensor:
        """Pre-sigmoid discriminator output (critic value for wgan-gp)."""
        if self.spec.role != "discriminator":
            raise ValueError(f"score called on role {self.spec.role!r}")
        return self.logits(x)


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
