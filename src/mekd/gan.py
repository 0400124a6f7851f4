"""Stage 1: adversarial training of the generator against real data.

The outer loop alternates k discriminator updates with one generator
update.  Two variants are supported: the vanilla cross-entropy game and
wgan-gp, whose gradient penalty is built by unrolling the input-gradient
of the critic as explicit graph operations (exact for MLPs: every
activation derivative is expressed through the activation values, and
piecewise-linear ones contribute constant masks).

The default step, wgan-gp with a ``relu`` or ``leaky_relu`` critic and any
generator (:func:`takes_array_step`), runs as array code with its backward
written out: :func:`wgan_critic_step` and :func:`wgan_generator_step` run
the tape's numpy expressions and finiteness checks in the tape's order and
hand each leaf gradient to ``Tensor._accumulate`` as ``Tensor.backward``
would, so every output byte is the same.  The tape step, their reference, runs
vanilla GANs and smooth critics, whose penalty needs the tape's second derivative.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Dataset, batches, spawn
from .nets import (HIDDEN_DERIVATIVE, PIECEWISE_LINEAR, Network, affine, backward_pass,
                   generator_backward, generator_pass, hidden_pass)
from .optim import SGD, TrainingDiverged, check_schedule, check_sgd, multistep_lr

EPS = 1e-7
KEY_GAN_EPOCH = 21  # spawn keys (21, epoch, stream) of each epoch's generators

PRIOR_KINDS = ("gaussian", "uniform", "simplex-dirichlet")
VARIANTS = ("vanilla", "wgan-gp")
GENERATOR_LOSS_MODES = ("minimize-log1m", "non-saturating")


@dataclass(frozen=True)
class GanConfig:
    """Stage-1 settings; its fields, in order, are the [gan] config keys."""
    m: int = 64
    k: int = 1
    lr_G: float = 0.05
    lr_D: float = 0.05
    epochs: int = 150
    variant: str = "wgan-gp"  # vanilla is available but collapses modes at this scale
    gp_lambda: float = 10.0
    generator_loss_mode: str = "non-saturating"
    momentum: float = 0.5
    milestones: tuple[int, ...] = (100, 130)
    gamma: float = 0.1
    prior: str = "gaussian"
    snapshot_epochs: tuple[int, ...] = (10, 60, 149)
    clip_norm: float = 5.0  # global gradient-norm clip; 0 disables it

    def __post_init__(self):
        if self.m < 1 or self.k < 1 or self.epochs < 0:
            raise ValueError("m and k must be >= 1 and epochs >= 0")
        check_sgd(self.lr_G, self.momentum, "lr_g")
        check_sgd(self.lr_D, self.momentum, "lr_d")
        if self.prior not in PRIOR_KINDS:
            raise ValueError(f"unknown noise prior {self.prior!r}; expected one of {PRIOR_KINDS}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown GAN variant {self.variant!r}")
        if self.generator_loss_mode not in GENERATOR_LOSS_MODES:
            raise ValueError(f"unknown generator loss mode {self.generator_loss_mode!r}")
        if self.gp_lambda < 0:
            raise ValueError("gp_lambda must be >= 0")
        if self.clip_norm < 0:
            raise ValueError("clip_norm must be >= 0 (0 disables clipping)")
        check_schedule(self.milestones, self.gamma)


def sample_noise(prior: str, m: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if prior not in PRIOR_KINDS:
        raise ValueError(f"unknown noise prior {prior!r}; expected one of {PRIOR_KINDS}")
    if dim < 2:
        raise ValueError(f"noise dimension must be >= 2, got {dim}")
    if prior == "gaussian":
        return rng.standard_normal((m, dim))
    if prior == "uniform":
        return rng.uniform(-1.0, 1.0, size=(m, dim))
    return rng.dirichlet(np.ones(dim), size=m)


# -- losses ---------------------------------------------------------------


def _clamped(d: Tensor) -> Tensor:
    return ad.clip(d, EPS, 1.0 - EPS)


def discriminator_loss(D: Network, G: Network, x_batch: np.ndarray, z_batch) -> Tensor:
    """L_D = -(1/m) sum[ log D(x) + log(1 - D(G(z))) ]."""
    if len(x_batch) != len(z_batch):
        raise ValueError(f"batch size mismatch: {len(x_batch)} real vs {len(z_batch)} noise")
    with no_grad():
        fake = G(z_batch)
    d_real = _clamped(D(x_batch))
    d_fake = _clamped(D(fake))
    return -(ad.log(d_real).mean() + ad.log(1.0 - d_fake).mean())


def generator_loss(D: Network, G: Network, z_batch, mode: str) -> Tensor:
    if mode not in GENERATOR_LOSS_MODES:
        raise ValueError(f"unknown generator loss mode {mode!r}")
    fake = G(z_batch)
    d_fake = _clamped(D(fake))
    if mode == "minimize-log1m":
        return ad.log(1.0 - d_fake).mean()
    return -ad.log(d_fake).mean()


def input_gradient(D: Network, x) -> Tensor:
    """d s/d x of the critic score s = D.logits(x), as a graph node.

    The input-gradient is unrolled layer by layer from the hidden pass, so
    the score itself is never computed, and the result stays
    differentiable with respect to the critic's parameters; this is what
    lets the gradient penalty train by ordinary backprop.  Each layer's
    derivative is read from its activation alone; a piecewise-linear
    critic's reads only the sign, so its hidden pass records no graph.
    """
    piecewise = D.spec.activation in PIECEWISE_LINEAR
    with no_grad() if piecewise else contextlib.nullcontext():
        hidden = D._hidden(x)[1:]
    derivative = HIDDEN_DERIVATIVE[D.spec.activation]
    delta = ad.constant(np.ones((x.shape[0], 1)))
    for (w, _), h in zip(reversed(D.layers[1:]), reversed(hidden)):
        delta = ad.matmul_t(delta, w) * derivative(h)
    return ad.matmul_t(delta, D.layers[0][0])


def gradient_penalty(D: Network, x_real: np.ndarray, x_fake: np.ndarray,
                     rng: np.random.Generator) -> Tensor:
    """(1/m) sum (||grad_xhat D(xhat)||_2 - 1)^2 on random interpolates."""
    m = len(x_real)
    t = rng.uniform(size=(m, 1))
    grad = input_gradient(D, t * x_real + (1.0 - t) * x_fake)
    norms = ad.sqrt(ad.reduce_sum(ad.square(grad), axis=1))
    return ad.reduce_mean(ad.square(norms - 1.0))


def wgan_discriminator_loss(D: Network, G: Network, x_batch: np.ndarray,
                            z_batch: np.ndarray, gp_lambda: float,
                            rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    with no_grad():
        fake = G(z_batch)
    loss = D.logits(fake).mean() - D.logits(x_batch).mean()
    gp = gradient_penalty(D, np.asarray(x_batch), fake.data, rng)
    return loss + gp * gp_lambda, gp


def wgan_generator_loss(D: Network, G: Network, z_batch: np.ndarray) -> Tensor:
    return -D.logits(G(z_batch)).mean()


# -- the array step ---------------------------------------------------------
#
# Each expression is the one the named tape op computes; the layer walk is
# nets.hidden_pass and nets.backward_pass.  The ones go unchecked (finite).


def takes_array_step(cfg: GanConfig, D: Network) -> bool:
    """Whether run_gan_epoch runs the array step rather than the tape."""
    return cfg.variant == "wgan-gp" and D.spec.activation in PIECEWISE_LINEAR


def wgan_critic_step(D: Network, G: Network, x_batch: np.ndarray, z_batch: np.ndarray,
                     gp_lambda: float, rng: np.random.Generator) -> tuple[float, float]:
    """``wgan_discriminator_loss`` and its backward; returns (loss, gp).

    D's leaves get the fake pass's gradients, top layer down, then the
    real pass's, then the penalty's, layer 0 first.
    """
    m = len(x_batch)
    fake = generator_pass(G, ad.checked(z_batch, "leaf"))[-1]
    fake_pass = hidden_pass(D, fake)
    mean_f = ad.checked_mean(affine(fake_pass[0][-1], *D.layers[-1]))
    real_pass = hidden_pass(D, ad.checked(x_batch, "leaf"))
    mean_r = ad.checked_mean(affine(real_pass[0][-1], *D.layers[-1]))
    loss = ad.checked(mean_f + ad.checked(mean_r * -1.0, "mul"), "add")

    # gradient_penalty: the input gradient unrolled from the interpolates' slopes
    t = rng.uniform(size=(m, 1))
    _, slopes = hidden_pass(D, ad.checked(t * x_batch + (1.0 - t) * fake, "leaf"))
    wts = [w.data.T.copy() for w, _ in D.layers]
    deltas = [np.ones((m, 1))]  # each layer's unroll input, top layer first
    for i in range(len(D.layers) - 1, 0, -1):
        a = ad.checked(deltas[-1] @ wts[i], "matmul_t")
        deltas.append(ad.checked(a * slopes[i - 1], "mul"))
    grad = ad.checked(deltas[-1] @ wts[0], "matmul_t")
    sq = ad.checked(grad * grad, "square")
    norms = ad.checked(np.sqrt(ad.checked(np.add.reduce(sq, 1), "sum")), "sqrt")
    dev = ad.checked(norms + -1.0, "add")
    gp = ad.checked_mean(ad.checked(dev * dev, "square"))
    total = ad.checked(loss + ad.checked(gp * gp_lambda, "mul"), "add")

    backward_pass(D, *fake_pass, np.divide(1.0, m, out=np.empty((m, 1))))
    backward_pass(D, *real_pass, np.divide(-1.0, m, out=np.empty((m, 1))))
    g = np.divide(gp_lambda, m, out=np.empty(m)) * 2.0 * dev
    g = g * np.where(norms > 0, 0.5 / np.where(norms > 0, norms, 1.0), 0.0)
    g_sq = np.empty(sq.shape)
    g_sq[...] = g.reshape((m, 1))
    g = g_sq * 2.0 * grad
    for i, ((w, _), a) in enumerate(zip(D.layers, reversed(deltas))):
        w._accumulate((a.T @ g).T)
        if i + 1 < len(D.layers):
            g = (g @ wts[i].T) * slopes[i]
    return float(total), float(gp)


def wgan_generator_step(D: Network, G: Network, z_batch: np.ndarray) -> float:
    """``wgan_generator_loss`` and its backward into G's leaves, top layer down; returns L_G."""
    inputs, slopes, t, fake = generator_pass(G, ad.checked(z_batch, "leaf"))
    critic_inputs, critic_slopes = hidden_pass(D, fake)
    score = affine(critic_inputs[-1], *D.layers[-1])
    loss = ad.checked(ad.checked_mean(score) * -1.0, "mul")
    g = np.divide(-1.0, len(z_batch), out=np.empty((len(z_batch), 1)))
    g = backward_pass(D, critic_inputs, critic_slopes, g, train=False)
    generator_backward(G, inputs, slopes, t, g)
    return float(loss)


# -- training loop --------------------------------------------------------


@contextlib.contextmanager
def _fixed(net: Network):
    """Inside the block, net's parameters take no gradient (the generator
    step would otherwise compute critic gradients nobody reads)."""
    flags = [(p, p.requires_grad) for p in net.params.values()]
    for p, _ in flags:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in flags:
            p.requires_grad = flag


def run_gan_epoch(G: Network, D: Network, ds: Dataset, cfg: GanConfig, seed, epoch: int,
                  opt_G: SGD, opt_D: SGD) -> list[dict]:
    """One epoch of Alg.-style alternation; returns this epoch's log rows."""
    shuffle_rng, noise_rng, gp_rng = (
        np.random.default_rng(spawn(seed, KEY_GAN_EPOCH, epoch, stream)) for stream in range(3))
    idx_batches = batches(ds, cfg.m, seed=shuffle_rng)

    array_step = takes_array_step(cfg, D)
    rows = []
    step = 0
    for group_start in range(0, len(idx_batches), cfg.k):
        group = idx_batches[group_start:group_start + cfg.k]
        loss_d = gp_value = float("nan")
        for idx in group:
            x_batch = ds.samples[idx]
            z_batch = sample_noise(cfg.prior, len(idx), G.spec.input_dim, noise_rng)
            opt_D.zero_grad()
            if array_step:
                loss_d, gp_value = wgan_critic_step(D, G, x_batch, z_batch,
                                                    cfg.gp_lambda, gp_rng)
            else:
                if cfg.variant == "vanilla":
                    loss = discriminator_loss(D, G, x_batch, z_batch)
                    gp_value = 0.0
                else:
                    loss, gp = wgan_discriminator_loss(D, G, x_batch, z_batch,
                                                       cfg.gp_lambda, gp_rng)
                    gp_value = gp.item()
                loss.backward()
                loss_d = loss.item()
            opt_D.step()

        z_batch = sample_noise(cfg.prior, cfg.m, G.spec.input_dim, noise_rng)
        opt_G.zero_grad()
        if array_step:
            loss_g = wgan_generator_step(D, G, z_batch)
        else:
            with _fixed(D):
                if cfg.variant == "vanilla":
                    loss = generator_loss(D, G, z_batch, cfg.generator_loss_mode)
                else:
                    loss = wgan_generator_loss(D, G, z_batch)
                loss.backward()
            loss_g = loss.item()
        opt_G.step()

        rows.append({"epoch": epoch, "step": step, "L_D": loss_d,
                     "L_G": loss_g, "gp": gp_value})
        step += 1
    return rows


def train_gan(G: Network, D: Network, ds: Dataset, cfg: GanConfig, seed,
              epoch_callback=None) -> tuple[Network, list[dict]]:
    """Train G against D on ds; returns (frozen G, per-step log rows)."""
    if G.spec.role != "generator" or D.spec.role != "discriminator":
        raise ValueError("train_gan needs a generator and a discriminator")
    if G.spec.input_dim != ds.num_classes:
        raise ValueError(
            f"generator latent width {G.spec.input_dim} != class count {ds.num_classes}; "
            f"the latent dimension must equal the category count")
    if G.spec.output_dim != ds.n:
        raise ValueError(f"generator output width {G.spec.output_dim} != sample width {ds.n}")
    if D.spec.input_dim != ds.n:
        raise ValueError(f"discriminator input width {D.spec.input_dim} != sample width {ds.n}")

    clip_norm = cfg.clip_norm or None
    opt_G = SGD(G.params, cfg.lr_G, momentum=cfg.momentum, clip_norm=clip_norm)
    opt_D = SGD(D.params, cfg.lr_D, momentum=cfg.momentum, clip_norm=clip_norm)
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        opt_G.lr = multistep_lr(epoch, cfg.lr_G, list(cfg.milestones), cfg.gamma)
        opt_D.lr = multistep_lr(epoch, cfg.lr_D, list(cfg.milestones), cfg.gamma)
        try:
            rows = run_gan_epoch(G, D, ds, cfg, seed, epoch, opt_G, opt_D)
        except ad.NonFiniteError as e:
            raise TrainingDiverged(
                f"non-finite value in GAN training at epoch {epoch} "
                f"(op {e.op!r}; last logged rows: {log[-2:]})") from e
        log.extend(rows)
        if epoch_callback is not None:
            epoch_callback(epoch, G, D, rows)
    G.freeze()
    return G, log
