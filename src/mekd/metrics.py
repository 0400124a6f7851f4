"""Evaluation metrics: accuracy, Fréchet distance, cross-entropy, logit-gradient profiles.

The Fréchet distance is computed in raw input space (no embedding
network): fit a Gaussian (mean, covariance) to each sample set and
return ||m_A - m_B||^2 + Tr(C_A + C_B - 2 (C_A C_B)^{1/2}).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Dataset
from .nets import Network, backward_pass, classifier_pass

_EVAL_CHUNK = 2048
PROB_FLOOR = 1e-12  # probabilities are clipped here before any log


def accuracy(net: Network, ds: Dataset) -> float:
    """Top-1 accuracy; the one permitted consumer of Dataset.labels."""
    if net.spec.role != "classifier":
        raise ValueError(f"accuracy needs a classifier, got role {net.spec.role!r}")
    if net.spec.output_dim != ds.num_classes:
        raise ValueError(
            f"classifier width {net.spec.output_dim} != dataset classes {ds.num_classes}")
    if len(ds) == 0:
        raise ValueError("accuracy over an empty dataset is undefined")
    preds = np.empty(len(ds), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(ds), _EVAL_CHUNK):
            chunk = ds.samples[lo:lo + _EVAL_CHUNK]
            preds[lo:lo + len(chunk)] = np.argmax(net(chunk).data, axis=1)
    return float(np.mean(preds == ds.labels))


@dataclass(frozen=True)
class FrechetStats:
    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "FrechetStats":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(f"sample set must be [N, d], got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite values in sample set")
        n, d = samples.shape
        if n < 2:
            raise ValueError("need at least 2 samples to estimate a covariance")
        if n < d + 1:
            warnings.warn(
                f"only {n} samples for dimension {d}; covariance estimate is rank-deficient",
                stacklevel=2)
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = centered.T @ centered
        del centered
        cov /= n - 1  # unbiased estimator
        cov = cov + cov.T
        cov *= 0.5
        return cls(mean, cov)


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below zero (numerical noise) are clamped; asymmetry beyond
    1e-8 max|m| and non-finite entries are errors rather than silently
    symmetrized or passed to eigh.  Beyond ``m`` at most three d×d arrays
    are alive at once, besides eigh's own workspace.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix_sqrt_psd needs a square matrix, got {m.shape}")
    hi, lo = float(m.max()), float(m.min())
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("non-finite values in matrix")
    scale = max(1.0, hi, -lo)  # max |m| without an |m| copy
    buf = np.subtract(m, m.T)
    np.abs(buf, out=buf)
    if buf.max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    np.add(m, m.T, out=buf)
    buf *= 0.5
    w, v = np.linalg.eigh(buf)
    del buf
    if w.min() < -1e-9 * scale:
        warnings.warn(f"clamping negative eigenvalue {w.min():.3e}", stacklevel=2)
    w = np.maximum(w, 0.0)
    scaled = v * np.sqrt(w)
    root = scaled @ v.T
    del v
    np.add(root, root.T, out=scaled)
    scaled *= 0.5
    return scaled


def _width(x) -> int | None:
    if isinstance(x, FrechetStats):
        return x.mean.shape[0]
    shape = np.shape(x)
    return shape[1] if len(shape) == 2 else None  # other ranks: from_samples says why


def frechet_distance(set_a, set_b) -> float:
    """Distance between Gaussian fits of two sample sets; >= 0, 0 iff equal fits.

    Either argument may instead be a set's FrechetStats.  C_A is released
    once S_A is formed, before set B's statistics are built, and C_B and S_A
    once S_A C_B S_A is formed: beyond the arguments at most four d×d
    float64 arrays are alive at once (or three and B's centered samples),
    besides eigh's workspace.  Statistics passed as a temporary, as in
    ``frechet_distance(FrechetStats.from_samples(x), y)``, are released with
    C_A, since on CPython 3.11+ this frame then holds their only reference.
    """
    width_a, width_b = _width(set_a), _width(set_b)
    if None not in (width_a, width_b) and width_a != width_b:
        raise ValueError(
            f"sample sets live in different dimensions: {width_a} vs {width_b}")
    sa = set_a if isinstance(set_a, FrechetStats) else FrechetStats.from_samples(set_a)
    mean_a, trace_a = sa.mean, np.trace(sa.cov)
    # Tr((C_A C_B)^(1/2)) via the symmetric product S_A C_B S_A, which shares
    # its spectrum with C_A C_B but stays in PSD territory for eigh.
    s_a = matrix_sqrt_psd(sa.cov)
    del set_a, sa
    sb = set_b if isinstance(set_b, FrechetStats) else FrechetStats.from_samples(set_b)
    diff = mean_a - sb.mean
    trace_b = np.trace(sb.cov)
    product = s_a @ sb.cov @ s_a
    del set_b, sb, s_a
    cross = np.trace(matrix_sqrt_psd(product))
    value = float(diff @ diff + trace_a + trace_b - 2.0 * cross)
    return max(value, 0.0)


# -- cross-entropy and logit-gradient profiles ----------------------------


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Batch-mean -log probs[row, label], probabilities floored at PROB_FLOOR."""
    onehot = np.zeros(probs.data.shape)
    onehot[np.arange(len(onehot)), labels] = 1.0
    picked = (probs * ad.constant(onehot)).sum(axis=1)
    return -ad.log(ad.clip(picked, PROB_FLOOR, 1.0)).mean()


def cross_entropy_step(net: Network, x: np.ndarray, labels) -> float:
    """``cross_entropy(net(x), labels)`` and its backward into net's leaves,
    as arrays (the tape's bits); returns the loss."""
    inputs, slopes, probs = classifier_pass(net, x)
    m = len(probs)
    onehot = np.zeros(probs.shape)
    onehot[np.arange(m), labels] = 1.0
    onehot = ad.checked(onehot, "leaf")
    picked = ad.checked(np.add.reduce(ad.checked(probs * onehot, "mul"), 1), "sum")
    mask = (picked >= PROB_FLOOR) & (picked <= 1.0)
    clipped = ad.checked(np.clip(picked, PROB_FLOOR, 1.0), "clip")
    loss = ad.checked(ad.checked_mean(ad.checked(np.log(clipped), "log")) * -1.0, "mul")
    g = np.divide(np.ones_like(loss) * -1.0, m, out=np.empty(m)) / clipped * mask
    g_picked = np.empty(probs.shape)
    g_picked[...] = g.reshape((m, 1))
    backward_pass(net, inputs, slopes, ad.softmax_grad(probs, g_picked * onehot))
    return float(loss)


def record_logit_gradients(student: Network, loss_fn, sample: np.ndarray,
                           true_class: int) -> np.ndarray:
    """Gradient of loss_fn w.r.t. the student's final-layer output.

    loss_fn maps the [1, C] logits Tensor to a scalar Tensor.  The result
    is reordered so the ground-truth class comes first.
    """
    num_classes = student.spec.output_dim
    if not 0 <= true_class < num_classes:
        raise ValueError(f"class {true_class} out of range [0, {num_classes})")
    x = np.asarray(sample, dtype=np.float64).reshape(1, -1)
    with no_grad():  # a leaf at the logits: no gradient reaches the student's parameters
        logits = Tensor(student.logits(x).data, requires_grad=True)
    loss_fn(logits).backward()
    g = logits.grad[0]  # a leaf's gradient holds no -0.0
    return np.concatenate(([g[true_class]], g[:true_class], g[true_class + 1:]))
