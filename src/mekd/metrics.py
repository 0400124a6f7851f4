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
from .nets import Network

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
            preds[lo:lo + len(chunk)] = np.argmax(net.classify(chunk).data, axis=1)
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
        cov = centered.T @ centered / (n - 1)  # unbiased estimator
        cov = 0.5 * (cov + cov.T)
        return cls(mean, cov)


def matrix_sqrt_psd(m: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below zero (numerical noise) are clamped; asymmetry beyond
    tolerance is an error rather than silently symmetrized.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix_sqrt_psd needs a square matrix, got {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if w.min() < -1e-9 * scale:
        warnings.warn(f"clamping negative eigenvalue {w.min():.3e}", stacklevel=2)
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def frechet_distance(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Distance between Gaussian fits of two sample sets; >= 0, 0 iff equal fits."""
    sa = FrechetStats.from_samples(set_a)
    sb = FrechetStats.from_samples(set_b)
    if sa.mean.shape != sb.mean.shape:
        raise ValueError(
            f"sample sets live in different dimensions: {sa.mean.shape} vs {sb.mean.shape}")
    diff = sa.mean - sb.mean
    # Tr((C_A C_B)^(1/2)) via the symmetric product S_A C_B S_A, which shares
    # its spectrum with C_A C_B but stays in PSD territory for eigh.
    s_a = matrix_sqrt_psd(sa.cov)
    cross = matrix_sqrt_psd(s_a @ sb.cov @ s_a)
    value = float(diff @ diff + np.trace(sa.cov) + np.trace(sb.cov) - 2.0 * np.trace(cross))
    return max(value, 0.0)


# -- cross-entropy and logit-gradient profiles ----------------------------


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Batch-mean -log probs[row, label], probabilities floored at PROB_FLOOR."""
    onehot = np.zeros(probs.data.shape)
    onehot[np.arange(len(onehot)), labels] = 1.0
    picked = (probs * ad.constant(onehot)).sum(axis=1)
    return -ad.log(ad.clip(picked, PROB_FLOOR, 1.0)).mean()


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
    logits = student.logits(ad.constant(x))
    if not logits.requires_grad:
        raise ValueError("student parameters are frozen; no gradient to record")
    loss = loss_fn(logits)
    loss.backward()
    g = logits.grad[0]
    return np.concatenate(([g[true_class]], g[:true_class], g[true_class + 1:]))
