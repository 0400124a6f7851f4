"""Stage 2: distill a student from a blind teacher through the frozen generator.

The teacher is reachable only through :class:`BlindTeacher`, a query
counter around an x -> probability-vector function.  The student loss is

    alpha * generation_distance(G(y_S), G(y_T)) + beta * kld(p_T || p_S)

with the distance taken per image as (mean_j |d_j|^p)^(1/p) and averaged
over the batch; :func:`generator_input` feeds both sides' 2-d probability
batches to G.  The baseline kd method is the same loop with alpha = 0
and tau = kd_tau (see ``harness.distill_config``), so kd and mekd differ
in both the distance weight and the KL temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Dataset, batches, spawn
from .metrics import PROB_FLOOR, accuracy
from .nets import Network
from .optim import SGD, TrainingDiverged, multistep_lr

GEN_INPUTS = ("probs", "logits")
KEY_DISTILL_EPOCH = 31  # spawn key (31, epoch) of each epoch's shuffle


class TeacherAnswerError(ValueError):
    """The teacher's function answered with something other than probability rows."""


class BlindTeacher:
    """Query-only access to a teacher: x in, probability vector out.

    query_count counts sample rows actually answered by the underlying
    function; with caching enabled, each distinct row is asked once, and
    every other row (cached, or repeated within one call) is a hit.
    Every answer is checked to be one finite, non-negative row summing to
    1 per query row; a malformed answer raises TeacherAnswerError and none
    of its rows is cached.
    """

    def __init__(self, classify_fn, num_classes: int, cache: bool = True):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self._fn = classify_fn
        self.num_classes = int(num_classes)
        self.query_count = 0
        self.cache_hits = 0
        self._cache: dict[bytes, np.ndarray] | None = {} if cache else None

    @classmethod
    def from_network(cls, net: Network, cache: bool = True) -> "BlindTeacher":
        if net.spec.role != "classifier":
            raise ValueError(f"teacher must be a classifier, got role {net.spec.role!r}")

        def classify_fn(x: np.ndarray) -> np.ndarray:
            with no_grad():
                return net(x).data

        return cls(classify_fn, net.spec.output_dim, cache=cache)

    def _ask(self, rows: np.ndarray) -> np.ndarray:
        """The function's answer for rows, counted, then checked."""
        answer = np.asarray(self._fn(rows), dtype=np.float64)
        self.query_count += len(rows)
        if answer.shape != (len(rows), self.num_classes):
            raise TeacherAnswerError(f"teacher answered shape {answer.shape} for "
                                     f"{len(rows)} rows of {self.num_classes} classes")
        if not np.all(np.isfinite(answer)) or np.any(answer < 0):
            raise TeacherAnswerError("teacher answered non-finite or negative probabilities")
        if np.any(np.abs(answer.sum(axis=1) - 1.0) > 1e-6):
            raise TeacherAnswerError("teacher answered rows that do not sum to 1")
        return answer

    def classify(self, x: np.ndarray) -> np.ndarray:
        rows = np.asarray(x, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"the teacher answers a 2-d batch of rows, got shape {rows.shape}")
        if self._cache is None:
            out = self._ask(rows)
        else:
            keys = [row.tobytes() for row in rows]
            misses: dict[bytes, int] = {}  # each missing row's first index, in order
            for i, key in enumerate(keys):
                if key not in self._cache:
                    misses.setdefault(key, i)
            if misses:
                self._cache.update(zip(misses, self._ask(rows[list(misses.values())])))
            self.cache_hits += len(rows) - len(misses)
            out = np.empty((len(rows), self.num_classes))
            for i, key in enumerate(keys):
                out[i] = self._cache[key]
        return out


@dataclass(frozen=True)
class DistillConfig:
    """Stage-2 settings; its fields, in order, are the [distill] config keys."""
    p_norm: int = 1
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 1.0
    kd_tau: float = 4.0  # tau of the kd baseline run
    gen_tau: float = 1.0
    gen_input: str = "probs"
    m: int = 64
    epochs: int = 50
    lr: float = 0.1
    momentum: float = 0.9
    milestones: tuple[int, ...] = (30, 42)
    gamma: float = 0.1
    cache_teacher: bool = True

    def __post_init__(self):
        if self.p_norm not in (1, 2):
            raise ValueError(f"p_norm must be 1 or 2, got {self.p_norm}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be non-negative")
        if self.alpha + self.beta <= 0:
            raise ValueError("at least one of alpha, beta must be positive")
        if self.tau <= 0 or self.gen_tau <= 0:
            raise ValueError("temperatures must be positive")
        if self.gen_input not in GEN_INPUTS:
            raise ValueError(f"gen_input must be one of {GEN_INPUTS}")
        if self.m < 1 or self.epochs < 0:
            raise ValueError("m must be >= 1 and epochs >= 0")


# -- losses ---------------------------------------------------------------


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """a and b as tensors, which must be 2-d batches of one shape."""
    a, b = (t if isinstance(t, Tensor) else ad.constant(t) for t in (a, b))
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"expected two 2-d batches of one shape, got {a.shape} and {b.shape}")
    return a, b


def _resoften(p: Tensor, tau: float) -> Tensor:
    """Probabilities re-softened at temperature tau: softmax(log p / tau).

    Equal to softmax(logits / tau) because softmax is shift-invariant, so
    no access to the underlying logits is needed.
    """
    logp = ad.log(ad.clip(p, PROB_FLOOR, 1.0))
    return ad.softmax(logp * (1.0 / tau))


def kld_loss(p_t, p_s, tau: float = 1.0) -> Tensor:
    """Batch-mean KL(p_t || p_s), components clamped at 1e-12."""
    p_t, p_s = _pair(p_t, p_s)
    if tau != 1.0:
        p_t, p_s = _resoften(p_t, tau), _resoften(p_s, tau)
    p_t = ad.clip(p_t, PROB_FLOOR, 1.0)
    p_s = ad.clip(p_s, PROB_FLOOR, 1.0)
    per_row = (p_t * (ad.log(p_t) - ad.log(p_s))).sum(axis=1)
    return per_row.mean()


def generator_input(p: Tensor, cfg: DistillConfig) -> Tensor:
    """The generator's feed for probability rows p: p re-softened at gen_tau,
    or log p / gen_tau.  A student matching the teacher's probabilities gets a
    distance of exactly 0 (raw logits would differ by a per-row shift)."""
    if cfg.gen_input == "probs":
        return p if cfg.gen_tau == 1.0 else _resoften(p, cfg.gen_tau)
    y = ad.log(ad.clip(p, PROB_FLOOR, 1.0))
    return y if cfg.gen_tau == 1.0 else y * (1.0 / cfg.gen_tau)


def generation_distance(generator, y_s, y_t, p_norm: int) -> Tensor:
    """Batch-mean per-image distance between G(y_s) and G(y_t).

    Per image the distance is (mean_j |d_j|^p)^(1/p); gradient flows only
    into y_s's producer (y_t is treated as a constant).
    """
    if p_norm not in (1, 2):
        raise ValueError(f"p_norm must be 1 or 2, got {p_norm}")
    y_s, y_t = _pair(y_s, ad.constant(y_t.data if isinstance(y_t, Tensor) else y_t))
    diff = generator(y_s) - generator(y_t)
    if p_norm == 1:
        per_image = ad.absolute(diff).mean(axis=1)
    else:
        per_image = ad.sqrt(ad.square(diff).mean(axis=1))
    return per_image.mean()


def student_loss(student: Network, teacher: BlindTeacher, generator,
                 x_batch: np.ndarray, cfg: DistillConfig) -> tuple[Tensor, dict]:
    """Total loss plus its parts as floats: {'distance':, 'kld':}."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    p_t = teacher.classify(x_batch)
    probs_s = student(x_batch)

    parts: dict[str, float] = {}
    total = None
    if cfg.alpha > 0:
        if generator is None:
            raise ValueError("alpha > 0 requires a frozen generator")
        dist = generation_distance(generator, generator_input(probs_s, cfg),
                                   generator_input(ad.constant(p_t), cfg), cfg.p_norm)
        parts["distance"] = dist.item()
        total = dist * cfg.alpha
    else:
        parts["distance"] = 0.0

    if cfg.beta > 0:
        kld = kld_loss(p_t, probs_s, cfg.tau)
        parts["kld"] = kld.item()
        total = kld * cfg.beta if total is None else total + kld * cfg.beta
    else:
        parts["kld"] = 0.0
    return total, parts


# -- training loops -------------------------------------------------------


def _check_frozen(generator) -> None:
    if isinstance(generator, Network) and any(p.requires_grad for p in generator.params.values()):
        raise ValueError("generator must be frozen before distillation")


def distill(student: Network, teacher: BlindTeacher, generator, ds: Dataset,
            cfg: DistillConfig, seed, eval_train: Dataset | None = None,
            eval_test: Dataset | None = None, epoch_callback=None) -> tuple[Network, list[dict]]:
    """Train the student on student_loss; labels are never touched here.

    eval_train/eval_test are optional: accuracy is evaluated (and labels
    read) only when they are provided.
    """
    if student.spec.role != "classifier":
        raise ValueError(f"student must be a classifier, got role {student.spec.role!r}")
    if student.spec.output_dim != teacher.num_classes:
        raise ValueError(
            f"student width {student.spec.output_dim} != teacher classes {teacher.num_classes}")
    if cfg.alpha > 0:
        _check_frozen(generator)

    opt = SGD(student.params, cfg.lr, momentum=cfg.momentum)
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = multistep_lr(epoch, cfg.lr, list(cfg.milestones), cfg.gamma)
        opt.lr = lr
        shuffle_rng = np.random.default_rng(spawn(seed, KEY_DISTILL_EPOCH, epoch))
        sums = {"total": 0.0, "distance": 0.0, "kld": 0.0}
        idx_batches = batches(ds, min(cfg.m, len(ds)), seed=shuffle_rng, shuffle=True)
        for step, idx in enumerate(idx_batches):
            opt.zero_grad()
            try:
                loss, parts = student_loss(student, teacher, generator, ds.samples[idx], cfg)
                loss.backward()
            except ad.NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite value while distilling at epoch {epoch} step {step} "
                    f"(op {e.op!r})") from e
            opt.step()
            sums["total"] += loss.item()
            sums["distance"] += parts["distance"]
            sums["kld"] += parts["kld"]
        steps = len(idx_batches)
        row = {"epoch": epoch,
               "L_total": sums["total"] / steps,
               "L_distance": sums["distance"] / steps,
               "L_kld": sums["kld"] / steps,
               "train_acc": accuracy(student, eval_train) if eval_train is not None else None,
               "test_acc": accuracy(student, eval_test) if eval_test is not None else None,
               "lr": lr}
        log.append(row)
        if epoch_callback is not None:
            epoch_callback(epoch, student, row)
    return student, log

