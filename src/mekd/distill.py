"""Stage 2: distill a student from a blind teacher through the frozen generator.

The teacher is reachable only through :class:`BlindTeacher`, a query
counter around an x -> probability-vector function.  The student loss,
:func:`objective`, is

    alpha * generation_distance(G(y_S), G(y_T)) + beta * kld(p_T || p_S)

with the distance taken per image as (mean_j |d_j|^p)^(1/p) and averaged
over the batch; :func:`generator_input` feeds both sides' 2-d probability
batches to G.  Training (:func:`student_loss`) and the gradient profiles
(``harness.run_grad_profile``) both call it.  The baseline kd method is the
same loop with alpha = 0 and tau = kd_tau (see ``harness.distill_config``),
so kd and mekd differ in both the distance weight and the KL temperature.

Each loss takes the teacher's half already computed, as arrays, and the
student's as a tensor: ``kld_loss(kl_teacher_terms(p_t, tau), p_s, tau)`` and
``generation_distance(G, y_s, image_t, p_norm)`` with image_t = G(y_T).

The teacher and the generator are frozen, so the teacher's half of the
loss (:class:`TeacherSide`: G's image of the answer's feed, and the KL's
re-softened, clamped teacher probabilities with their log) is a function
of the answer row alone.  :func:`distill` keeps one
:class:`TeacherSideTable` per call, keyed by the exact bytes of each
answer row, and serves a full batch whose answers are all stored with one
gather instead of recomputing them.  A stored row was computed in a full
batch of the same shape as the batch it serves, and every step of
:func:`teacher_side` computes a row's values independently of its position
and of the other rows at a fixed batch shape (elementwise ops, row-wise
reductions, and BLAS products, which tests/test_distill.py checks), so a
gathered row equals the recomputed one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Dataset, batches, spawn
from .metrics import PROB_FLOOR, accuracy
from .nets import Network
from .optim import SGD, TrainingDiverged, multistep_lr

GEN_INPUTS = ("probs", "logits")
KEY_DISTILL_EPOCH = 31  # spawn key (31, epoch) of each epoch's shuffle


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row's exact bytes (so -0.0 and +0.0 give two keys)."""
    row_bytes = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return np.ascontiguousarray(rows).view(row_bytes).ravel().tolist()


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

    The cache maps a row's exact float64 bytes (so -0.0 and +0.0 are two
    rows) to its row of one answer table, which grows by doubling.  A
    batch is answered by one gather from that table into a fresh array.
    """

    def __init__(self, classify_fn, num_classes: int, cache: bool = True):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self._fn = classify_fn
        self.num_classes = int(num_classes)
        self.query_count = 0
        self.cache_hits = 0
        self._cache: dict[bytes, int] | None = {} if cache else None  # row bytes -> table row
        self._table = np.empty((0, self.num_classes))

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
        if rows.ndim != 2 or not rows.shape[1]:
            raise ValueError(f"the teacher answers a 2-d batch of non-empty rows, "
                             f"got shape {rows.shape}")
        if not len(rows):
            return np.empty((0, self.num_classes))
        if self._cache is None:
            return self._ask(rows)
        keys = _row_keys(rows)
        found = list(map(self._cache.get, keys))
        misses: dict[bytes, int] = {}  # each missing row's first index, in order
        if None in found:
            for i, (key, j) in enumerate(zip(keys, found)):
                if j is None:
                    misses.setdefault(key, i)
            self._store(misses, self._ask(rows[list(misses.values())]))
            found = list(map(self._cache.get, keys))
        self.cache_hits += len(rows) - len(misses)
        return self._table.take(found, axis=0)

    def _store(self, keys, answer: np.ndarray) -> None:
        """Append answer's rows to the table under keys, doubling it when full."""
        start = len(self._cache)
        end = start + len(answer)
        if end > len(self._table):
            table = np.empty((max(end, 2 * len(self._table)), self.num_classes))
            table[:start] = self._table[:start]
            self._table = table
        self._table[start:end] = answer
        self._cache.update(zip(keys, range(start, end)))


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


def _pair(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """a and b, which must be 2-d batches of one shape."""
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


def kl_teacher_terms(p_t: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """kld_loss's teacher terms for answer rows p_t: p_t re-softened at tau
    (when tau != 1), clamped at 1e-12, and its log."""
    q = ad.constant(p_t)
    if tau != 1.0:
        q = _resoften(q, tau)
    q = ad.clip(q, PROB_FLOOR, 1.0)
    return q.data, ad.log(q).data


def kld_loss(terms_t, p_s: Tensor, tau: float) -> Tensor:
    """Batch-mean KL(p_t || p_s), components clamped at 1e-12, where
    terms_t is ``kl_teacher_terms(p_t, tau)`` (arrays, so no gradient reaches them)."""
    q, log_q = terms_t
    q, p_s = _pair(ad.constant(q), p_s)
    if tau != 1.0:
        p_s = _resoften(p_s, tau)
    p_s = ad.clip(p_s, PROB_FLOOR, 1.0)
    per_row = (q * (ad.constant(log_q) - ad.log(p_s))).sum(axis=1)
    return per_row.mean()


def generator_input(p: Tensor, cfg: DistillConfig) -> Tensor:
    """The generator's feed for probability rows p: p re-softened at gen_tau,
    or log p / gen_tau.  A student matching the teacher's probabilities gets a
    distance of exactly 0 (raw logits would differ by a per-row shift)."""
    if cfg.gen_input == "probs":
        return p if cfg.gen_tau == 1.0 else _resoften(p, cfg.gen_tau)
    y = ad.log(ad.clip(p, PROB_FLOOR, 1.0))
    return y if cfg.gen_tau == 1.0 else y * (1.0 / cfg.gen_tau)


def generation_distance(generator, y_s, image_t, p_norm: int) -> Tensor:
    """Batch-mean per-image distance between G(y_s) and image_t, the
    teacher's image (an array).

    Per image the distance is (mean_j |d_j|^p)^(1/p); gradient flows only
    into y_s's producer (a tensor image_t raises TypeError).
    """
    if p_norm not in (1, 2):
        raise ValueError(f"p_norm must be 1 or 2, got {p_norm}")
    image_s, image_t = _pair(generator(y_s), ad.constant(image_t))
    diff = image_s - image_t
    if p_norm == 1:
        per_image = ad.absolute(diff).mean(axis=1)
    else:
        per_image = ad.sqrt(ad.square(diff).mean(axis=1))
    return per_image.mean()


class TeacherSide(NamedTuple):
    """The teacher's half of student_loss for a batch of answer rows.

    image is G's image of the answers' generator feed (None when alpha is
    0); p and log_p are kld_loss's teacher terms (None when beta is 0).
    """
    image: np.ndarray | None
    p: np.ndarray | None
    log_p: np.ndarray | None


def teacher_side(generator, p_t: np.ndarray, cfg: DistillConfig) -> TeacherSide:
    """The teacher's half of student_loss for answer rows p_t, computed on the batch."""
    image = p = log_p = None
    if cfg.alpha > 0:
        image = generator(generator_input(ad.constant(p_t), cfg)).data
    if cfg.beta > 0:
        p, log_p = kl_teacher_terms(p_t, cfg.tau)
    return TeacherSide(image, p, log_p)


class TeacherSideTable:
    """:func:`teacher_side` of each distinct answer row seen in a full batch.

    Keyed by the answer row's exact bytes, so the key is the answer, not
    the query: the table is right with the teacher cache off too.  Only
    full m-row batches read or fill it.  A full batch whose answers are all
    stored is served by one gather; any other full batch is computed on
    the whole batch, and its first-seen answers are stored.  A short batch
    is computed and neither reads nor fills the table, since a row's bits
    are the same only between batches of one shape.  ``arrays`` holds the
    stored parts, allocated once at the first store with ``capacity`` rows
    (None before it); once they are full, new answers are computed but not
    stored.
    """

    def __init__(self, generator, cfg: DistillConfig, m: int, capacity: int):
        self._generator = generator
        self._cfg = cfg
        self._m = m
        self._capacity = capacity
        self._rows: dict[bytes, int] = {}  # answer row bytes -> table row
        self.arrays: TeacherSide | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def side(self, p_t: np.ndarray) -> TeacherSide:
        if len(p_t) != self._m:
            return teacher_side(self._generator, p_t, self._cfg)
        keys = _row_keys(p_t)
        found = list(map(self._rows.get, keys))
        if None not in found:
            return TeacherSide(*(None if a is None else a.take(found, axis=0)
                                 for a in self.arrays))
        side = teacher_side(self._generator, p_t, self._cfg)
        self._store(keys, found, side)
        return side

    def _store(self, keys: list[bytes], found: list, side: TeacherSide) -> None:
        """Store the rows of side whose answers are new, first-seen first, while room lasts."""
        if self.arrays is None:
            self.arrays = TeacherSide(*(None if a is None else
                                         np.empty((self._capacity,) + a.shape[1:], a.dtype)
                                         for a in side))
        new: dict[bytes, int] = {}  # each new answer's first index, in order
        for i, (key, j) in enumerate(zip(keys, found)):
            if j is None:
                new.setdefault(key, i)
        start = len(self._rows)
        picks = list(new.values())[:self._capacity - start]
        end = start + len(picks)
        for table, a in zip(self.arrays, side):
            if table is not None:
                table[start:end] = a[picks]
        self._rows.update(zip(new, range(start, end)))


def objective(generator, side: TeacherSide, feed_s: Tensor, probs_s: Tensor,
              cfg: DistillConfig) -> tuple[Tensor, dict]:
    """alpha * distance + beta * kld against the teacher's half side, plus
    the parts as floats: {'distance':, 'kld':}.

    feed_s is the student's probabilities for the distance (fed to G
    through :func:`generator_input`), probs_s its probabilities for the KL;
    a term of weight 0 is skipped, and its part is 0.0.
    """
    parts = {"distance": 0.0, "kld": 0.0}
    total = None
    if cfg.alpha > 0:
        dist = generation_distance(generator, generator_input(feed_s, cfg), side.image,
                                   cfg.p_norm)
        parts["distance"] = dist.item()
        total = dist * cfg.alpha
    if cfg.beta > 0:
        kld = kld_loss((side.p, side.log_p), probs_s, cfg.tau)
        parts["kld"] = kld.item()
        total = kld * cfg.beta if total is None else total + kld * cfg.beta
    return total, parts


def student_loss(student: Network, teacher: BlindTeacher, generator,
                 x_batch: np.ndarray, cfg: DistillConfig,
                 sides: TeacherSideTable | None = None) -> tuple[Tensor, dict]:
    """:func:`objective` of the student's probabilities on x_batch.

    The teacher's half of the loss (G's image of the answers' feed, and the
    KL's teacher terms) comes from sides, a table built for this generator
    and cfg, when one is given; otherwise it is computed on the batch by
    :func:`teacher_side`.  Both give the same bits (see the module
    docstring), so the loss and its gradients do not depend on the table.
    A missing generator with alpha > 0 raises before the teacher is asked.
    """
    if cfg.alpha > 0 and generator is None:
        raise ValueError("alpha > 0 requires a frozen generator")
    x_batch = np.asarray(x_batch, dtype=np.float64)
    p_t = teacher.classify(x_batch)
    probs_s = student(x_batch)
    side = sides.side(p_t) if sides is not None else teacher_side(generator, p_t, cfg)
    return objective(generator, side, probs_s, probs_s, cfg)


# -- training loop --------------------------------------------------------


def distill(student: Network, teacher: BlindTeacher, generator, ds: Dataset,
            cfg: DistillConfig, seed, eval_train: Dataset | None = None,
            eval_test: Dataset | None = None, epoch_callback=None) -> tuple[Network, list[dict]]:
    """Train the student on student_loss; labels are never touched here.

    eval_train/eval_test are optional: accuracy is evaluated (and labels
    read) only when they are provided.  The teacher's half of the loss is
    served from one TeacherSideTable of at most len(ds) rows.
    """
    if student.spec.role != "classifier":
        raise ValueError(f"student must be a classifier, got role {student.spec.role!r}")
    if student.spec.output_dim != teacher.num_classes:
        raise ValueError(
            f"student width {student.spec.output_dim} != teacher classes {teacher.num_classes}")
    if cfg.alpha > 0 and isinstance(generator, Network) and any(
            p.requires_grad for p in generator.params.values()):
        raise ValueError("generator must be frozen before distillation")

    m = min(cfg.m, len(ds))
    sides = TeacherSideTable(generator, cfg, m, capacity=len(ds))
    opt = SGD(student.params, cfg.lr, momentum=cfg.momentum)
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = multistep_lr(epoch, cfg.lr, list(cfg.milestones), cfg.gamma)
        opt.lr = lr
        shuffle_rng = np.random.default_rng(spawn(seed, KEY_DISTILL_EPOCH, epoch))
        sums = {"total": 0.0, "distance": 0.0, "kld": 0.0}
        idx_batches = batches(ds, m, seed=shuffle_rng, shuffle=True)
        for step, idx in enumerate(idx_batches):
            opt.zero_grad()
            try:
                loss, parts = student_loss(student, teacher, generator, ds.samples[idx], cfg, sides)
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

