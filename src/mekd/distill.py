"""Stage 2: distill a student from a blind teacher through the frozen generator.

The teacher is reachable only through :class:`BlindTeacher`, a query
counter around an x -> probability-vector function.  The student loss,
:func:`objective`, is

    alpha * generation_distance(G(y_S), G(y_T)) + beta * kld(p_T || p_S)

with the distance taken per image as (mean_j |d_j|^p)^(1/p) and averaged
over the batch; :func:`generator_input` feeds both sides' 2-d probability
batches to G.  Training (:func:`student_loss`) and the gradient profiles
(``harness.run_grad_profile``) both call it.  The baseline kd method is the
same loop on the KL alone, at tau = kd_tau with weight 1 (alpha = 0, beta =
1; see ``harness.distill_config``), so kd and mekd differ in both the
distance weight and the KL temperature.

The student trains through :func:`student_step`, array code that runs the
tape's expressions and checks in its order, so every byte is the same as
``student_loss(...)[0].backward()``, its reference; with alpha > 0 the
generator must be a frozen :class:`~mekd.nets.Network`.

Each loss takes the teacher's half already computed, as arrays, and the
student's as a tensor: ``kld_loss(kl_teacher_terms(p_t, tau), p_s, tau)`` and
``generation_distance(G, y_s, image_t, p_norm)`` with image_t = G(y_T).
:func:`teacher_side` computes that half from a batch of answers, and
:func:`distill` keeps it per dataset row beside the answer it came from,
reusing it only for an answer with the same bits, whatever the teacher's
cache.  In a batch of >= 2 rows a row's bits do not depend on the other
rows; a 1-row product takes BLAS's gemv path, whose bits differ, so a 1-row
batch is computed and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Dataset, batches, spawn
from .metrics import PROB_FLOOR, accuracy
from .nets import Network, backward_pass, classifier_pass, generator_backward, generator_pass
from .optim import SGD, TrainingDiverged, check_schedule, check_sgd, multistep_lr

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
        row_bytes = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        keys = np.ascontiguousarray(rows).view(row_bytes).ravel().tolist()
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
        if self.tau <= 0 or self.kd_tau <= 0 or self.gen_tau <= 0:
            raise ValueError("temperatures must be positive")
        if self.gen_input not in GEN_INPUTS:
            raise ValueError(f"gen_input must be one of {GEN_INPUTS}")
        if self.m < 1 or self.epochs < 0:
            raise ValueError("m must be >= 1 and epochs >= 0")
        check_sgd(self.lr, self.momentum)
        check_schedule(self.milestones, self.gamma)


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
    q = ad.constant(p_t).data
    if tau != 1.0:
        q = _resoftened(q, tau)[0]
    q = ad.checked(np.clip(q, PROB_FLOOR, 1.0), "clip")
    return q, ad.checked(np.log(q), "log")


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
        image = generator(_feed(p_t, cfg)[0]).data  # generator_input's values
    if cfg.beta > 0:
        p, log_p = kl_teacher_terms(p_t, cfg.tau)
    return TeacherSide(image, p, log_p)


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
                 x_batch: np.ndarray, cfg: DistillConfig) -> tuple[Tensor, dict]:
    """:func:`objective` of the student's probabilities on x_batch, against
    the teacher's half computed on the batch by :func:`teacher_side`.

    A missing generator with alpha > 0 raises before the teacher is asked.
    """
    if cfg.alpha > 0 and generator is None:
        raise ValueError("alpha > 0 requires a frozen generator")
    x_batch = np.asarray(x_batch, dtype=np.float64)
    p_t = teacher.classify(x_batch)
    probs_s = student(x_batch)
    return objective(generator, teacher_side(generator, p_t, cfg), probs_s, probs_s, cfg)


# -- the array step ---------------------------------------------------------


def _log_clip(p: np.ndarray, tau: float = 1.0):
    """ad.log(ad.clip(p, PROB_FLOOR, 1.0)) [* (1.0 / tau)] of an array, and its backward."""
    mask = (p >= PROB_FLOOR) & (p <= 1.0)
    c = ad.checked(np.clip(p, PROB_FLOOR, 1.0), "clip")
    y = ad.checked(np.log(c), "log")
    if tau == 1.0:
        return y, lambda g: g / c * mask
    scale = 1.0 / tau
    return ad.checked(y * scale, "mul"), lambda g: g * scale / c * mask


def _resoftened(p: np.ndarray, tau: float):
    """:func:`_resoften` of an array, and its backward."""
    z, back = _log_clip(p, tau)
    s = ad.softmax_rows(z)
    return s, lambda g: back(ad.softmax_grad(s, g))


def _feed(p: np.ndarray, cfg: DistillConfig):
    """:func:`generator_input` of an array, and its backward."""
    if cfg.gen_input == "logits":
        return _log_clip(p, cfg.gen_tau)
    if cfg.gen_tau == 1.0:
        return p, lambda g: g
    return _resoftened(p, cfg.gen_tau)


def _distance(generator: Network, probs: np.ndarray, image_t: np.ndarray,
              cfg: DistillConfig):
    """generation_distance of the student's feed as an array, and its backward."""
    y, feed_back = _feed(probs, cfg)
    inputs, slopes, t, image_s = generator_pass(generator, y)
    image_t = ad.checked(image_t, "leaf")
    diff = ad.checked(image_s + ad.checked(image_t * -1.0, "mul"), "add")
    m, n = diff.shape
    if cfg.p_norm == 1:
        per_image = ad.checked_mean(np.abs(diff), 1)
    else:
        per_image = ad.checked(np.sqrt(ad.checked_mean(ad.checked(diff * diff, "square"), 1)),
                               "sqrt")

    def back(g):
        g = np.divide(g, m, out=np.empty(m))
        if cfg.p_norm == 1:
            g = np.divide(g.reshape((m, 1)), n, out=np.empty((m, n))) * np.sign(diff)
        else:
            g = g * np.where(per_image > 0, 0.5 / np.where(per_image > 0, per_image, 1.0), 0.0)
            g = np.divide(g.reshape((m, 1)), n, out=np.empty((m, n))) * 2.0 * diff
        return feed_back(generator_backward(generator, inputs, slopes, t, g, train=False))

    return ad.checked_mean(per_image), back


def _kld(side: TeacherSide, probs: np.ndarray, tau: float):
    """kld_loss of the student's probabilities as an array, and its backward."""
    q, log_q = ad.checked(side.p, "leaf"), ad.checked(side.log_p, "leaf")
    p, soft_back = (probs, lambda g: g) if tau == 1.0 else _resoftened(probs, tau)
    log_p, log_back = _log_clip(p)
    qd = ad.checked(q * ad.checked(log_q + ad.checked(log_p * -1.0, "mul"), "add"), "mul")
    per_row = ad.checked(np.add.reduce(qd, 1), "sum")
    m = len(per_row)

    def back(g):
        g_qd = np.empty(qd.shape)
        g_qd[...] = np.divide(g, m, out=np.empty(m)).reshape((m, 1))
        return soft_back(log_back(g_qd * q * -1.0))

    return ad.checked_mean(per_row), back


def student_step(student: Network, generator: Network | None, side: TeacherSide,
                 x_batch: np.ndarray, cfg: DistillConfig) -> tuple[float, dict]:
    """:func:`student_loss` against the teacher's half side of x_batch's answers,
    and its backward into the student's leaves; returns the loss and its parts
    as floats.  The distance's and the KL's gradients meet in one (commuting) sum."""
    inputs, slopes, probs = classifier_pass(student, np.asarray(x_batch, dtype=np.float64))
    parts = {"distance": 0.0, "kld": 0.0}
    terms = []
    if cfg.alpha > 0:
        dist, dist_back = _distance(generator, probs, side.image, cfg)
        parts["distance"] = float(dist)
        terms.append((ad.checked(dist * cfg.alpha, "mul"), cfg.alpha, dist_back))
    if cfg.beta > 0:
        kld, kld_back = _kld(side, probs, cfg.tau)
        parts["kld"] = float(kld)
        terms.append((ad.checked(kld * cfg.beta, "mul"), cfg.beta, kld_back))
    total = terms[0][0] if len(terms) == 1 else ad.checked(terms[0][0] + terms[1][0], "add")
    root = np.ones_like(total)
    grads = [back(root * weight) for _, weight, back in terms]
    g = grads[0] if len(grads) == 1 else grads[0] + grads[1]
    backward_pass(student, inputs, slopes, ad.softmax_grad(probs, g))
    return float(total), parts


# -- training loop --------------------------------------------------------


def _kept_side(kept: TeacherSide, answers: np.ndarray, idx: np.ndarray, generator,
               p_t: np.ndarray, cfg: DistillConfig) -> TeacherSide:
    """The teacher's half of dataset rows idx, whose answers are p_t: gathered
    from kept (one row per dataset row) when the answers kept with it have p_t's
    bits (so -0.0 is not 0.0, and an unfilled NaN row never matches), else
    computed on the batch and kept with p_t, unless the batch has 1 row (see
    the module docstring)."""
    if len(idx) > 1 and np.array_equal(answers[idx].view(np.int64), p_t.view(np.int64)):
        return TeacherSide(*(None if rows is None else rows.take(idx, axis=0) for rows in kept))
    side = teacher_side(generator, p_t, cfg)
    if len(idx) > 1:
        for rows, part in zip(kept, side):
            if rows is not None:
                rows[idx] = part
        answers[idx] = p_t
    return side


def distill(student: Network, teacher: BlindTeacher, generator, ds: Dataset,
            cfg: DistillConfig, seed, eval_train: Dataset | None = None,
            eval_test: Dataset | None = None, epoch_callback=None) -> tuple[Network, list[dict]]:
    """Train the student on student_loss, each step through :func:`student_step`;
    labels are never touched here.

    eval_train/eval_test are optional: accuracy is evaluated (and labels
    read) only when they are provided.  The teacher is asked on every batch,
    and the teacher's half of the loss is kept per dataset row, reused only
    for answers with the same bits (:func:`_kept_side`).
    """
    if student.spec.role != "classifier":
        raise ValueError(f"student must be a classifier, got role {student.spec.role!r}")
    if student.spec.output_dim != teacher.num_classes:
        raise ValueError(
            f"student width {student.spec.output_dim} != teacher classes {teacher.num_classes}")
    if student.spec.input_dim != ds.n:
        raise ValueError(f"student input width {student.spec.input_dim} != sample width {ds.n}")
    if cfg.alpha > 0 and (not isinstance(generator, Network)
                          or any(p.requires_grad for p in generator.params.values())):
        raise ValueError("alpha > 0 requires a frozen generator network")

    opt = SGD(student.params, cfg.lr, momentum=cfg.momentum)
    answers = np.full((len(ds), teacher.num_classes), np.nan)  # kept's answers
    kept = TeacherSide(np.empty((len(ds), generator.spec.output_dim)) if cfg.alpha > 0 else None,
                       *(np.empty((len(ds), teacher.num_classes)) if cfg.beta > 0 else None
                         for _ in range(2)))
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        opt.lr = lr = multistep_lr(epoch, cfg.lr, list(cfg.milestones), cfg.gamma)
        shuffle_rng = np.random.default_rng(spawn(seed, KEY_DISTILL_EPOCH, epoch))
        sums = {"total": 0.0, "distance": 0.0, "kld": 0.0}
        idx_batches = batches(ds, cfg.m, seed=shuffle_rng)
        for step, idx in enumerate(idx_batches):
            opt.zero_grad()
            x_batch = ds.samples[idx]
            try:
                p_t = teacher.classify(x_batch)
                side = _kept_side(kept, answers, idx, generator, p_t, cfg)
                total, parts = student_step(student, generator, side, x_batch, cfg)
            except ad.NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite value while distilling at epoch {epoch} step {step} "
                    f"(op {e.op!r})") from e
            opt.step()
            sums["total"] += total
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

