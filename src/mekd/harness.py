"""Experiment driver: teacher -> GAN -> distill -> eval, all reproducible.

Every stage derives its randomness from the single run seed through
disjoint spawn-key families, so a config (which embeds the seed) fully
determines every checkpoint byte and every CSV row.  STAGES names each
stage's subcommand and the out_dir files it reads and writes.
"""

from __future__ import annotations

import fcntl
import logging
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import no_grad
from .config import ConfigError, RunConfig, TeacherConfig
from .data import Dataset, batches, hflip, parse_idx, random_crop, spawn, synth_blobs
from .distill import BlindTeacher, DistillConfig, distill, objective, teacher_side
from .gan import sample_noise, train_gan
from .metrics import (FrechetStats, accuracy, cross_entropy, cross_entropy_step,
                      frechet_distance, record_logit_gradients)
from .nets import Network, build_network
from .optim import SGD, TrainingDiverged, multistep_lr

log = logging.getLogger("mekd")

# Spawn-key families (first element) for the run seed; data, gan, distill own 11-12, 21, 31.
KEY_DATA_TRAIN = 1
KEY_DATA_TEST = 2
KEY_DATA_SPLIT = 3
KEY_TEACHER_EPOCH = 41      # (41, epoch)
KEY_FID_NOISE = 51          # (51, tag)
KEY_FID_REAL = 52
KEY_PROFILE = 61
INIT_TEACHER = 201
INIT_STUDENT = 202
INIT_GENERATOR = 203
INIT_DISCRIMINATOR = 204


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write atomically, as checkpoints are: temp file in place, then rename."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    checkpoint.atomic_write(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def _write_log(path, header: list[str], rows: list[dict]) -> None:
    """write_csv of dict rows, each row's values taken in header order."""
    write_csv(path, header, [[row[key] for key in header] for row in rows])


def append_results_row(path, header: list[str], row: list) -> None:
    """Append one row under an exclusive lock, so concurrent runs lose none.

    The header is written only into an empty file; a file whose first line
    is another header raises ``ValueError`` rather than mixing columns.
    """
    head = ",".join(header) + "\n"
    line = ",".join(_fmt(v) for v in row) + "\n"
    with open(path, "a+", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
        fh.seek(0)
        first = fh.readline()
        if first and first != head:
            raise ValueError(f"{path}: header {first.rstrip()!r} is not {head.rstrip()!r}")
        fh.write(line if first else head + line)


# -- datasets ---------------------------------------------------------------


def load_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    seed = cfg.get("run", "seed")
    lo, hi = cfg.get("data", "value_lo"), cfg.get("data", "value_hi")
    if cfg.get("data", "kind") == "blobs":
        train, test = (synth_blobs(cfg.get("data", "num_classes"), cfg.get("data", "n"),
                                   cfg.get("data", per_class), cfg.get("data", "spread"),
                                   seed=spawn(seed, key),
                                   centroid_seed=cfg.get("data", "centroid_seed"))
                       for per_class, key in (("per_class", KEY_DATA_TRAIN),
                                              ("per_class_test", KEY_DATA_TEST)))
    else:
        train, test = _load_mnist(cfg)
    if (lo, hi) != (0.0, 1.0):
        train, test = train.rescale((lo, hi)), test.rescale((lo, hi))
    return train, test


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def mnist_available(cfg: RunConfig) -> bool:
    d = cfg.get("data", "mnist_dir")
    return bool(d) and all(os.path.exists(os.path.join(d, f)) for f in MNIST_FILES)


def _load_mnist(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    d = cfg.get("data", "mnist_dir")
    if not mnist_available(cfg):
        raise ConfigError(
            f"mnist files not found under {d!r}; expected {', '.join(MNIST_FILES)}")
    def read(name):
        with open(os.path.join(d, name), "rb") as fh:
            return fh.read()
    train = parse_idx(read(MNIST_FILES[0]), read(MNIST_FILES[1]), num_classes=10)
    test = parse_idx(read(MNIST_FILES[2]), read(MNIST_FILES[3]), num_classes=10)
    return (train.take(np.arange(cfg.get("data", "train_subset"))),
            test.take(np.arange(cfg.get("data", "test_subset"))))


def gan_and_distill_splits(cfg: RunConfig, train: Dataset) -> tuple[Dataset, Dataset]:
    """Which samples stage 1 and stage 2 each see; 'same' shares everything.

    'disjoint' halves the set by a seeded permutation stratified by class,
    so each half holds about half of every class (data files are sorted by
    class, so a prefix would not); it reads the training labels once.
    """
    if cfg.get("data", "split") == "same":
        return train, train
    rng = np.random.default_rng(spawn(cfg.get("run", "seed"), KEY_DATA_SPLIT))
    order = rng.permutation(len(train))
    order = order[np.argsort(train.labels[order], kind="stable")]
    return train.take(np.sort(order[1::2])), train.take(np.sort(order[0::2]))


# -- network construction ----------------------------------------------------


def build_role(cfg: RunConfig, which: str, n: int, num_classes: int) -> Network:
    init_key = {"teacher": INIT_TEACHER, "student": INIT_STUDENT,
                "generator": INIT_GENERATOR, "discriminator": INIT_DISCRIMINATOR}[which]
    return build_network(cfg.spec(which, n, num_classes), num_classes,
                         spawn(cfg.get("run", "seed"), init_key))


class _Run:
    """A stage's inputs: the run's datasets, seed, networks and out_dir files.

    Every stage loads its inputs through this class, so all stages see the
    same train and test sets.  A disjoint split reads the training labels,
    so it is made only when a stage asks for it.
    """

    def __init__(self, cfg: RunConfig, out_dir: str):
        self.cfg, self.out_dir = cfg, out_dir
        self.seed = cfg.get("run", "seed")
        self.train, self.test = load_dataset(cfg)

    def splits(self) -> tuple[Dataset, Dataset]:
        return gan_and_distill_splits(self.cfg, self.train)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def build(self, role: str) -> Network:
        return build_role(self.cfg, role, self.train.n, self.train.num_classes)

    def load(self, role: str, name: str) -> Network:
        """The frozen network of `role` with the weights of checkpoint `name`."""
        net, path = self.build(role), self.path(name)
        try:
            net.load_state_dict(checkpoint.load(path))
        except FileNotFoundError:
            writer = next(command for command, stage in STAGES.items()
                          if declares(stage.writes, name))
            raise ConfigError(f"missing checkpoint {path}; run {writer} first") from None
        return net.freeze()


def distill_config(cfg: RunConfig, method: str) -> DistillConfig:
    """[distill] as a DistillConfig; kd is the same loop on the KL alone, at
    kd_tau with weight 1 (alpha 0, beta 1), whatever mekd's weights are."""
    if method == "kd":
        return cfg.build("distill", alpha=0.0, beta=1.0, tau=cfg.get("distill", "kd_tau"))
    if method != "mekd":
        raise ConfigError(f"unknown method {method!r}; expected mekd or kd")
    return cfg.build("distill")


# -- stage: teacher ----------------------------------------------------------


def train_teacher(net: Network, train: Dataset, test: Dataset, cfg: TeacherConfig,
                  seed) -> tuple[Network, list[dict]]:
    """Train the supervised teacher; returns it and its epoch rows, each step
    through ``metrics.cross_entropy_step`` (the tape's ``cross_entropy`` is its reference)."""
    opt = SGD(net.params, cfg.lr, momentum=cfg.momentum)
    labels = train.labels  # supervised pre-training is the teacher's privilege
    rows = []
    for epoch in range(cfg.epochs):
        opt.lr = lr = multistep_lr(epoch, cfg.lr, list(cfg.milestones), cfg.gamma)
        rng = np.random.default_rng(spawn(seed, KEY_TEACHER_EPOCH, epoch))
        total = 0.0
        idx_batches = batches(train, cfg.m, seed=rng)
        for step, idx in enumerate(idx_batches):
            xb = train.samples[idx]  # a copy, so its rows are augmented in place
            if cfg.hflip or cfg.crop_pad:
                for row in xb:
                    if cfg.hflip and rng.random() < 0.5:
                        row[:] = hflip(row)
                    if cfg.crop_pad:
                        row[:] = random_crop(row, cfg.crop_pad, rng)
            try:
                opt.zero_grad()
                loss = cross_entropy_step(net, xb, labels[idx])
            except ad.NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite value in teacher training at epoch {epoch} step {step} "
                    f"(op {e.op!r})") from e
            opt.step()
            total += loss
        rows.append({"epoch": epoch, "loss": total / len(idx_batches), "lr": lr,
                     "train_acc": accuracy(net, train), "test_acc": accuracy(net, test)})
        log.debug("teacher epoch %d: %s", epoch, rows[-1])
    return net, rows


def run_train_teacher(cfg: RunConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(cfg, out_dir)
    net, rows = train_teacher(run.build("teacher"), run.train, run.test, cfg.build("teacher"),
                              run.seed)
    checkpoint.save(run.path("teacher.ckpt"), net.state_dict())
    _write_log(run.path("teacher_log.csv"), ["epoch", "loss", "train_acc", "test_acc", "lr"], rows)
    last = rows[-1]
    if last["test_acc"] <= 1.0 / run.train.num_classes:
        log.warning("teacher test accuracy %s is at or below chance (1/%d); students distilled "
                    "from it learn nothing", last["test_acc"], run.train.num_classes)
    return {"teacher_train_acc": last["train_acc"], "teacher_test_acc": last["test_acc"]}


# -- stage: GAN ---------------------------------------------------------------


FID_ROWS = 2000
GAN_SUMMARY_HEADER = ["gen_fid", "epochs", "config_hash"]
SNAPSHOT = "generator_epoch{epoch:04d}.ckpt"  # a [gan] snapshot_epochs entry's file


def _fid_reference(seed, real: Dataset) -> np.ndarray:
    """real's rows, or beyond FID_ROWS a seeded subset, the same for every
    tag (data files are sorted by class, so a prefix would drop classes)."""
    if len(real) <= FID_ROWS:
        return real.samples
    pick = np.random.default_rng(spawn(seed, KEY_FID_REAL)).choice(
        len(real), FID_ROWS, replace=False)
    return real.samples[np.sort(pick)]


def generator_fid(cfg: RunConfig, G: Network, real: Dataset, tag: int = 0) -> float:
    """Fréchet distance between noise-generated images and the real set."""
    seed = cfg.get("run", "seed")
    rng = np.random.default_rng(spawn(seed, KEY_FID_NOISE, tag))
    z = sample_noise(cfg.get("gan", "prior"), min(len(real), FID_ROWS), G.spec.input_dim, rng)
    with no_grad():
        # the generated rows, their statistics, then the reference subset are
        # temporaries, each freed once used up (the subset after the rows)
        return frechet_distance(FrechetStats.from_samples(G(z).data), _fid_reference(seed, real))


def snapshot_name(epoch: int) -> str:
    return SNAPSHOT.format(epoch=epoch)


def run_train_gan(cfg: RunConfig, out_dir: str) -> dict:
    """Train the generator and record its FID, the one the later stages report.

    The FID is computed before generator.ckpt, gan_log.csv and
    gan_summary.csv are written, so a failed or interrupted FID leaves the
    previous run's generator and its FID together.  The snapshots that
    [gan] snapshot_epochs names are still written during training.
    """
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(cfg, out_dir)
    gan_ds, _ = run.splits()
    snapshots = set(cfg.get("gan", "snapshot_epochs"))

    def on_epoch(epoch, G_now, _D, _rows):
        if epoch in snapshots:
            checkpoint.save(run.path(snapshot_name(epoch)), G_now.state_dict())

    G, gan_log = train_gan(run.build("generator"), run.build("discriminator"), gan_ds,
                           cfg.build("gan"), run.seed, epoch_callback=on_epoch)
    fid = generator_fid(cfg, G, gan_ds)
    checkpoint.save(run.path("generator.ckpt"), G.state_dict())
    _write_log(run.path("gan_log.csv"), ["epoch", "step", "L_D", "L_G", "gp"], gan_log)
    write_csv(run.path("gan_summary.csv"), GAN_SUMMARY_HEADER,
              [[fid, cfg.get("gan", "epochs"), cfg.hash()]])
    return {"gen_fid": fid}


def _read_gan_fid(out_dir: str) -> float | None:
    """The FID that run_train_gan recorded, or None before it has run."""
    path = os.path.join(out_dir, "gan_summary.csv")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        if lines[0] == ",".join(GAN_SUMMARY_HEADER):
            return float(lines[1].split(",")[0])
    except (IndexError, ValueError):
        pass
    raise ConfigError(f"malformed {path}: expected the header {','.join(GAN_SUMMARY_HEADER)} "
                      f"and a number under gen_fid; run train-gan again")


# -- stage: distillation -------------------------------------------------------


RESULTS_HEADER = ["method", "seed", "teacher_acc", "student_acc", "gen_fid",
                  "alpha", "beta", "p_norm", "tau", "config_hash"]


def run_distill(cfg: RunConfig, out_dir: str, method: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(cfg, out_dir)
    dcfg = distill_config(cfg, method)
    teacher = run.load("teacher", "teacher.ckpt")
    blind = BlindTeacher.from_network(teacher, cache=dcfg.cache_teacher)
    G = run.load("generator", "generator.ckpt") if dcfg.alpha > 0 else None
    _, distill_ds = run.splits()
    gen_fid = _read_gan_fid(out_dir) if method == "mekd" else None
    student, d_log = distill(run.build("student"), blind, G, distill_ds, dcfg, run.seed,
                             eval_train=run.train, eval_test=run.test)

    checkpoint.save(run.path(f"student_{method}.ckpt"), student.state_dict())
    _write_log(run.path(f"distill_{method}_log.csv"),
               ["epoch", "L_total", "L_distance", "L_kld", "train_acc", "test_acc", "lr"], d_log)

    teacher_acc = accuracy(teacher, run.test)
    student_acc = accuracy(student, run.test)
    row = [method, run.seed, teacher_acc, student_acc, gen_fid,
           dcfg.alpha, dcfg.beta, dcfg.p_norm, dcfg.tau, cfg.hash()]
    append_results_row(run.path("results.csv"), RESULTS_HEADER, row)
    return {"method": method, "teacher_acc": teacher_acc, "student_acc": student_acc,
            "gen_fid": gen_fid, "queries": blind.query_count}


# -- stage: FID ablation --------------------------------------------------------


def run_ablation_fid(cfg: RunConfig, out_dir: str) -> list[dict]:
    """Distill once per snapshot that [gan] snapshot_epochs names below [gan]
    epochs; other snapshot files in out_dir (an earlier run's) are ignored.
    Both rules are checked before the datasets are made."""
    epochs = sorted({e for e in cfg.get("gan", "snapshot_epochs") if e < cfg.get("gan", "epochs")})
    if len(epochs) < 2:
        raise ConfigError(f"FID ablation needs >= 2 generator snapshots; [gan] snapshot_epochs "
                          f"names {len(epochs)} below [gan] epochs")
    for epoch in epochs:
        if not os.path.exists(os.path.join(out_dir, snapshot_name(epoch))):
            raise ConfigError(f"missing generator snapshot {snapshot_name(epoch)}; run train-gan")

    run = _Run(cfg, out_dir)
    teacher = run.load("teacher", "teacher.ckpt")
    dcfg = distill_config(cfg, "mekd")
    _, distill_ds = run.splits()

    entries = []
    for epoch in epochs:
        G = run.load("generator", snapshot_name(epoch))
        entries.append((generator_fid(cfg, G, distill_ds, tag=epoch), epoch, G))
    entries.sort(key=lambda t: t[0])

    rows = []
    for fid, epoch, G in entries:
        blind = BlindTeacher.from_network(teacher, cache=dcfg.cache_teacher)
        student, _ = distill(run.build("student"), blind, G, distill_ds, dcfg, run.seed)
        rows.append({"gen_fid": fid, "gan_epoch": epoch,
                     "student_acc": accuracy(student, run.test), "seed": run.seed,
                     "config_hash": cfg.hash()})
    _write_log(run.path("ablation.csv"),
               ["gen_fid", "gan_epoch", "student_acc", "seed", "config_hash"], rows)
    return rows


# -- stage: eval and profiles ----------------------------------------------------


def run_eval(cfg: RunConfig, out_dir: str) -> dict:
    """Test accuracies of the saved teacher and students, and the generator FID
    that train-gan recorded in gan_summary.csv (absent until it has run)."""
    run = _Run(cfg, out_dir)
    out = {"teacher_acc": accuracy(run.load("teacher", "teacher.ckpt"), run.test)}
    for method in ("mekd", "kd"):
        name = f"student_{method}.ckpt"
        if os.path.exists(run.path(name)):
            out[f"student_acc_{method}"] = accuracy(run.load("student", name), run.test)
    if (gen_fid := _read_gan_fid(out_dir)) is not None:
        out["gen_fid"] = gen_fid
    return out


def run_grad_profile(cfg: RunConfig, out_dir: str, samples: int) -> list[list]:
    """Per-sample logit-gradient profiles of student_mekd.ckpt for CE / KD / MEKD-L1 / MEKD-L2.

    kd is distill_config's kd loss; mekd is the configured mekd loss at
    p_norm 1 and 2.  Each is distill.objective, with one softmax per term."""
    if samples < 1:
        raise ConfigError(f"grad-profile needs samples >= 1, got {samples}")
    run = _Run(cfg, out_dir)
    blind = BlindTeacher.from_network(run.load("teacher", "teacher.ckpt"))
    kd = distill_config(cfg, "kd")
    mekd = {p_norm: cfg.build("distill", p_norm=p_norm) for p_norm in (1, 2)}
    G = run.load("generator", "generator.ckpt") if mekd[1].alpha > 0 else None
    student = run.load("student", "student_mekd.ckpt")

    def loss(side, dcfg):
        return lambda lg: objective(G, side, ad.softmax(lg), ad.softmax(lg), dcfg)[0]

    rng = np.random.default_rng(spawn(run.seed, KEY_PROFILE))
    picks = rng.choice(len(run.test), size=min(samples, len(run.test)), replace=False)
    label_values = run.test.labels  # ground-truth ordering is part of the figure
    rows = []
    for i in picks:
        x = run.test.samples[i]
        k = int(label_values[i])
        p_t = blind.classify(x.reshape(1, -1))
        mekd_side = teacher_side(G, p_t, mekd[1])  # the same for either p_norm
        evaluators = [
            ("ce", lambda lg: cross_entropy(ad.softmax(lg), [k])),
            ("kd", loss(teacher_side(None, p_t, kd), kd)),
            ("mekd-l1", loss(mekd_side, mekd[1])),
            ("mekd-l2", loss(mekd_side, mekd[2])),
        ]
        for name, fn in evaluators:
            profile = record_logit_gradients(student, fn, x, k)
            rows.append([name, int(i), k] + [float(v) for v in profile])
    header = (["evaluator", "sample_index", "true_class"]
              + [f"g{j}" for j in range(run.test.num_classes)])
    write_csv(run.path("gradient_profiles.csv"), header, rows)
    return rows


# -- the stage table ------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """An experiment subcommand: its runner `run(cfg, out_dir, *flag values)`, the out_dir
    files it may read and does write ("{...}" matches any text) and its console lines."""
    run: Callable
    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    show: Callable[..., list[str]]
    flags: dict[str, dict] = field(default_factory=dict)  # dest -> argparse keywords, run's order


def declares(patterns, name: str) -> bool:
    """Whether out_dir file `name` fits one of `patterns`."""
    return any(re.fullmatch(".+".join(map(re.escape, re.split(r"\{.*?\}", p))), name)
               for p in patterns)


STAGES = {
    "train-teacher": Stage(run_train_teacher, "supervised pre-training of the teacher",
                           (), ("teacher.ckpt", "teacher_log.csv"),
                           lambda s: [f"teacher_test_acc={s['teacher_test_acc']}"]),
    "train-gan": Stage(run_train_gan, "stage 1: train the generator against real data",
                       (), ("generator.ckpt", SNAPSHOT, "gan_log.csv", "gan_summary.csv"),
                       lambda s: [f"gen_fid={s['gen_fid']}"]),
    "distill": Stage(run_distill, "stage 2: train the student from the blind teacher",
                     ("teacher.ckpt", "generator.ckpt", "gan_summary.csv"),
                     ("student_{method}.ckpt", "distill_{method}_log.csv", "results.csv"),
                     lambda s: [f"method={s['method']} teacher_acc={s['teacher_acc']} "
                                f"student_acc={s['student_acc']}"],
                     {"method": {"choices": ("mekd", "kd"), "default": "mekd"}}),
    "ablate-fid": Stage(run_ablation_fid, "distill once per generator snapshot, sorted by FID",
                        ("teacher.ckpt", SNAPSHOT), ("ablation.csv",),
                        lambda rows: [f"gen_fid={r['gen_fid']} gan_epoch={r['gan_epoch']} "
                                      f"student_acc={r['student_acc']}" for r in rows]),
    "eval": Stage(run_eval, "report accuracies from checkpoints and the FID train-gan recorded",
                  ("teacher.ckpt", "student_{method}.ckpt", "gan_summary.csv"), (),
                  lambda s: [f"{key}={value}" for key, value in s.items()]),
    "grad-profile": Stage(run_grad_profile, "export logit-gradient profiles per loss",
                          ("teacher.ckpt", "generator.ckpt", "student_mekd.ckpt"),
                          ("gradient_profiles.csv",),
                          lambda rows: [f"wrote {len(rows)} gradient profiles"],
                          {"samples": {"type": int, "default": 8}}),
}
