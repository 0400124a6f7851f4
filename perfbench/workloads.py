"""The benchmark's workloads: a config made from the seed, a set-up, and one closed job.

A job is one batch training run through the public harness stages
(``mekd.harness.run_*``), writing into a fresh directory.  After each job
the outputs are checked and fingerprinted; the fingerprint (checkpoint
hashes, FID, accuracies, teacher queries) must be the same for every job
of a run, because the config, and so every output byte, is the same.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

# Mirrors configs/blobs.ini (four Gaussian blob classes as 64-pixel images),
# with the GAN shortened from 150 to 10 epochs so a job fits a run many
# times; milestones and the three snapshots keep their relative positions.
BLOBS_INI = """
[run]
seed = {seed}

[data]
kind = blobs
num_classes = 4
n = 64
per_class = 500
spread = 0.05
centroid_seed = {seed}

[gan]
variant = wgan-gp
epochs = 10
milestones = 7,9
snapshot_epochs = 1,4,9

[distill]
p_norm = 1
alpha = 1.0
beta = 1.0
"""

# 28x28 images and 10 classes, so every matmul is 784 wide.  The teacher
# learning rate is lowered from 0.2, at which this teacher stays at chance.
# The teacher cache is off: every distillation batch is a query.
WIDE_INI = """
[run]
seed = {seed}

[data]
kind = blobs
num_classes = 10
n = 784
per_class = 100
per_class_test = 20
spread = 0.05
centroid_seed = {seed}

[teacher]
epochs = 20
lr = 0.05
milestones = 13,17

[gan]
variant = wgan-gp
epochs = 10
milestones = 7,9
snapshot_epochs = 1,4,9

[distill]
p_norm = 1
alpha = 1.0
beta = 1.0
epochs = 10
milestones = 6,8
cache_teacher = false
"""


def _stage(name):
    if name in ("mekd", "kd"):
        return lambda h, cfg, out: h.run_distill(cfg, out, name)
    fn = {"teacher": "run_train_teacher", "gan": "run_train_gan", "eval": "run_eval"}[name]
    return lambda h, cfg, out: getattr(h, fn)(cfg, out)


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str
    roles: tuple[str, ...]          # networks built in set-up
    setup_stages: tuple[str, ...]   # stages whose outputs the job starts from
    job_stages: tuple[str, ...]

    def config(self, seed: int):
        RunConfig = importlib.import_module("mekd.config").RunConfig
        return RunConfig.from_ini(self.ini.format(seed=seed))


WORKLOADS = {w.name: w for w in (
    Workload("gan-blobs", BLOBS_INI, ("generator", "discriminator"), (), ("gan",)),
    Workload("distill-blobs", BLOBS_INI, ("teacher", "generator", "discriminator", "student"),
             ("teacher", "gan"), ("mekd", "kd", "eval")),
    Workload("pipeline-wide", WIDE_INI, ("teacher", "generator", "discriminator", "student"),
             (), ("teacher", "gan", "mekd", "kd", "eval")),
)}


@dataclass
class Expected:
    """Counts the config implies, which every job must reproduce."""
    steps: dict[str, int]              # optimizer steps per stage
    queries_per_distill: int           # teacher rows answered per run_distill
    chance: float


def expected_counts(cfg, workload: Workload, harness) -> Expected:
    train, _ = harness.load_dataset(cfg)
    gan_ds, distill_ds = harness.gan_and_distill_splits(cfg, train)

    def batches(n, m):
        return math.ceil(n / min(m, n))

    steps = {}
    for stage in workload.job_stages:
        if stage == "teacher":
            steps[stage] = cfg.get("teacher", "epochs") * batches(len(train), cfg.get("teacher", "m"))
        elif stage == "gan":
            per_epoch = math.ceil(batches(len(gan_ds), cfg.get("gan", "m")) / cfg.get("gan", "k"))
            steps[stage] = cfg.get("gan", "epochs") * per_epoch
        elif stage in ("mekd", "kd"):
            steps[stage] = cfg.get("distill", "epochs") * batches(len(distill_ds), cfg.get("distill", "m"))
    if cfg.get("distill", "cache_teacher"):
        queries = len(np.unique(distill_ds.samples, axis=0))
    else:
        queries = cfg.get("distill", "epochs") * len(distill_ds)
    return Expected(steps, queries, 1.0 / train.num_classes)


def set_up(cfg, workload: Workload, harness, out_dir: str, audit) -> float:
    """Dataset synthesis, network init and the set-up stages; returns seconds."""
    t0 = time.perf_counter()
    train, _ = harness.load_dataset(cfg)
    for role in workload.roles:
        harness.build_role(cfg, role, train.n, train.num_classes)
    os.makedirs(out_dir)
    for stage in workload.setup_stages:
        audit.stage = stage
        _stage(stage)(harness, cfg, out_dir)
    audit.stage = "setup"
    return time.perf_counter() - t0


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def checkpoint_hashes(out_dir: str) -> dict[str, str]:
    return {f"sha256:{os.path.basename(p)}": _sha256(p)
            for p in sorted(glob.glob(os.path.join(out_dir, "*.ckpt")))}


@dataclass
class JobResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    queries: int = 0
    fingerprint: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_job(cfg, workload: Workload, harness, job_dir: str, setup_dir: str | None,
            audit) -> JobResult:
    """Run the job's stages into job_dir, timing them; checks come afterwards."""
    if setup_dir is not None:
        shutil.copytree(setup_dir, job_dir)
    else:
        os.makedirs(job_dir)
    result = JobResult()
    outputs = {}
    t0, c0 = time.perf_counter(), time.process_time()
    for stage in workload.job_stages:
        audit.stage = stage
        s0 = time.perf_counter()
        outputs[stage] = _stage(stage)(harness, cfg, job_dir)
        result.stage_s[stage] = time.perf_counter() - s0
    result.wall_s = time.perf_counter() - t0
    result.cpu_s = time.process_time() - c0
    audit.stage = "setup"
    _collect_quality(outputs, result)
    return result


def _collect_quality(outputs: dict, result: JobResult) -> None:
    """Gather quality results from each stage's return value, cross-checking repeats."""
    def put(key, value):
        if value is None:
            return
        if key in result.quality and repr(result.quality[key]) != repr(value):
            result.problems.append(f"{key} differs between stages: "
                                   f"{result.quality[key]!r} vs {value!r}")
        result.quality.setdefault(key, value)

    for stage, out in outputs.items():
        if stage == "teacher":
            put("teacher_acc", out["teacher_test_acc"])
        elif stage == "gan":
            put("gen_fid", out["gen_fid"])
        elif stage in ("mekd", "kd"):
            put("teacher_acc", out["teacher_acc"])
            put(f"student_acc_{stage}", out["student_acc"])
            put("gen_fid", out["gen_fid"])
            result.queries += out["queries"]
        elif stage == "eval":
            for key, value in out.items():
                put(key, value)


def check_job(result: JobResult, workload: Workload, expected: Expected,
              job_dir: str, audit) -> None:
    """Output checks; each failure is recorded in result.problems."""
    q = result.quality
    fid = q.get("gen_fid")
    if fid is not None and not math.isfinite(fid):
        result.problems.append(f"non-finite gen_fid {fid!r}")
    if "gan" in workload.job_stages and fid is None:
        result.problems.append("GAN stage reported no gen_fid")
    teacher_acc = q.get("teacher_acc")
    if teacher_acc is not None and teacher_acc < 2 * expected.chance:
        result.problems.append(f"teacher accuracy {teacher_acc!r} is near chance "
                               f"({expected.chance!r})")
    methods = [s for s in workload.job_stages if s in ("mekd", "kd")]
    want = expected.queries_per_distill * len(methods)
    if result.queries != want:
        result.problems.append(f"teacher answered {result.queries} rows, config implies {want}")
    result.problems.extend(audit.problems())
    result.fingerprint = checkpoint_hashes(job_dir)
    result.fingerprint.update({k: repr(v) for k, v in sorted(q.items())})
    result.fingerprint["teacher_queries"] = str(result.queries)
    result.fingerprint["label_reads"] = str(audit.label_reads())
