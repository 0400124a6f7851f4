import builtins
import contextlib
import dataclasses
import hashlib
import io
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mekd import autodiff as ad
from mekd import gan as gan_module
from mekd import harness
from mekd.autodiff import no_grad
from mekd.checkpoint import load as load_ckpt
from mekd.cli import main
from mekd.config import ConfigError, RunConfig
from mekd.data import Dataset
from mekd.distill import generation_distance, generator_input, kl_teacher_terms, kld_loss
from mekd.metrics import (FrechetStats, cross_entropy, frechet_distance,
                          record_logit_gradients)
from mekd.optim import TrainingDiverged

TINY_INI = """\
[run]
seed = 0

[data]
num_classes = 3
n = 16
per_class = 40
per_class_test = 20
spread = 0.05

[teacher]
hidden = 16
epochs = 8
m = 20
lr = 0.2
milestones = 6

[student]
hidden = 8

[generator]
hidden = 24

[discriminator]
hidden = 24

[gan]
m = 20
epochs = 6
milestones =
snapshot_epochs = 1,4

[distill]
m = 20
epochs = 6
milestones = 4
"""


@pytest.fixture()
def tiny_cfg():
    return RunConfig.from_ini(TINY_INI)


@pytest.fixture()
def tiny_ini_path(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


# -- CSV plumbing -------------------------------------------------------------


def test_write_csv_formats_and_is_atomic(tmp_path):
    path = tmp_path / "out.csv"
    harness.write_csv(path, ["a", "b", "c"], [[1, 0.5, None], ["x", 2.0, 3]])
    text = path.read_text()
    assert text == "a,b,c\n1,0.5,\nx,2.0,3\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert path.stat().st_mode == plain.stat().st_mode  # not mkstemp's 0600


def test_write_csv_failure_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    harness.write_csv(path, ["a"], [[1]])

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        harness.write_csv(path, ["a"], [[2]])
    assert path.read_text() == "a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_append_results_row_accumulates(tmp_path):
    path = tmp_path / "results.csv"
    harness.append_results_row(path, ["m", "v"], ["kd", 1.0])
    harness.append_results_row(path, ["m", "v"], ["mekd", 2.0])
    lines = path.read_text().splitlines()
    assert lines == ["m,v", "kd,1.0", "mekd,2.0"]


def test_append_results_row_rejects_other_header(tmp_path):
    path = tmp_path / "results.csv"
    harness.append_results_row(path, ["m", "v"], ["kd", 1.0])
    with pytest.raises(ValueError, match="header"):
        harness.append_results_row(path, ["m", "v", "w"], ["mekd", 2.0, 3.0])
    assert path.read_text() == "m,v\nkd,1.0\n"


_APPEND_WORKER = """\
import os, sys, time
from mekd.harness import append_results_row
path, go, worker = sys.argv[1], sys.argv[2], sys.argv[3]
print("ready", flush=True)
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(50):
    append_results_row(path, ["worker", "i"], [worker, i])
"""


def test_append_results_row_concurrent_processes_lose_no_rows(tmp_path):
    path, go = tmp_path / "results.csv", tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
    procs = [subprocess.Popen([sys.executable, "-c", _APPEND_WORKER, str(path), str(go), str(w)],
                              stdout=subprocess.PIPE, text=True, env=env)
             for w in range(4)]
    try:
        for p in procs:
            assert p.stdout.readline() == "ready\n"
        go.touch()
        for p in procs:
            assert p.wait(timeout=60) == 0
    finally:
        for p in procs:
            p.kill()
            p.stdout.close()
    lines = path.read_text().splitlines()
    assert lines[0] == "worker,i"
    assert sorted(lines[1:]) == sorted(f"{w},{i}" for w in range(4) for i in range(50))


# -- dataset plumbing ----------------------------------------------------------


def test_load_dataset_shapes_and_determinism(tiny_cfg):
    train, test = harness.load_dataset(tiny_cfg)
    assert len(train) == 120 and len(test) == 60
    assert train.n == 16 and train.num_classes == 3
    train2, _ = harness.load_dataset(tiny_cfg)
    assert np.array_equal(train.samples, train2.samples)


def test_load_dataset_train_test_share_geometry(tiny_cfg):
    # same centroid seed, different draw seeds: same class means, new noise
    zero_spread = tiny_cfg.replace("data", "spread", 0.0)
    train, test = harness.load_dataset(zero_spread)
    assert np.array_equal(np.unique(train.samples, axis=0),
                          np.unique(test.samples, axis=0))
    train_n, _ = harness.load_dataset(tiny_cfg)
    assert not np.array_equal(train_n.samples[:60], test.samples)


def test_load_dataset_seed_changes_draws(tiny_cfg):
    a, _ = harness.load_dataset(tiny_cfg)
    b, _ = harness.load_dataset(tiny_cfg.replace("run", "seed", 1))
    assert not np.array_equal(a.samples, b.samples)


def test_load_dataset_value_range(tiny_cfg):
    cfg = tiny_cfg.replace("data", "value_lo", -1.0)
    train, _ = harness.load_dataset(cfg)
    assert train.value_range == (-1.0, 1.0)
    assert train.samples.min() < 0.0


def test_load_dataset_unknown_kind(tiny_cfg):
    with pytest.raises(ConfigError, match="kind"):
        harness.load_dataset(tiny_cfg.replace("data", "kind", "cifar"))


def test_splits_same_and_disjoint(tiny_cfg):
    train, _ = harness.load_dataset(tiny_cfg)
    gan_ds, distill_ds = harness.gan_and_distill_splits(tiny_cfg, train)
    assert gan_ds is train and distill_ds is train

    cfg = tiny_cfg.replace("data", "split", "disjoint")
    gan_ds, distill_ds = harness.gan_and_distill_splits(cfg, train)
    rows = {row.tobytes() for row in train.samples}
    gan_rows = {row.tobytes() for row in gan_ds.samples}
    distill_rows = {row.tobytes() for row in distill_ds.samples}
    assert len(gan_ds) + len(distill_ds) == len(train)
    assert not gan_rows & distill_rows
    assert gan_rows | distill_rows == rows
    classes = set(range(train.num_classes))
    assert set(gan_ds.labels) == set(distill_ds.labels) == classes
    again, _ = harness.gan_and_distill_splits(cfg, train)
    assert np.array_equal(again.samples, gan_ds.samples)

    with pytest.raises(ConfigError):
        harness.gan_and_distill_splits(tiny_cfg.replace("data", "split", "thirds"), train)


def test_mnist_unavailable_by_default(tiny_cfg):
    assert not harness.mnist_available(tiny_cfg)
    with pytest.raises(ConfigError, match="mnist"):
        harness.load_dataset(tiny_cfg.replace("data", "kind", "mnist"))


# -- network and config mapping --------------------------------------------------


def test_build_role_uses_config_architecture(tiny_cfg):
    teacher = harness.build_role(tiny_cfg, "teacher", 16, 3)
    assert teacher.spec.widths == (16, 16, 3)
    student = harness.build_role(tiny_cfg, "student", 16, 3)
    assert student.spec.widths == (16, 8, 3)
    gen = harness.build_role(tiny_cfg, "generator", 16, 3)
    assert gen.spec.widths == (3, 24, 16)
    disc = harness.build_role(tiny_cfg, "discriminator", 16, 3)
    assert disc.spec.widths == (16, 24, 1)
    assert disc.spec.activation == "leaky_relu"


def test_build_role_deterministic_and_distinct(tiny_cfg):
    a = harness.build_role(tiny_cfg, "teacher", 16, 3).state_dict()
    b = harness.build_role(tiny_cfg, "teacher", 16, 3).state_dict()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    other = harness.build_role(tiny_cfg.replace("run", "seed", 5), "teacher", 16, 3)
    assert any(not np.array_equal(a[k], other.state_dict()[k]) for k in a)


def test_gan_config_mapping(tiny_cfg, monkeypatch):
    gcfg = tiny_cfg.build("gan")
    assert gcfg.m == 20 and gcfg.epochs == 6 and gcfg.variant == "wgan-gp"
    assert gcfg.milestones == () and gcfg.snapshot_epochs == (1, 4)
    assert gcfg.clip_norm == 5.0
    disabled = tiny_cfg.replace("gan", "clip_norm", 0.0).build("gan")
    assert disabled.clip_norm == 0.0
    train, _ = harness.load_dataset(tiny_cfg)
    G = harness.build_role(tiny_cfg, "generator", train.n, train.num_classes)
    D = harness.build_role(tiny_cfg, "discriminator", train.n, train.num_classes)
    seen = []
    real_sgd = gan_module.SGD

    def spy(*args, **kwargs):
        seen.append(kwargs["clip_norm"])
        return real_sgd(*args, **kwargs)
    monkeypatch.setattr(gan_module, "SGD", spy)
    gan_module.train_gan(G, D, train, dataclasses.replace(disabled, epochs=0), seed=0)
    assert seen == [None, None]  # 0 means no clipping


def test_distill_config_mapping_and_methods(tiny_cfg):
    mekd = harness.distill_config(tiny_cfg, "mekd")
    assert mekd.alpha == 1.0 and mekd.tau == 1.0 and mekd.m == 20
    kd = harness.distill_config(tiny_cfg, "kd")
    assert kd.alpha == 0.0
    assert kd.tau == tiny_cfg.get("distill", "kd_tau") == 4.0
    with pytest.raises(ConfigError, match="method"):
        harness.distill_config(tiny_cfg, "dkd")


# -- pipeline stages --------------------------------------------------------------


def test_run_train_teacher_outputs(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    summary = harness.run_train_teacher(tiny_cfg, out)
    assert summary["teacher_test_acc"] >= 0.95  # blobs this separated are easy
    assert os.path.exists(os.path.join(out, "teacher.ckpt"))
    log_lines = open(os.path.join(out, "teacher_log.csv")).read().splitlines()
    assert log_lines[0] == "epoch,loss,train_acc,test_acc,lr"
    assert len(log_lines) == 1 + 8


def test_run_train_teacher_warns_at_chance(tiny_cfg, tmp_path, caplog):
    cfg = tiny_cfg.replace("teacher", "lr", 1e12)
    with caplog.at_level(logging.WARNING, logger="mekd"):
        summary = harness.run_train_teacher(cfg, str(tmp_path / "run"))
    assert summary["teacher_test_acc"] <= 1.0 / 3.0
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "chance" in warnings[0].getMessage()


def test_run_train_teacher_trained_does_not_warn(tiny_cfg, tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="mekd"):
        harness.run_train_teacher(tiny_cfg, str(tmp_path / "run"))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _tape_cross_entropy_step(net, x, labels):
    """metrics.cross_entropy_step through the tape: its bit reference."""
    loss = cross_entropy(net(x), labels)
    loss.backward()
    return loss.item()


def _train_teacher(cfg):
    """train_teacher on a fresh teacher, as run_train_teacher calls it."""
    run = harness._Run(cfg, "unused")
    return harness.train_teacher(run.build("teacher"), run.train, run.test,
                                 cfg.build("teacher"), run.seed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_teacher_divergence_reports_epoch_and_step(tiny_cfg, monkeypatch):
    cfg = tiny_cfg.replace("teacher", "lr", 1e200)
    with pytest.raises(TrainingDiverged, match=r"teacher training at epoch \d+ step \d+"):
        _train_teacher(cfg)
    # the array step diverges where the tape step does, naming the same op
    messages = []
    for step in (harness.cross_entropy_step, _tape_cross_entropy_step):
        monkeypatch.setattr(harness, "cross_entropy_step", step)
        with pytest.raises(TrainingDiverged) as info:
            _train_teacher(cfg)
        messages.append((info.value.__cause__.op, str(info.value)))
    assert messages[0] == messages[1]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_train_teacher_array_step_matches_tape_step(tiny_cfg, monkeypatch, activation):
    # augmentation on: the array step sees the flipped and cropped batches
    cfg = (tiny_cfg.replace("teacher", "hflip", True).replace("teacher", "crop_pad", 1)
           .replace("teacher", "activation", activation))
    array_net, array_rows = _train_teacher(cfg)
    monkeypatch.setattr(harness, "cross_entropy_step", _tape_cross_entropy_step)
    tape_net, tape_rows = _train_teacher(cfg)
    assert array_rows == tape_rows and len(tape_rows) == 8
    for name, p in tape_net.params.items():
        assert np.array_equal(_bits(array_net.params[name].data), _bits(p.data)), name


def test_train_teacher_smooth_teacher_runs_the_array_step(tiny_cfg, monkeypatch):
    cfg = tiny_cfg.replace("teacher", "activation", "tanh").replace("teacher", "epochs", 2)

    def no_tape_loss(*args):
        raise AssertionError("tape step taken")
    monkeypatch.setattr(harness, "cross_entropy", no_tape_loss)
    _, rows = _train_teacher(cfg)
    assert len(rows) == 2 and all(np.isfinite(row["loss"]) for row in rows)
    assert rows[1]["loss"] < rows[0]["loss"]


def test_run_train_teacher_deterministic(tiny_cfg, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    harness.run_train_teacher(tiny_cfg, out_a)
    harness.run_train_teacher(tiny_cfg, out_b)
    bytes_a = open(os.path.join(out_a, "teacher.ckpt"), "rb").read()
    bytes_b = open(os.path.join(out_b, "teacher.ckpt"), "rb").read()
    assert bytes_a == bytes_b


def test_teacher_augmentation_changes_training(tiny_cfg, tmp_path):
    out_a = str(tmp_path / "a")
    harness.run_train_teacher(tiny_cfg, out_a)
    bytes_a = open(os.path.join(out_a, "teacher.ckpt"), "rb").read()
    for key, value in (("hflip", True), ("crop_pad", 1)):
        out_b = str(tmp_path / key)
        harness.run_train_teacher(tiny_cfg.replace("teacher", key, value), out_b)
        bytes_b = open(os.path.join(out_b, "teacher.ckpt"), "rb").read()
        assert bytes_a != bytes_b, key


def test_run_train_gan_outputs(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    summary = harness.run_train_gan(tiny_cfg, out)
    assert np.isfinite(summary["gen_fid"]) and summary["gen_fid"] >= 0.0
    for name in ("generator.ckpt", "generator_epoch0001.ckpt",
                 "generator_epoch0004.ckpt", "gan_log.csv", "gan_summary.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    header = open(os.path.join(out, "gan_log.csv")).readline().strip()
    assert header == "epoch,step,L_D,L_G,gp"
    summary_lines = open(os.path.join(out, "gan_summary.csv")).read().splitlines()
    assert summary_lines[0] == "gen_fid,epochs,config_hash"
    assert summary_lines[1].endswith(tiny_cfg.hash())


def test_run_train_gan_failed_fid_keeps_the_previous_generator_and_fid(tiny_cfg, tmp_path,
                                                                       monkeypatch):
    # eval reports the recorded FID, so the generator it describes must stay beside it
    out = str(tmp_path / "run")
    harness.run_train_gan(tiny_cfg, out)
    names = ("generator.ckpt", "gan_log.csv", "gan_summary.csv")
    before = {name: open(os.path.join(out, name), "rb").read() for name in names}

    def fail(*args, **kwargs):
        raise RuntimeError("FID interrupted")
    monkeypatch.setattr(harness, "generator_fid", fail)
    with pytest.raises(RuntimeError, match="FID interrupted"):
        harness.run_train_gan(tiny_cfg.replace("gan", "lr_g", 0.02), out)
    assert {name: open(os.path.join(out, name), "rb").read() for name in names} == before


def test_generator_fid_reference_covers_every_class(tiny_cfg, monkeypatch):
    # blobs are sorted by class: the first 2000 of 4000 rows are classes {0, 1}
    cfg = tiny_cfg.replace("data", "num_classes", 4).replace("data", "per_class", 1000)
    train, _ = harness.load_dataset(cfg)
    label_of = dict(zip((row.tobytes() for row in train.samples), train.labels))
    seen = []

    def capture(fake, real):
        seen.append(real)
        return 0.0
    monkeypatch.setattr(harness, "frechet_distance", capture)
    G = harness.build_role(cfg, "generator", train.n, train.num_classes)
    harness.generator_fid(cfg, G, train)
    (reference,) = seen
    counts = np.bincount([label_of[row.tobytes()] for row in reference], minlength=4)
    assert np.all(counts > 400)
    assert len(reference) == harness.FID_ROWS == 2000


def test_generator_fid_small_set_uses_every_row(tiny_cfg, monkeypatch):
    train, _ = harness.load_dataset(tiny_cfg)
    seen = []
    monkeypatch.setattr(harness, "frechet_distance", lambda fake, real: seen.append(real))
    G = harness.build_role(tiny_cfg, "generator", train.n, train.num_classes)
    harness.generator_fid(tiny_cfg, G, train)
    assert np.array_equal(seen[0], train.samples)


def test_generator_fid_keeps_only_the_statistics_of_the_generated_rows(tiny_cfg, monkeypatch):
    # the generated rows are reduced to their Gaussian fit before the reference
    # is touched, and the distance equals the one over the rows themselves
    train, _ = harness.load_dataset(tiny_cfg)
    G = harness.build_role(tiny_cfg, "generator", train.n, train.num_classes)
    seen = []
    monkeypatch.setattr(harness, "frechet_distance", lambda fake, real: seen.append(fake))
    harness.generator_fid(tiny_cfg, G, train)
    monkeypatch.undo()
    (fake,) = seen
    assert isinstance(fake, FrechetStats)
    rng = np.random.default_rng(harness.spawn(tiny_cfg.get("run", "seed"), harness.KEY_FID_NOISE, 0))
    z = harness.sample_noise(tiny_cfg.get("gan", "prior"), len(train), G.spec.input_dim, rng)
    with no_grad():
        rows = G(z).data
    assert harness.generator_fid(tiny_cfg, G, train) == frechet_distance(rows, train.samples)



def test_generator_fid_makes_the_reference_subset_after_the_generated_statistics(tiny_cfg):
    # beyond FID_ROWS the reference subset is a temporary made once the
    # generated rows are reduced to their statistics, so a 6000-row set peaks
    # as a 2000-row one does (7.7 d^2 doubles; holding the subset gave 10.2)
    d = 784
    real = Dataset(np.random.default_rng(26).uniform(size=(6000, d)), np.zeros(6000), 10)
    G = harness.build_role(tiny_cfg, "generator", d, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        harness.generator_fid(tiny_cfg, G, real)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * d * d * 8

def test_run_distill_requires_teacher_checkpoint(tiny_cfg, tmp_path):
    # the error names the subcommand whose STAGES entry writes the missing file
    out = str(tmp_path / "run")
    with pytest.raises(ConfigError, match="teacher.ckpt; run train-teacher first"):
        harness.run_distill(tiny_cfg, out, "mekd")
    harness.run_train_teacher(tiny_cfg, out)
    with pytest.raises(ConfigError, match="generator.ckpt; run train-gan first"):
        harness.run_distill(tiny_cfg, out, "mekd")


def _run_pipeline(cfg, out):
    harness.run_train_teacher(cfg, out)
    harness.run_train_gan(cfg, out)
    return harness.run_distill(cfg, out, "mekd")


def test_run_distill_mekd_outputs(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    result = _run_pipeline(tiny_cfg, out)
    assert 0.0 <= result["student_acc"] <= 1.0
    assert result["queries"] == 120  # cached: one query per distinct sample
    assert os.path.exists(os.path.join(out, "student_mekd.ckpt"))
    lines = open(os.path.join(out, "results.csv")).read().splitlines()
    assert lines[0] == ",".join(harness.RESULTS_HEADER)
    fields = lines[1].split(",")
    assert fields[0] == "mekd" and fields[1] == "0"
    assert fields[4] != ""  # generator FID recorded for mekd
    assert fields[9] == tiny_cfg.hash()


def test_run_distill_kd_needs_no_generator(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    result = harness.run_distill(tiny_cfg, out, "kd")
    assert 0.0 <= result["student_acc"] <= 1.0
    assert result["gen_fid"] is None
    lines = open(os.path.join(out, "results.csv")).read().splitlines()
    assert lines[1].split(",")[4] == ""  # no FID column value for kd


def test_run_distill_appends_rows(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    _run_pipeline(tiny_cfg, out)
    harness.run_distill(tiny_cfg, out, "kd")
    lines = open(os.path.join(out, "results.csv")).read().splitlines()
    assert len(lines) == 3
    assert [ln.split(",")[0] for ln in lines[1:]] == ["mekd", "kd"]


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_run_distill_array_step_matches_tape_step(tiny_cfg, tmp_path, monkeypatch, activation):
    base = (tiny_cfg.replace("student", "activation", activation)
            .replace("generator", "activation", activation))
    out = str(tmp_path / "run")
    harness.run_train_teacher(base, out)
    harness.run_train_gan(base, out)
    distill_module = sys.modules["mekd.distill"]  # the package exports distill()
    answers = []  # the answers of the batch being stepped
    classify = distill_module.BlindTeacher.classify

    def recording_classify(self, x):
        answers[:] = [classify(self, x)]
        return answers[0]

    def tape_student_step(student, generator, side, x, cfg):
        # the reference ignores the kept half: student_loss recomputes it from the answers
        p_t = answers[0]
        teacher = distill_module.BlindTeacher(lambda rows: p_t, p_t.shape[1], cache=False)
        loss, parts = distill_module.student_loss(student, teacher, generator, x, cfg)
        loss.backward()
        return loss.item(), parts

    monkeypatch.setattr(distill_module.BlindTeacher, "classify", recording_classify)
    steps = (distill_module.student_step, tape_student_step)
    # of the 120 rows, m = 25 leaves a short last batch of 20, and m = 7 one of 1
    for m in (25, 7):
        for cache in (True, False):
            cfg = base.replace("distill", "m", m).replace("distill", "cache_teacher", cache)
            for method in ("mekd", "kd"):
                outputs = []
                for step in steps:
                    monkeypatch.setattr(distill_module, "student_step", step)
                    harness.run_distill(cfg, out, method)
                    outputs.append([open(os.path.join(out, name), "rb").read()
                                    for name in (f"student_{method}.ckpt",
                                                 f"distill_{method}_log.csv")])
                assert outputs[0] == outputs[1], (m, cache, method)


def test_run_distill_kd_is_the_same_under_any_beta(tiny_cfg, tmp_path):
    # kd is the KL at kd_tau with weight 1: a distance-only config (beta 0)
    # still runs it, and [distill] beta changes none of its bytes
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    students = []
    for beta in (1.0, 0.0, 2.0):
        harness.run_distill(tiny_cfg.replace("distill", "beta", beta), out, "kd")
        students.append(open(os.path.join(out, "student_kd.ckpt"), "rb").read())
    assert students[0] == students[1] == students[2]
    rows = open(os.path.join(out, "results.csv")).read().splitlines()[1:]
    assert [row.split(",")[6] for row in rows] == ["1.0"] * 3  # the beta column


def test_run_eval_reads_checkpoints_back(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    result = _run_pipeline(tiny_cfg, out)
    evaluated = harness.run_eval(tiny_cfg, out)
    assert evaluated["student_acc_mekd"] == result["student_acc"]
    assert evaluated["teacher_acc"] == result["teacher_acc"]
    assert "gen_fid" in evaluated


def test_run_eval_reports_the_recorded_fid_without_recomputing_it(tiny_cfg, tmp_path,
                                                                   monkeypatch):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    fid = harness.run_train_gan(tiny_cfg, out)["gen_fid"]

    def no_fid(*args, **kwargs):
        raise AssertionError("eval recomputed the FID")

    def load(path, _real=harness.checkpoint.load):
        assert os.path.basename(path) != "generator.ckpt", "eval loaded the generator"
        return _real(path)
    monkeypatch.setattr(harness, "generator_fid", no_fid)
    monkeypatch.setattr(harness.checkpoint, "load", load)
    assert repr(harness.run_eval(tiny_cfg, out)["gen_fid"]) == repr(fid)


def test_run_eval_without_gan_summary_reports_no_fid(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    harness.run_train_gan(tiny_cfg, out)
    os.remove(os.path.join(out, "gan_summary.csv"))  # generator.ckpt stays
    assert "gen_fid" not in harness.run_eval(tiny_cfg, out)


def test_run_ablation_sorts_by_fid(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    harness.run_train_gan(tiny_cfg, out)
    rows = harness.run_ablation_fid(tiny_cfg, out)
    assert len(rows) == 2
    fids = [r["gen_fid"] for r in rows]
    assert fids == sorted(fids)
    assert os.path.exists(os.path.join(out, "ablation.csv"))


def test_run_ablation_identical_checkpoints_same_accuracy(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    harness.run_train_gan(tiny_cfg, out)
    # overwrite both snapshots with the same final generator
    final = os.path.join(out, "generator.ckpt")
    shutil.copy(final, os.path.join(out, "generator_epoch0001.ckpt"))
    shutil.copy(final, os.path.join(out, "generator_epoch0004.ckpt"))
    rows = harness.run_ablation_fid(tiny_cfg, out)
    assert rows[0]["student_acc"] == rows[1]["student_acc"]


def test_run_ablation_requires_two_snapshots(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    os.makedirs(out, exist_ok=True)
    with pytest.raises(ConfigError, match="snapshot"):
        harness.run_ablation_fid(tiny_cfg, out)


def test_run_ablation_reads_only_the_snapshots_the_config_names(tiny_cfg, tmp_path):
    # a second GAN trained into the same out_dir leaves the first one's
    # snapshots behind; they must not join the second config's ablation
    out = str(tmp_path / "run")
    harness.run_train_teacher(tiny_cfg, out)
    harness.run_train_gan(tiny_cfg, out)  # snapshots at epochs 1 and 4
    second = tiny_cfg.replace("gan", "snapshot_epochs", (2, 3)).replace("gan", "lr_g", 0.02)
    harness.run_train_gan(second, out)
    rows = harness.run_ablation_fid(second, out)
    assert sorted(row["gan_epoch"] for row in rows) == [2, 3]


def test_run_ablation_checks_its_rules_before_loading_data(tiny_cfg, tmp_path, monkeypatch):
    def no_data(cfg):
        raise AssertionError("ablate-fid made the datasets before checking its rules")

    monkeypatch.setattr(harness, "load_dataset", no_data)
    out = str(tmp_path / "run")
    # ROADMAP item 2's probe: a snapshot epoch past [gan] epochs loads, and is never saved
    with pytest.raises(ConfigError, match=">= 2 generator snapshots"):
        harness.run_ablation_fid(tiny_cfg.replace("gan", "snapshot_epochs", (500,)), out)
    with pytest.raises(ConfigError, match="generator_epoch0001.ckpt; run train-gan"):
        harness.run_ablation_fid(tiny_cfg, out)


def test_run_ablation_names_a_missing_snapshot(tiny_cfg, tmp_path):
    # epoch 6 is not below [gan] epochs = 6, so it is never saved nor asked for
    cfg = tiny_cfg.replace("gan", "snapshot_epochs", (1, 4, 6))
    out = str(tmp_path / "run")
    with pytest.raises(ConfigError, match=">= 2 generator snapshots"):
        harness.run_ablation_fid(cfg.replace("gan", "snapshot_epochs", (1, 6)), out)
    harness.run_train_teacher(cfg, out)
    harness.run_train_gan(cfg, out)
    assert sorted(row["gan_epoch"] for row in harness.run_ablation_fid(cfg, out)) == [1, 4]
    os.remove(os.path.join(out, harness.snapshot_name(4)))
    with pytest.raises(ConfigError, match="generator_epoch0004.ckpt"):
        harness.run_ablation_fid(cfg, out)


def test_run_grad_profile_outputs(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    _run_pipeline(tiny_cfg, out)
    rows = harness.run_grad_profile(tiny_cfg, out, samples=3)
    assert len(rows) == 3 * 4  # four evaluators per sample
    evaluators = {row[0] for row in rows}
    assert evaluators == {"ce", "kd", "mekd-l1", "mekd-l2"}
    assert all(len(row) == 3 + 3 for row in rows)  # id cols + C gradient values
    header = open(os.path.join(out, "gradient_profiles.csv")).readline().strip()
    assert header == "evaluator,sample_index,true_class,g0,g1,g2"


@pytest.mark.parametrize("gen_input", ["probs", "logits"])
def test_run_grad_profile_mekd_rows_follow_the_distill_config(tiny_cfg, tmp_path, gen_input):
    # the mekd rows differentiate the loss that mekd trains: [distill] tau
    # and the generator feed are read, not fixed at tau 1 and raw probabilities
    out = str(tmp_path / "run")
    _run_pipeline(tiny_cfg, out)
    cfg = tiny_cfg.replace("distill", "tau", 2.0).replace("distill", "gen_input", gen_input)
    cfg = cfg.replace("distill", "gen_tau", 3.0 if gen_input == "logits" else 1.0)
    rows = harness.run_grad_profile(cfg, out, samples=2)
    run = harness._Run(cfg, out)
    teacher = run.load("teacher", "teacher.ckpt")
    G = run.load("generator", "generator.ckpt")
    student = run.build("student")
    student.load_state_dict(load_ckpt(run.path("student_mekd.ckpt")))

    def feed(p):
        return p if gen_input == "probs" else ad.log(ad.clip(p, 1e-12, 1.0)) * (1.0 / 3.0)

    checked = 0
    for name, i, k, *profile in rows:
        if name != "mekd-l1":
            continue
        x = run.test.samples[i]
        with no_grad():
            p_t = teacher(x[None]).data

        def loss(logits):
            p_s = ad.softmax(logits)
            dist = generation_distance(G, feed(p_s), G(feed(ad.constant(p_t))).data, 1)
            return dist + kld_loss(kl_teacher_terms(p_t, 2.0), p_s, 2.0)

        want = record_logit_gradients(student, loss, x, k)
        assert profile == pytest.approx(list(want), rel=1e-9, abs=1e-12)
        checked += 1
    assert checked == 2



def _profiles(rows) -> dict:
    """{(evaluator, sample_index): the row's gradient values as int64 bits}."""
    return {(name, i): np.array(profile).view(np.int64) for name, i, _, *profile in rows}


def test_run_grad_profile_rows_equal_the_losses_written_term_by_term(tiny_cfg, tmp_path):
    # kd is the KL at kd_tau with weight 1, mekd is alpha * distance + beta *
    # KL, each term on its own softmax of the logits: equal to the last bit
    out = str(tmp_path / "run")
    _run_pipeline(tiny_cfg, out)
    run = harness._Run(tiny_cfg, out)
    teacher = run.load("teacher", "teacher.ckpt")
    G = run.load("generator", "generator.ckpt")
    student = run.build("student")
    student.load_state_dict(load_ckpt(run.path("student_mekd.ckpt")))
    kd_tau = tiny_cfg.get("distill", "kd_tau")
    for keys in ({}, {"alpha": 0.5, "beta": 2.0, "tau": 2.0, "gen_input": "logits", "gen_tau": 3.0}):
        cfg = tiny_cfg
        for key, value in keys.items():
            cfg = cfg.replace("distill", key, value)
        dcfg = cfg.build("distill")
        got = _profiles(harness.run_grad_profile(cfg, out, samples=2))
        for name, i in got:
            x = run.test.samples[i]
            with no_grad():
                p_t = teacher(x[None]).data

            def kd(logits):
                return kld_loss(kl_teacher_terms(p_t, kd_tau), ad.softmax(logits), kd_tau)

            def mekd(logits, p_norm):
                image_t = G(generator_input(ad.constant(p_t), dcfg)).data
                dist = generation_distance(G, generator_input(ad.softmax(logits), dcfg),
                                           image_t, p_norm)
                kld = kld_loss(kl_teacher_terms(p_t, dcfg.tau), ad.softmax(logits), dcfg.tau)
                return dist * dcfg.alpha + kld * dcfg.beta

            loss = {"kd": kd, "mekd-l1": lambda lg: mekd(lg, 1),
                    "mekd-l2": lambda lg: mekd(lg, 2)}.get(name)
            if loss is not None:
                want = record_logit_gradients(student, loss, x, int(run.test.labels[i]))
                assert np.array_equal(got[name, i], want.view(np.int64)), (keys, name, i)


def test_run_grad_profile_writes_every_evaluator_when_beta_is_zero(tiny_cfg, tmp_path):
    # a distance-only config has no kd method to build, but its profile's kd
    # rows are still the KL at kd_tau, the same as under the default config
    out = str(tmp_path / "run")
    _run_pipeline(tiny_cfg, out)
    cfg = tiny_cfg.replace("distill", "beta", 0.0)
    assert harness.distill_config(cfg, "kd") == harness.distill_config(tiny_cfg, "kd")
    rows = harness.run_grad_profile(cfg, out, samples=2)
    assert [row[0] for row in rows] == ["ce", "kd", "mekd-l1", "mekd-l2"] * 2
    got, default = _profiles(rows), _profiles(harness.run_grad_profile(tiny_cfg, out, samples=2))
    kd_keys = [key for key in got if key[0] == "kd"]
    assert all(np.array_equal(got[key], default[key]) for key in kd_keys)

def test_run_grad_profile_needs_no_generator_when_alpha_is_zero(tiny_cfg, tmp_path):
    # with alpha 0 no evaluator reads G, so a run without a GAN stage profiles
    cfg = tiny_cfg.replace("distill", "alpha", 0.0)
    out = str(tmp_path / "run")
    harness.run_train_teacher(cfg, out)
    harness.run_distill(cfg, out, "mekd")
    rows = harness.run_grad_profile(cfg, out, samples=2)
    assert [row[0] for row in rows] == ["ce", "kd", "mekd-l1", "mekd-l2"] * 2
    assert not os.path.exists(os.path.join(out, "generator.ckpt"))


def test_stages_load_datasets_once_and_split_only_on_demand(tiny_cfg, tmp_path, monkeypatch):
    # a disjoint split reads the training labels; a stage that never uses
    # the halves must not make it
    cfg = tiny_cfg.replace("data", "split", "disjoint")
    calls = {"load_dataset": 0, "gan_and_distill_splits": 0}
    for name in calls:
        def counted(*args, _real=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(harness, name, counted)
    out = str(tmp_path / "run")

    def counts(stage, *args):
        calls.update(dict.fromkeys(calls, 0))
        stage(cfg, out, *args)
        return calls["load_dataset"], calls["gan_and_distill_splits"]

    assert counts(harness.run_train_teacher) == (1, 0)
    assert counts(harness.run_eval) == (1, 0)
    assert counts(harness.run_train_gan) == (1, 1)
    assert counts(harness.run_distill, "mekd") == (1, 1)
    assert counts(harness.run_distill, "kd") == (1, 1)
    assert counts(harness.run_ablation_fid) == (1, 1)
    assert counts(harness.run_eval) == (1, 0)  # reads the FID the GAN stage recorded
    assert counts(harness.run_grad_profile) == (1, 0)


def _out_dir_digests(out) -> dict:
    if not os.path.isdir(out):
        return {}
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in os.listdir(out)}


def test_stage_table_declares_every_file_each_stage_touches(tiny_cfg, tmp_path, monkeypatch):
    # Each stage may read only the out_dir files its STAGES entry declares,
    # and writes exactly the ones it declares (every pattern at least once).
    # Reads are the files opened for reading alone: checkpoint.load opens its
    # file, and results.csv, opened to append, is a write.
    out = tmp_path / "run"
    runs = [("train-teacher",), ("train-gan",), ("distill", "mekd"), ("distill", "kd"),
            ("ablate-fid",), ("eval",), ("grad-profile", 2)]
    assert {command for command, *_ in runs} == set(harness.STAGES)
    # every declared read is some stage's write, so a missing one names its writer
    assert all(any(harness.declares(writer.writes, pattern) for writer in harness.STAGES.values())
               for stage in harness.STAGES.values() for pattern in stage.reads)
    opened = []

    def recording_open(file, mode="r", *args, _real=builtins.open, **kwargs):
        opened.append((os.path.relpath(file, out), mode))
        return _real(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    for command, *flags in runs:
        stage = harness.STAGES[command]

        def declared(patterns, values=dict(zip(stage.flags, flags))):
            for key, value in values.items():
                patterns = [p.replace(f"{{{key}}}", str(value)) for p in patterns]
            return patterns

        before, start = _out_dir_digests(out), len(opened)
        stage.run(tiny_cfg, str(out), *flags)
        reads = {name for name, mode in opened[start:] if not set(mode) & set("wax+")}
        after = _out_dir_digests(out)
        written = {name for name, digest in after.items() if before.get(name) != digest}
        assert before.keys() <= after.keys(), command
        assert [name for name in reads
                if not harness.declares(declared(stage.reads), name)] == [], command
        assert [name for name in written
                if not harness.declares(declared(stage.writes), name)] == [], command
        assert all(any(harness.declares([p], name) for name in written)
                   for p in declared(stage.writes)), (command, sorted(written))


def test_read_gan_fid_missing_returns_none(tmp_path):
    assert harness._read_gan_fid(str(tmp_path)) is None


@pytest.mark.parametrize("text", [
    "",
    "gen_fid,epochs,config_hash\n",
    "epochs,gen_fid,config_hash\n6,0.5,abc\n",
    "gen_fid,epochs,config_hash\nlow,6,abc\n",
])
def test_read_gan_fid_malformed_summary_is_config_error(tmp_path, text):
    (tmp_path / "gan_summary.csv").write_text(text)
    with pytest.raises(ConfigError, match="malformed .*gan_summary.csv"):
        harness._read_gan_fid(str(tmp_path))


# -- CLI ---------------------------------------------------------------------


def test_cli_gradcheck_ok(capsys):
    assert main(["gradcheck", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck ok" in out


def test_cli_gradcheck_without_trials_is_validation_error(capsys):
    # no trials would check nothing, yet print "gradcheck ok"
    for trials in ("0", "-1"):
        assert main(["gradcheck", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "gradcheck ok" not in captured.out
        assert "shapes_per_op" in captured.err


def test_cli_runs_every_subcommand(tiny_ini_path, tmp_path, capsys):
    common = ["--config", tiny_ini_path, "--out", str(tmp_path / "run")]
    number = r"[-+.e0-9]+"
    steps = [
        (["train-teacher"], [rf"teacher_test_acc={number}"]),
        (["train-gan"], [rf"gen_fid={number}"]),
        (["distill", "--method", "mekd"],
         [rf"method=mekd teacher_acc={number} student_acc={number}"]),
        (["distill", "--method", "kd"], [rf"method=kd teacher_acc={number} student_acc={number}"]),
        (["ablate-fid"], [rf"gen_fid={number} gan_epoch=[14] student_acc={number}"] * 2),
        (["eval"], [rf"{key}={number}"
                    for key in ("teacher_acc", "student_acc_mekd", "student_acc_kd", "gen_fid")]),
        (["grad-profile", "--samples", "3"], ["wrote 12 gradient profiles"]),
    ]
    for argv, lines in steps:
        assert main(argv[:1] + common + argv[1:]) == 0, argv
        out = capsys.readouterr().out.splitlines()
        assert len(out) == len(lines), (argv, out)
        assert all(re.fullmatch(want, got) for want, got in zip(lines, out)), (argv, out)
    assert main(["gradcheck", "--trials", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck ok"


def test_cli_missing_required_flag_is_validation_error(capsys):
    assert main(["train-teacher"]) == 1


def test_cli_unknown_command_is_validation_error():
    assert main(["transmogrify"]) == 1


def test_cli_no_command_is_validation_error():
    assert main([]) == 1


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["train-teacher", "--config", str(tmp_path / "none.ini")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_config_value(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed = lots\n")
    assert main(["train-teacher", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, old, new", [
    ("distill", "milestones = 4\n", "milestones = 4\nalpha = 0.0\nbeta = 0.0\n"),
    ("gan", "milestones =\n", "milestones = 5,3\n"),
    ("student", "[student]\nhidden = 8\n", "[student]\nhidden = 0\n"),
    ("generator", "[generator]\nhidden = 24\n", "[generator]\nhidden = 64,-1\n"),
    # a [data] width or range that no network admits names the first role it breaks
    ("teacher", "\nn = 16\n", "\nn = 0\n"),
    # n and num_classes of 1 pass every network but no data set has them
    ("data", "\nn = 16\n", "\nn = 1\n"),
    ("data", "num_classes = 3\n", "num_classes = 1\n"),
    ("generator", "spread = 0.05\n", "spread = 0.05\nvalue_lo = 1.0\n"),
])
def test_cli_invalid_section_value_fails_before_any_stage(tmp_path, capsys, section, old, new):
    path, out = tmp_path / "bad.ini", tmp_path / "run"
    assert TINY_INI.count(old) == 1
    path.write_text(TINY_INI.replace(old, new))
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 1
    assert f"error: [{section}]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_invalid_log_level(tiny_ini_path, monkeypatch, capsys):
    monkeypatch.setenv("MEKD_LOG_LEVEL", "chatty")
    assert main(["train-teacher", "--config", tiny_ini_path]) == 1
    assert "MEKD_LOG_LEVEL" in capsys.readouterr().err


def test_cli_train_teacher_and_outputs(tiny_ini_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train-teacher", "--config", tiny_ini_path, "--out", out])
    assert code == 0
    assert "teacher_test_acc=" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "teacher.ckpt"))


def test_cli_logs_into_the_stderr_of_each_call(tiny_ini_path, tmp_path, monkeypatch):
    # as in a fresh process, the first main() call gives the mekd logger its
    # handler; a later call must not log into the first call's closed stream
    monkeypatch.setattr(logging.getLogger("mekd"), "handlers", [])
    monkeypatch.delenv("MEKD_LOG_LEVEL", raising=False)
    first, second = io.StringIO(), io.StringIO()
    for stream, out in ((first, "a"), (second, "b")):
        with contextlib.redirect_stderr(stream):
            assert main(["train-teacher", "--config", tiny_ini_path,
                         "--out", str(tmp_path / out)]) == 0
        if stream is first:
            assert "teacher: train_acc=" in first.getvalue()
            first.close()
    assert "teacher: train_acc=" in second.getvalue()
    assert "Logging error" not in second.getvalue()


def test_cli_seed_override_changes_artifacts(tiny_ini_path, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train-teacher", "--config", tiny_ini_path, "--out", out_a,
                 "--seed", "1"]) == 0
    assert main(["train-teacher", "--config", tiny_ini_path, "--out", out_b,
                 "--seed", "2"]) == 0
    a = load_ckpt(os.path.join(out_a, "teacher.ckpt"))
    b = load_ckpt(os.path.join(out_b, "teacher.ckpt"))
    assert any(not np.array_equal(a[k], b[k]) for k in a)


def test_cli_distill_without_stages_fails_cleanly(tiny_ini_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["distill", "--config", tiny_ini_path, "--out", out]) == 1
    assert "teacher.ckpt; run train-teacher first" in capsys.readouterr().err


def test_cli_distill_bad_method_flag():
    assert main(["distill", "--config", "x.ini", "--method", "dkd"]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_is_runtime_failure(tmp_path, capsys):
    ini = tmp_path / "diverge.ini"
    ini.write_text(TINY_INI + "\n")
    out = str(tmp_path / "run")
    assert main(["train-teacher", "--config", str(ini), "--out", out]) == 0
    capsys.readouterr()
    # rewrite the GAN block with an unstable setup: huge lr, no clipping
    ini.write_text(TINY_INI.replace("[gan]\nm = 20\nepochs = 6\nmilestones =",
                                    "[gan]\nm = 20\nepochs = 40\nmilestones =\n"
                                    "lr_g = 1000000000000.0\nlr_d = 1000000000000.0\n"
                                    "clip_norm = 0\nmomentum = 0.0"))
    code = main(["train-gan", "--config", str(ini), "--out", out])
    assert code == 2
    assert "runtime failure:" in capsys.readouterr().err
