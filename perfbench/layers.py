"""Which public functions of each mekd module the benchmark wraps, and what it reads from them.

Two levels:

* probes, on in every run: a span around each training loop
  (``train_teacher``, ``train_gan``, ``distill``; each includes its per-epoch
  accuracy evaluation, and ``train_gan`` its snapshot checkpoints, but not
  the final FID or ``run_eval``), a span around each ``run_gan_epoch``, the
  time between ``distill`` epochs from its ``epoch_callback`` hook, and the
  label audit, which counts every dataset built and every accuracy call.
  These run a few hundred times per job, so the epoch times they give are
  those of untraced jobs.
* tracing, on only with ``--trace 1``: spans around every autodiff op,
  network forward pass, loss, optimizer step, teacher query, metric,
  checkpoint and data call, which give the per-layer metrics.
"""

from __future__ import annotations

import importlib
import os

from stats import tail_summary

# Every op the pipeline's graphs use; the per-layer metrics name each one.
OPS = ("matmul", "add", "mul", "transpose", "reshape", "relu", "leaky_relu", "tanh",
       "sigmoid", "softmax", "log", "sqrt", "square", "absolute", "clip",
       "reduce_sum", "reduce_mean")
ROLES = ("classifier", "generator", "discriminator")
HARNESS_STAGES = {"teacher": "run_train_teacher", "gan": "run_train_gan",
                  "eval": "run_eval"}


class LabelAudit:
    """Checks from outside that every label read comes from an accuracy call.

    Datasets are grouped by the stage that built them.  The teacher's
    supervised pre-training reads its training labels once per stage, so
    that stage is allowed exactly one read beyond its accuracy calls; every
    other dataset must show as many label reads as accuracy calls on it.
    """

    def __init__(self):
        self.stage = "setup"
        self._datasets: list[tuple[str, object]] = []
        self._accuracy_calls: dict[int, int] = {}

    def reset(self) -> None:
        self._datasets.clear()
        self._accuracy_calls.clear()

    def on_dataset(self, ds) -> None:
        self._datasets.append((self.stage, ds))

    def on_accuracy(self, ds) -> None:
        self._accuracy_calls[id(ds)] = self._accuracy_calls.get(id(ds), 0) + 1

    def label_reads(self) -> int:
        return sum(ds.label_reads for _, ds in self._datasets)

    def problems(self) -> list[str]:
        found = []
        teacher_reads = teacher_calls = 0
        for stage, ds in self._datasets:
            calls = self._accuracy_calls.get(id(ds), 0)
            if stage == "teacher":
                teacher_reads += ds.label_reads
                teacher_calls += calls
            elif ds.label_reads != calls:
                found.append(f"stage {stage}: dataset of {len(ds)} rows had "
                             f"{ds.label_reads} label reads but {calls} accuracy calls")
        if any(stage == "teacher" for stage, _ in self._datasets) \
                and teacher_reads != teacher_calls + 1:
            found.append(f"stage teacher: {teacher_reads} label reads for "
                         f"{teacher_calls} accuracy calls plus one supervised read")
        return found


def install_probes(tracer, audit: LabelAudit, distill_epoch_ms: list[float]) -> None:
    """Wrap the always-on probes; ``distill_epoch_ms`` gets each distill epoch's time."""
    tracer.trace_function("mekd.harness", "train_teacher", "loop.teacher")
    tracer.trace_function("mekd.gan", "train_gan", "loop.gan")
    tracer.trace_function("mekd.distill", "distill", "loop.distill")
    tracer.trace_function("mekd.gan", "run_gan_epoch", "gan.epoch")

    def time_epochs(fn):
        clock = tracer.clock

        def run(*args, epoch_callback=None, **kwargs):
            last = [clock()]

            def on_epoch(epoch, *rest):
                now = clock()
                distill_epoch_ms.append((now - last[0]) * 1e3)
                last[0] = now
                if epoch_callback is not None:
                    epoch_callback(epoch, *rest)
            return fn(*args, epoch_callback=on_epoch, **kwargs)
        return run
    tracer.patch_function("mekd.distill", "distill", time_epochs)

    def count_accuracy(fn):
        def accuracy(net, ds, *args, **kwargs):
            audit.on_accuracy(ds)
            return fn(net, ds, *args, **kwargs)
        return accuracy

    def register_dataset(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            audit.on_dataset(self)
        return __init__

    tracer.patch_function("mekd.metrics", "accuracy", count_accuracy)
    tracer.patch_method(importlib.import_module("mekd.data").Dataset, "__init__",
                        register_dataset)


def install_tracing(tracer) -> None:
    autodiff = importlib.import_module("mekd.autodiff")
    nets = importlib.import_module("mekd.nets")
    distill = importlib.import_module("mekd.distill")
    optim = importlib.import_module("mekd.optim")

    for stage, fn in HARNESS_STAGES.items():
        tracer.trace_function("mekd.harness", fn, f"harness.{stage}")
    tracer.trace_function(
        "mekd.harness", "run_distill",
        lambda a, k: f"harness.distill_{k.get('method', a[2] if len(a) > 2 else '')}")

    for op in OPS:
        tracer.trace_function("mekd.autodiff", op, f"autodiff.{op}")
    tracer.trace_method(autodiff.Tensor, "backward", "autodiff.backward")

    def role(args, _kwargs):
        return f"nets.forward.{args[0].spec.role}"
    tracer.trace_method(nets.Network, "__call__", role)
    tracer.trace_method(nets.Network, "logits", role)

    for fn in ("wgan_discriminator_loss", "discriminator_loss"):
        tracer.trace_function("mekd.gan", fn, "gan.critic_loss")
    for fn in ("wgan_generator_loss", "generator_loss"):
        tracer.trace_function("mekd.gan", fn, "gan.gen_loss")
    tracer.trace_function("mekd.gan", "gradient_penalty", "gan.gp")

    tracer.trace_method(optim.SGD, "step", "optim.step")

    def count_teacher(fn):
        def classify(self, x):
            queries, hits = self.query_count, self.cache_hits
            out = fn(self, x)
            tracer.count("distill.teacher_rows", 1 if out.ndim == 1 else len(out))
            tracer.count("distill.teacher_queries", self.query_count - queries)
            tracer.count("distill.cache_hits", self.cache_hits - hits)
            return out
        return tracer.span(classify, "distill.teacher")
    tracer.patch_method(distill.BlindTeacher, "classify", count_teacher)
    tracer.trace_function("mekd.distill", "generation_distance", "distill.generation_distance")
    tracer.trace_function("mekd.distill", "kld_loss", "distill.kld")

    tracer.trace_function("mekd.metrics", "frechet_distance", "metrics.frechet")
    tracer.trace_function("mekd.metrics", "accuracy", "metrics.accuracy")

    def count_bytes(fn):
        def save(path, params):
            fn(path, params)
            tracer.count("checkpoint.bytes_written", os.path.getsize(path))
        return tracer.span(save, "checkpoint.save")
    tracer.patch_function("mekd.checkpoint", "save", count_bytes)
    tracer.trace_function("mekd.checkpoint", "load", "checkpoint.load")

    tracer.trace_function("mekd.data", "synth_blobs", "data.synth")
    tracer.trace_function("mekd.data", "batches", "data.batches")


def per_layer_metrics(summary: dict, counters: dict, label_reads: int) -> dict[str, float]:
    """The per-layer metrics of one traced job, by name."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out: dict[str, float] = {}
    for stage in ("teacher", "gan", "distill_mekd", "distill_kd", "eval"):
        out[f"harness.{stage}_s"] = total(f"harness.{stage}")
    for op in OPS:
        out[f"autodiff.calls.{op}"] = calls(f"autodiff.{op}")
        out[f"autodiff.self_s.{op}"] = summary.get(f"autodiff.{op}", {}).get("self_s", 0.0)
    out["autodiff.backward_s"] = total("autodiff.backward")
    out["autodiff.backward_calls"] = calls("autodiff.backward")
    for role in ROLES:
        out[f"nets.forward_s.{role}"] = total(f"nets.forward.{role}")
        out[f"nets.forward_calls.{role}"] = calls(f"nets.forward.{role}")
    out["gan.critic_loss_s"] = total("gan.critic_loss")
    out["gan.gp_s"] = total("gan.gp")
    out["gan.gen_loss_s"] = total("gan.gen_loss")
    out["optim.step_s"] = total("optim.step")
    out["optim.steps"] = calls("optim.step")
    rows = counters.get("distill.teacher_rows", 0)
    out["distill.teacher_s"] = total("distill.teacher")
    out["distill.teacher_rows"] = rows
    out["distill.teacher_queries"] = counters.get("distill.teacher_queries", 0)
    out["distill.cache_hit_ratio"] = counters.get("distill.cache_hits", 0) / rows if rows else 0.0
    out["distill.generation_distance_s"] = total("distill.generation_distance")
    out["distill.kld_s"] = total("distill.kld")
    out["metrics.frechet_s"] = total("metrics.frechet")
    out["metrics.frechet_calls"] = calls("metrics.frechet")
    out["metrics.accuracy_s"] = total("metrics.accuracy")
    out["metrics.accuracy_calls"] = calls("metrics.accuracy")
    out["checkpoint.save_s"] = total("checkpoint.save")
    out["checkpoint.load_s"] = total("checkpoint.load")
    out["checkpoint.bytes_written"] = counters.get("checkpoint.bytes_written", 0)
    out["data.synth_s"] = total("data.synth")
    out["data.batches_s"] = total("data.batches")
    out["data.label_reads"] = label_reads
    return out


def epoch_metrics(prefix: str, epoch_ms: list[float]) -> dict[str, float]:
    tail = tail_summary(epoch_ms)
    return {f"{prefix}.epoch_ms_p50": tail["p50"], f"{prefix}.epoch_ms_ptop": tail["ptop"],
            f"{prefix}.epoch_ms_ptop_pct": tail["ptop_pct"],
            f"{prefix}.epoch_samples": tail["samples"]}
