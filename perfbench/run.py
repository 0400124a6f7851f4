"""Run one benchmark workload of mekd and print its metrics.

    python3 perfbench/run.py --workload gan-blobs --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``.  The run sets up several times, then repeats the workload's job
until ``--seconds`` would be exceeded, checks every job's outputs, and
prints, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one job
untraced, then traced jobs, and reports the per-layer metrics; the spans of
the traced jobs are written to ``.perfbench_out/trace-<workload>.npz``.
Before the result line the run prints its metadata and the fingerprint of
its outputs, each as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# One BLAS thread: the matmuls are small, and a second thread only spins
# (CPU time doubled with no gain in wall time).  Both sides of any
# comparison use this same value.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
LOOP_SPANS = ("loop.teacher", "loop.gan", "loop.distill")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json at the root of the checkout declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _import_time() -> float:
    """Seconds to import numpy and mekd in a fresh interpreter.

    An import happens once per process, so set-up time samples its cost in
    child processes, one at a time, spread over the run: before each
    set-up and after each untraced job.  A slow phase of the host then
    moves a few samples, not the median.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, mekd.harness; print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _metadata(args, import_s: float) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"workload": args.workload, "seed": args.seed, "git_commit": _git_commit(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "src_lines": src_lines, "import_s": import_s, "setup_reps": SETUP_REPS}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "mekd" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'mekd'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    harness = importlib.import_module("mekd.harness")
    import_s = time.perf_counter() - t0
    if not Path(harness.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: mekd was imported from {harness.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(json.dumps({"meta": _metadata(args, import_s)}), flush=True)
    units = _declared_units()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    probes, tracer = Tracer(), Tracer()
    audit = layers.LabelAudit()
    distill_epoch_ms: list[float] = []
    layers.install_probes(probes, audit, distill_epoch_ms)
    try:
        result = _run(args, harness, workloads, layers, probes, tracer, audit,
                      distill_epoch_ms, run_dir)
    finally:
        tracer.restore()
        probes.restore()
        shutil.rmtree(run_dir, ignore_errors=True)
    undeclared = sorted(set(result["metrics"]) - set(units))
    if undeclared:
        print(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _run(args, harness, workloads, layers, probes, tracer, audit,
         distill_epoch_ms: list[float], run_dir: Path) -> dict:
    """Set up, repeat the job until the time is used, check and summarize.

    With tracing, jobs alternate untraced and traced, so the tracing
    overhead compares jobs that ran under the same host conditions.  Epoch
    times and steps per second come from the untraced jobs only.
    """
    from stats import fingerprint_diff

    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    expected = workloads.expected_counts(cfg, workload, harness)
    problems: list[str] = []
    attempted = failed = 0

    setup_times = []
    import_times = []     # only the untraced run reports set-up time
    setup_prints = []
    for rep in range(SETUP_REPS):
        if not args.trace:
            import_times.append(_import_time())
        audit.reset()
        attempted += 1
        out_dir = run_dir / f"setup{rep}"
        try:
            setup_times.append(workloads.set_up(cfg, workload, harness, str(out_dir), audit))
        except Exception:  # the program failed: report it, measure nothing more
            traceback.print_exc(file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": failed + 1,
                    "metrics": {}}
        setup_prints.append(workloads.checkpoint_hashes(str(out_dir)))
        found = audit.problems()
        if rep and (diff := fingerprint_diff(setup_prints[0], setup_prints[-1])):
            found.append(f"set-up outputs differ from the first set-up's: {diff}")
        if found:
            failed += 1
            problems.extend(f"setup{rep}: {p}" for p in found)
    setup_dir = str(run_dir / "setup0") if workload.setup_stages else None

    untraced: list = []   # (JobResult, seconds in each training loop)
    traced: list = []     # (JobResult, per-layer metrics)
    gan_epoch_ms: list[float] = []
    first_print = None
    t_region = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(untraced) > len(traced)
        audit.reset()
        tracer.counters.clear()
        probe_mark, trace_mark = probes.mark(), tracer.mark()
        epoch_mark = len(distill_epoch_ms)
        job_dir = str(run_dir / f"job{len(untraced) + len(traced)}")
        attempted += 1
        if tracing:
            layers.install_tracing(tracer)
        try:
            job = workloads.run_job(cfg, workload, harness, job_dir, setup_dir, audit)
        except Exception:  # the program failed: count it and stop repeating
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        finally:
            tracer.restore()
        workloads.check_job(job, workload, expected, job_dir, audit)
        shutil.rmtree(job_dir, ignore_errors=True)
        first_print = first_print or job.fingerprint
        if diff := fingerprint_diff(first_print, job.fingerprint):
            job.problems.append(f"outputs differ from the first job's: {diff}")
        if job.problems:
            failed += 1
            problems.extend(job.problems)
        if tracing:
            traced.append((job, layers.per_layer_metrics(
                tracer.summary(since=trace_mark), tracer.counters, audit.label_reads())))
            del distill_epoch_ms[epoch_mark:]
        else:
            gan_epoch_ms.extend(d * 1e3 for d in probes.durations("gan.epoch", since=probe_mark))
            summary = probes.summary(since=probe_mark)
            untraced.append((job, {name: summary.get(name, {}).get("total_s", 0.0)
                                   for name in LOOP_SPANS}))
            if not args.trace:
                import_times.append(_import_time())
        print(f"perfbench: job {'traced' if tracing else 'untraced'} wall {job.wall_s:.3f} s "
              f"cpu {job.cpu_s:.3f} s stages "
              f"{ {k: round(v, 3) for k, v in job.stage_s.items()} }", file=sys.stderr)
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - t_region
        if elapsed + elapsed / done > args.seconds and (
                not args.trace or len(traced) == len(untraced)):
            break

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    digest = hashlib.sha256(json.dumps(first_print, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"fingerprint": first_print, "digest": digest}), flush=True)

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    def per_second(steps, loops=LOOP_SPANS):
        seconds = sum(loop_s[name] for _, loop_s in untraced for name in loops)
        return steps * len(untraced) / seconds if seconds else 0.0

    # Totals over the jobs divided by their count: a mean, which averages
    # over the host's speed phases better than a median of a few jobs.
    run_s = mean(job.wall_s for job, _ in untraced)
    if args.trace:
        metrics = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
        metrics.update(layers.epoch_metrics("gan", gan_epoch_ms))
        metrics.update(layers.epoch_metrics("distill", distill_epoch_ms))
        metrics["gan.steps_per_s"] = per_second(expected.steps.get("gan", 0), ("loop.gan",))
        metrics["distill.steps_per_s"] = per_second(
            expected.steps.get("mekd", 0) + expected.steps.get("kd", 0), ("loop.distill",))
        quality = untraced[0][0].quality
        for key in ("gen_fid", "teacher_acc", "student_acc_mekd", "student_acc_kd"):
            metrics[f"metrics.{key}"] = float(quality.get(key, 0.0))
        traced_s = mean(job.wall_s for job, _ in traced)
        metrics["trace.run_s"] = traced_s
        metrics["trace.untraced_run_s"] = run_s
        metrics["trace.overhead_s"] = traced_s - run_s
        metrics["trace.overhead_frac"] = (traced_s - run_s) / run_s
        metrics["trace.spans"] = len(tracer.start) / len(traced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "run_s": run_s,
            "cpu_s": mean(job.cpu_s for job, _ in untraced),
            "train_steps_per_s": per_second(sum(expected.steps.values())),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
