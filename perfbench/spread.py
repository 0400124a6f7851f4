"""Run one workload on several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload gan-blobs --seeds 1-10
    python3 perfbench/spread.py --workload gan-blobs --seeds 3,3 --trace 1

Each run is a separate process, one after another, measuring for
``run_seconds`` of BENCHMARK.json.  For every metric the report gives the
median and (Q3 - Q1) / median over the runs, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound in BENCHMARK.json.  The exit code is 1 when a spread
exceeds its bound, except that of ``setup_s``: the acceptance rule for the
benchmark bounds only the drift of the set-up time's median, not its
spread.  The script also checks that each run printed exactly the metrics
BENCHMARK.json names, and that runs of the same seed printed the same
output fingerprint.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    fingerprint = next((json.loads(line)["digest"] for line in lines
                        if line.startswith('{"fingerprint"')), None)
    return {"seed": seed, "result": result, "digest": fingerprint}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,4")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"]

    ok = True
    runs = []
    for seed in _seeds(args.seeds):
        run = run_once(args.workload, seed, seconds, args.trace)
        result = run["result"]
        names = set(result["metrics"])
        if names != {m["name"] for m in declared}:
            ok = False
            print(f"seed {seed}: metric names differ from BENCHMARK.json: "
                  f"{sorted(names ^ {m['name'] for m in declared})}")
        if not result["correct"]:
            ok = False
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          "digest": run["digest"],
                          **{k: v["value"] for k, v in result["metrics"].items()
                             if not args.trace}}), flush=True)
        runs.append(run)

    by_seed: dict[int, set] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], set()).add(run["digest"])
    for seed, digests in by_seed.items():
        if len(digests) > 1:
            ok = False
            print(f"seed {seed}: runs printed different output fingerprints {sorted(digests)}")

    if len(runs) >= 2 and not args.trace:
        for metric in declared:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
            spread = quartile_spread(values)
            print(f"{metric['name']:>20}: median {statistics.median(values):.6g} "
                  f"{metric['unit']}, spread {spread:.3f} (bound {metric['bound']}, "
                  f"third {metric['bound'] / 3:.3f})")
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
