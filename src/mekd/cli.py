"""Command-line entry point.

Subcommands: train-teacher, train-gan, distill, ablate-fid, eval,
gradcheck, grad-profile.  Exit codes: 0 success, 1 validation error
(bad config/flags/inputs), 2 runtime failure.  MEKD_LOG_LEVEL selects
error/info/debug logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import harness
from .config import ConfigError, RunConfig
from .gradcheck import run_op_suite

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    name = os.environ.get("MEKD_LOG_LEVEL", "info").lower()
    if name not in LOG_LEVELS:
        raise ConfigError(
            f"MEKD_LOG_LEVEL must be one of {sorted(LOG_LEVELS)}, got {name!r}")
    logger = logging.getLogger("mekd")
    logger.setLevel(LOG_LEVELS[name])
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mekd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out_dir")
        return p

    experiment("train-teacher", "supervised pre-training of the teacher")
    experiment("train-gan", "stage 1: train the generator against real data")
    p = experiment("distill", "stage 2: train the student from the blind teacher")
    p.add_argument("--method", choices=("mekd", "kd"), default="mekd")
    experiment("ablate-fid", "distill once per generator snapshot, sorted by FID")
    experiment("eval", "report accuracies from checkpoints and the FID train-gan recorded")
    p = experiment("grad-profile", "export logit-gradient profiles per loss")
    p.add_argument("--samples", type=int, default=8)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--trials", type=int, default=20, help="randomized shapes per op")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args) -> tuple[RunConfig, str]:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg = cfg.replace("run", "seed", args.seed)
    out_dir = args.out if args.out is not None else cfg.get("run", "out_dir")
    cfg = cfg.replace("run", "out_dir", out_dir)
    return cfg, out_dir


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        _setup_logging()
        if args.command == "gradcheck":
            run_op_suite(shapes_per_op=args.trials, tol=args.tol, seed=args.seed,
                         report=print)
            print("gradcheck ok")
            return 0

        cfg, out_dir = _load_config(args)
        if args.command == "train-teacher":
            summary = harness.run_train_teacher(cfg, out_dir)
            print(f"teacher_test_acc={summary['teacher_test_acc']}")
        elif args.command == "train-gan":
            summary = harness.run_train_gan(cfg, out_dir)
            print(f"gen_fid={summary['gen_fid']}")
        elif args.command == "distill":
            summary = harness.run_distill(cfg, out_dir, args.method)
            print(f"method={args.method} teacher_acc={summary['teacher_acc']} "
                  f"student_acc={summary['student_acc']}")
        elif args.command == "ablate-fid":
            rows = harness.run_ablation_fid(cfg, out_dir)
            for row in rows:
                print(f"gen_fid={row['gen_fid']} gan_epoch={row['gan_epoch']} "
                      f"student_acc={row['student_acc']}")
        elif args.command == "eval":
            for key, value in harness.run_eval(cfg, out_dir).items():
                print(f"{key}={value}")
        elif args.command == "grad-profile":
            rows = harness.run_grad_profile(cfg, out_dir, samples=args.samples)
            print(f"wrote {len(rows)} gradient profiles")
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # training divergence, IO failures, ...
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
