"""Command-line entry point.

Exit codes: 0 success, 1 validation error (bad config/flags/inputs), 2
runtime failure.  MEKD_LOG_LEVEL selects error/info/debug logging.
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


class _StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is at each record, not as the first main() found it."""
    stream = property(lambda self: sys.stderr, lambda self, _stream: None)


def _setup_logging() -> None:
    name = os.environ.get("MEKD_LOG_LEVEL", "info").lower()
    if name not in LOG_LEVELS:
        raise ConfigError(f"MEKD_LOG_LEVEL must be one of {sorted(LOG_LEVELS)}, got {name!r}")
    logger = logging.getLogger("mekd")
    logger.setLevel(LOG_LEVELS[name])
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mekd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, stage in harness.STAGES.items():
        p = sub.add_parser(command, help=stage.help)
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out_dir")
        for dest, kwargs in stage.flags.items():
            p.add_argument(f"--{dest}", **kwargs)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--trials", type=int, default=20, help="randomized shapes per op")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        _setup_logging()
        if args.command == "gradcheck":
            run_op_suite(shapes_per_op=args.trials, tol=args.tol, seed=args.seed, report=print)
            print("gradcheck ok")
            return 0

        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            cfg = cfg.replace("run", "seed", args.seed)
        out_dir = args.out if args.out is not None else cfg.get("run", "out_dir")
        cfg = cfg.replace("run", "out_dir", out_dir)
        stage = harness.STAGES[args.command]
        result = stage.run(cfg, out_dir, *(getattr(args, dest) for dest in stage.flags))
        for line in stage.show(result):
            print(line)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # training divergence, IO failures, ...
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
