"""Command line interface: ``xtalk <scenario> --config <path> [options]``.

Exit codes: 0 on success, 2 on configuration errors (including any
``ValueError``, ``OverflowError``, ``OSError`` or ``MemoryError`` raised
while loading, running or writing the CSV, the last from a scan too large
to hold), 3 on numerical failures; an error prints one
``stderr`` line.  The environment variable ``XTALK_SEED`` overrides the
built-in default seed; an explicit ``--seed`` flag wins over everything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import ConfigError, NumericalFailureError, XtalkError
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xtalk",
        description="Crosstalk cancellation scenario runner; emits CSV scan data.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--shots", type=int, default=None,
                        help="override the shot count; an error where the scenario draws no shots")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    return parser


def _default_seed() -> int:
    env = os.environ.get("XTALK_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"XTALK_SEED must be an integer, got {env!r}") from exc


def load_config(path: str, args: argparse.Namespace) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    flags = {"scenario": args.scenario, "seed": args.seed, "shots": args.shots, "out": args.out}
    doc = {"seed": _default_seed(), **doc, **{k: v for k, v in flags.items() if v is not None}}
    return ScenarioConfig.from_dict(doc)


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a failed run reports one line; the warnings it raised on the way are dropped
    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg = load_config(args.config, args)
            result = run_scenario(cfg)
            if cfg.out:
                result.write_csv(cfg.out)
            else:
                sys.stdout.write(result.to_csv())
        except NumericalFailureError as exc:
            print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (XtalkError, ValueError, OverflowError, OSError, MemoryError) as exc:
            # numpy's MemoryError names the allocation; Python's may say nothing
            print(f"config error: {_one_line(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_CONFIG
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
