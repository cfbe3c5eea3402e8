"""Run the xtalk CLI once under the outside-in tracer.

    python3 -X importtime perfbench/trace_child.py <trace.json> <xtalk CLI arguments>

Imports the package first (so ``-X importtime`` reports it), patches the
traced functions, calls ``xtalk.cli.main`` and writes the span aggregates to
``trace.json``.  The exit code is the CLI's.
"""

import sys

import xtalk.cli  # first, so that -X importtime sees the package import on its own

import json
from pathlib import Path

from tracer import Tracer


def main() -> int:
    src = (Path(__file__).resolve().parents[1] / "src").resolve()
    if src not in Path(xtalk.__file__).resolve().parents:
        raise SystemExit(f"xtalk imported from {xtalk.__file__}, not from {src}")
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = xtalk.cli.main(argv)
    finally:
        rec = tracer.end_unit()
        tracer.uninstall()
        Path(trace_file).write_text(json.dumps(rec), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
