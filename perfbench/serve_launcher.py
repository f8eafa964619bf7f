"""Run ``repro serve`` with the benchmark's serve probes installed.

Traced serve runs only.  Usage::

    python perfbench/serve_launcher.py --spans SPANS.json serve --checkpoint ...

It installs the timing wrappers from :mod:`probes`, calls the CLI entry
point with the remaining arguments, and writes every span and counter to
``SPANS.json`` when the server exits (SIGTERM drains it as usual).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from probes import Probes  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_launcher.py --spans PATH serve ...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    recorder = SpanRecorder()
    Probes(recorder).install_serve()
    from repro.cli.main import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [asdict(span) for span in recorder.spans],
                    "counters": recorder.counters,
                },
                handle,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
