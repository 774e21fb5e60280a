"""Run ``repro`` with spans around the server's public calls.

Usage: ``python perfbench/traced_serve.py SPANS.jsonl serve ARGS...``

Installs the serving instrumentation of :mod:`spans`, runs the CLI
in this process, and writes every recorded span to ``SPANS.jsonl``
when the server has drained and returned.
"""

from __future__ import annotations

import sys

from spans import SpanRecorder, instrument_serving


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    instrument_serving(recorder)
    try:
        return repro_main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
