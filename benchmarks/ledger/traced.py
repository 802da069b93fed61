"""Run a ``repro`` CLI command with the layer wrappers installed.

    python3 traced.py PREFIX serve SUMMARY --port 0 ...

is ``python -m repro serve SUMMARY --port 0 ...`` with every entry point
in ``tracer.PATCHES`` timed; on exit the spans and the per-name totals
are written to ``PREFIX.spans.jsonl`` and ``PREFIX.summary.json``.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main(argv) -> int:
    prefix, command = argv[0], argv[1:]
    recorder = tracing.Tracer()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        recorder.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
