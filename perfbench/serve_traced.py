"""Start ``repro serve`` with the service layers' timing wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT [serve options...]``.
The wrappers go in before the CLI builds the service; when the server has
drained (SIGINT/SIGTERM), the recorded spans are written to SPANS_OUT.
"""

from __future__ import annotations

import sys

import layers
from spans import SpanRecorder


def main(argv: "list[str]") -> int:
    spans_out, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder(f"policy-service-serve-{spans_out}")
    layers.wrap_service_layers(recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(["serve", *serve_args])
    finally:
        recorder.unwrap_all()
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
