"""``repro serve`` with every layer's public entry point traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py SPANS.json serve --bundle B.json ...

Installs the span wrappers of :func:`tracing.install_server_patches`,
then runs the ordinary ``repro serve`` command line in this process.
When the server drains after an authorized shutdown frame, the recorded
spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import Patches, SpanRecorder, install_server_patches


def main(argv) -> int:
    spans_out, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_server_patches(Patches(recorder))
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
