"""Run a program module under the benchmark's span wrappers.

Usage::

    python3 perfbench/launch.py SPANS_PATH MODULE [ARGS...]

installs :mod:`tracer`'s wrappers, runs ``python -m MODULE ARGS...`` in
this process, and writes the recorded spans to ``SPANS_PATH`` when the
module's entry point returns (a SIGTERM ends it the same way).  The
traced service and distributed-worker processes are started through it.
"""

from __future__ import annotations

import os
import runpy
import signal
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer  # noqa: E402  (needs the program on sys.path first)


def main() -> None:
    spans_path, module = sys.argv[1], sys.argv[2]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    # A module that installs its own handlers (the service drains on
    # SIGTERM) replaces this one; for the rest, SIGTERM unwinds normally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.argv = [module] + sys.argv[3:]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    main()
