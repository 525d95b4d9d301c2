"""Child process of the benchmark: one ``corridorcov`` CLI run.

    python3 perfbench/launch.py STAMP TRACE [CLI ARGS...]

Imports ``corridorcov.cli`` from ``src/`` and writes ``time.monotonic()``
to STAMP, so the parent can time set-up from its own launch clock. With no
CLI arguments it stops there (a set-up probe). Otherwise it runs
``corridorcov.cli.main`` on the arguments and exits with its code. If TRACE
is not ``-``, every public callable of the package is traced during the run
and the stats are written to TRACE as JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import corridorcov.cli  # noqa: E402

imported_at = time.monotonic()


def main(argv: list[str]) -> int:
    stamp, trace_path, cli_args = argv[0], argv[1], argv[2:]
    with open(stamp, "w", encoding="ascii") as fh:
        fh.write(repr(imported_at))
    if not cli_args:
        return 0
    if trace_path == "-":
        return corridorcov.cli.main(cli_args)

    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        # main is looked up after install, so the call itself is traced.
        return corridorcov.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
