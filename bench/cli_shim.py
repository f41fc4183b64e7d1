"""Run one ``nilzeta`` CLI request with the tracing probes installed.

    python3 bench/cli_shim.py SPANS_PATH REQUEST_ID SPAWN_TIME -- ARGS...

Used by traced ``cli_mix`` runs in place of ``python3 -m nilzeta.cli``.
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``spawn_import_s`` covers interpreter start, imports and probe
installation.  Spans are written to SPANS_PATH when the request ends.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

import nilzeta.cli  # noqa: E402


def main():
    spans_path, request, spawned, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 64
    tracer = Tracer()
    tracer.request = int(request)
    tracer.install()
    spawn_import_s = time.monotonic() - float(spawned)
    try:
        return nilzeta.cli.main(argv)
    finally:
        tracer.dump(spans_path, spawn_import_s=spawn_import_s)


if __name__ == "__main__":
    sys.exit(main())
