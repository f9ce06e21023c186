"""One cold CLI command, as a user would run ``faberbohr ...``.

Usage: python3 perfbench/child.py READY_FILE SPAN_FILE OP -- CLI_ARGS...

Either file may be given as ``-`` to skip it.  The moment ``faberbohr.cli`` has been imported is written to READY_FILE
(``time.perf_counter``, which is the system-wide monotonic clock on
Linux, so the parent can subtract its own spawn time).  When SPAN_FILE
is not ``-`` every layer function is traced and the spans are written
there at exit.  The exit code is the CLI's own.
"""

import sys
import time


def main() -> int:
    ready_file, span_file, op, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py READY_FILE SPAN_FILE OP -- ARGS...")
    import faberbohr.cli

    ready = time.perf_counter()
    tracer = None
    if span_file != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.op = op
        tracer.install()
    try:
        return faberbohr.cli.main(sys.argv[5:])
    finally:
        sys.stdout.flush()
        if ready_file != "-":
            with open(ready_file, "w") as fh:
                fh.write(repr(ready))
        if tracer is not None:
            tracer.uninstall()
            tracer.write(span_file)


if __name__ == "__main__":
    sys.exit(main())
