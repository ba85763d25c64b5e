"""Traced stand-in for ``python -m anthyphairesis.cli``.

Usage: ``python bench/cli_launcher.py SRC ARG...``.  Imports the CLI from
SRC (timing the import), installs the tracer, runs ``cli.main(ARGS)``
with its stdout captured, and prints one JSON object: exit code, the
captured output, import time and the tracer's counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import anthyphairesis
    import anthyphairesis.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(anthyphairesis)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            tracer.begin_op(0)
            t1 = time.perf_counter_ns()
            code = cli.main(argv)
            tracer.end_op(time.perf_counter_ns() - t1)
    finally:
        tracer.uninstall()
    out = buf.getvalue()
    print(json.dumps({"code": code, "out": out, "stdout_bytes": len(out.encode()),
                      "import_s": import_s, "counters": tracer.counters()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
