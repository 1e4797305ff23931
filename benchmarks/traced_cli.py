"""Run telecert.cli.main(argv) in this interpreter under the span tracer.

Usage: python3 benchmarks/traced_cli.py <telecert arguments...>

Prints one JSON line: the exit code main returned (1 for an uncaught
exception, as the console script would exit), the captured stdout and stderr,
the import time of telecert.cli, and the per-layer metrics of the call.
"""
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tracer import Tracer

start = perf_counter()
import telecert.cli  # noqa: E402 - timed import

import_s = perf_counter() - start

tracer = Tracer()
tracer.install()
out, err = io.StringIO(), io.StringIO()
try:
    with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main"):
        try:
            code = telecert.cli.main(sys.argv[1:])
        except Exception:  # noqa: BLE001 - reported like the interpreter would
            traceback.print_exc()
            code = 1
finally:
    tracer.uninstall()
print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "import_s": import_s, "layers": tracer.metrics()}))
