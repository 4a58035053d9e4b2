"""Run one `ver4forms.cli` command under the span tracer.

usage: python perfbench/cli_child.py SUMMARY_JSON [cli arguments...]

Times `import ver4forms.cli` before anything is patched, then runs
`cli.main` with every traced function wrapped, and writes the span summary
plus the import time to SUMMARY_JSON.  stdout, stderr and the exit code are
the CLI's own.  `ver4forms` must be importable (PYTHONPATH=src).
"""

import json
import sys
import time

t0 = time.perf_counter()
import ver4forms.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    op = "op.canonicalize" if "canonicalize" in argv else "op.cli"
    with tracer.installed():
        with tracer.span(op):
            rc = sys.modules["ver4forms.cli"].main(argv)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
