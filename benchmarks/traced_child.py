"""Run one CLI command under the span tracer (traced ``cli_cold`` ops).

Usage: python traced_child.py SPAWNED SPANS_PATH ARGV...

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so the gap to this script's first statement is interpreter start.
The report goes to standard output as usual; start costs, spans and counts
go to SPANS_PATH as JSON.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawned, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    began = time.perf_counter()
    import numpy  # noqa: F401  (timed apart: the package pulls it in)

    numpy_done = time.perf_counter()
    from coopetition import cli

    import_s = time.perf_counter() - numpy_done
    numpy_s = numpy_done - began
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = tracer.run_op(0, lambda: cli.main(argv))
    record = {
        "start": {
            "cli.interpreter_ms": 1000 * (STARTED - spawned),
            "cli.import_ms": 1000 * import_s,
            "cli.numpy_import_ms": 1000 * numpy_s,
        },
        "spans": tracer.finish(),
        "counts": dict(tracer.counts),
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
