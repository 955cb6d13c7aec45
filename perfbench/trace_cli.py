"""Run the threshmatch CLI in this process with the benchmark's span wrappers installed.

    python3 perfbench/trace_cli.py SPANS_OUT CLI_ARG...

Times the import of ``threshmatch.cli``, installs the wrappers, calls
``threshmatch.cli.main(CLI_ARG...)`` and writes the spans to SPANS_OUT.
The CLI's stdout and exit code pass through unchanged.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    import threshmatch.cli

    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return threshmatch.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
