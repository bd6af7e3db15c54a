"""One traced cold CLI run, for the ``cli_cold`` traced pass.

Usage: ``python bench/cli_child.py TRACE_JSON <discforge cli arguments>``.
Times the package import, wraps the layer entry points (``tracing.py``),
runs ``discforge.cli.main`` and writes the tracer summary, the import and
``main`` wall times and the first LAPACK call's duration to ``TRACE_JSON``.
The exit code is the CLI's.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    trace_out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import discforge.cli

    import_s = perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    start = perf_counter()
    try:
        return discforge.cli.main(argv)
    finally:
        main_s = perf_counter() - start
        inst.restore()
        trace_out.write_text(json.dumps({
            "summary": tracer.summary(),
            "import_s": import_s,
            "main_s": main_s,
            "first_lapack_s": tracer.first_lapack_s,
        }))


if __name__ == "__main__":
    sys.exit(main())
