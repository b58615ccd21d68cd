"""One ``torsob`` CLI call under the benchmark's span wrappers.

    python3 -X importtime perfbench/cli_child.py SPAN_FILE ARG...

runs ``torsob.cli.main(ARG...)`` and writes the call's spans and counts to
SPAN_FILE, also when the call raises.  The exit code and the streams are
those of the CLI.  Only the traced ``cli`` workload starts this script.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> None:
    span_file, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import torsob.cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, cli=True)
    code = 1
    try:
        code = torsob.cli.main(argv)
    finally:
        group = tracer.take()
        group["maxima"]["lattice.shells.peak_mb"] = spans.shell_peak_mb(tracer)
        group["values"] = {"cli.import.s": import_s}
        span_file.write_text(json.dumps(group))
    sys.exit(code)


if __name__ == "__main__":
    main()
