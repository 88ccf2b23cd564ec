"""Traced stand-in for `python -m spherekern ARGS`, used by the traced cli-cold run.

Times the package import as a `cli.import` span, installs the tracer,
runs `cli.main(ARGS)` with the same stdout and exit code, and writes the
spans and aggregates as JSON to the path in BENCH_TRACE_OUT.
"""

import json
import os
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    frame = tracer.enter("cli.import", "cli")
    import spherekern
    import spherekern.cli
    tracer.leave(frame)
    tracer.install(spherekern)
    tracer.start()
    try:
        code = spherekern.cli.main(sys.argv[1:])
    finally:
        tracer.stop()
        doc = {"aggregates": tracer.aggregates(), "names": tracer.names,
               "spans": [s for s in tracer.spans if s is not None]}
        Path(os.environ["BENCH_TRACE_OUT"]).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
