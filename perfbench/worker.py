"""One round of a workload, in a fresh process: import depolcap, run the
round's CLI commands one after another, and print one JSON line.

    python3 perfbench/worker.py '{"src": ..., "commands": [[...], ...], "trace": false}'

The line holds ``ready`` (the ``time.perf_counter`` reading once numpy and
the CLI are imported; the parent subtracts its own reading taken just
before the spawn, and both read the same monotonic clock), ``wall_s`` (the
commands, from the first call until the last report is written),
``cpu_s`` (the same span in process CPU time), ``exit_codes``, ``rss_mb``
(the process's peak resident memory) and, when traced, ``layers``. With no commands it only measures set-up.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy  # noqa: F401  (part of the set-up being timed)
    import depolcap.cli
    ready = time.perf_counter()
    if not os.path.abspath(depolcap.cli.__file__).startswith(spec["src"] + os.sep):
        print(f"depolcap imported from {depolcap.cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    result = {"ready": ready}
    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer, install, layer_metrics
            tracer = Tracer()
            install(tracer)
        codes = []
        start, cpu_start = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["commands"]:
                codes.append(depolcap.cli.main(argv))
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        result["exit_codes"] = codes
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
