"""One pass of a request stream in a fresh interpreter: the client side of the
closed loop.

    python3 worker.py <checkout root> <stream.json> <results.json> <trace 0|1>

The stream file holds a list of argv lists.  Each request is timed around
``xnalg.cli.run_command`` alone; with tracing on, the spans of the request are
folded after its clock stops.  The results file gets the resolved
``xnalg.__file__``, the peak resident set size and, per request, the exit
status (-1 when an exception escaped ``run_command``), the latency in seconds
and the output text.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(root, stream_path, results_path, trace):
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import xnalg
    import xnalg.cli

    where = Path(xnalg.__file__).resolve()
    if src not in where.parents:
        print(f"xnalg resolves to {where}, outside {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(stream_path, encoding="utf-8") as handle:
        argvs = json.load(handle)
    clock = time.perf_counter
    responses = []
    for argv in argvs:
        t0 = clock()
        try:
            result = xnalg.cli.run_command(argv)
            status, text = result.status, result.text
        except Exception:  # an escaped exception fails this request, not the run
            status, text = -1, traceback.format_exc()
        elapsed = clock() - t0
        responses.append([status, elapsed, text])
        if tracer is not None:
            tracer.end_request()
    out = {
        "xnalg_file": str(where),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "responses": responses,
        "layers": None if tracer is None else tracer.metrics(),
    }
    tmp = results_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    os.replace(tmp, results_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"))
