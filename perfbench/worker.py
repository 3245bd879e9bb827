"""One round of a workload, run in a fresh interpreter by `run.py`.

    python3 perfbench/worker.py <start> <spec.json> <result.json>

<start> is the parent's `time.monotonic()` just before it launched this
process, so `setup_s` runs from interpreter start until `cmtgraphs` and
`cmtgraphs.cli` are imported.  The spec lists the argv of each command (an
empty list only measures set-up) and, for a traced round, the file the
spans go to.  Commands run one after another, each
`cmtgraphs.cli.main(argv)` call starting after the previous one returned.
The result file gets, per command, the exit code, the parsed JSON report
(or the exception) and the latency, plus the round's wall time and peak RSS.

Untraced rounds run under a `speed.SpeedMeter`; its samples are taken out
of every latency and of the wall time, and are reported with each
command's start and end on the same clock.  `setup_reference_s` is the
mean of a few samples taken right after the imports.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import cmtgraphs  # noqa: E402
import cmtgraphs.cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from speed import SpeedMeter, reference  # noqa: E402

SETUP_REFERENCE_S = sum(reference() for _ in range(10)) / 10


def run_command(argv: list[str], meter: SpeedMeter) -> dict:
    out = io.StringIO()
    spent = meter.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cmtgraphs.cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    outcome = {"exit": code, "latency_s": end - start - (meter.spent - spent),
               "start_s": start, "end_s": end, "error": error, "report": None}
    if error is None:
        try:
            outcome["report"] = json.loads(out.getvalue())
        except ValueError as exc:
            outcome["error"] = f"unreadable report: {exc}"
    return outcome


def main() -> None:
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["spans_path"]:
        from tracing import Tracer  # the script's own directory leads sys.path
        tracer = Tracer()
        tracer.install()
    outcomes = []
    meter = SpeedMeter()
    # The tracer would count the meter's samples as the program's time.
    with meter if tracer is None else contextlib.nullcontext():
        start = time.perf_counter()
        for index, argv in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.command = index
            outcomes.append(run_command(argv, meter))
        end = time.perf_counter()
        wall = end - start - meter.spent
    result = {
        "setup_s": SETUP_S,
        "setup_reference_s": SETUP_REFERENCE_S,
        "wall_s": wall,
        "start_s": start,
        "end_s": end,
        "samples": meter.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spec["spans_path"])
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
