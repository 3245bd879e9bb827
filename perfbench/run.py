"""Benchmark of the `cmtgraphs` command line: one workload per run.

    python3 perfbench/run.py --workload oracle_large --seed 1 --seconds 32 --trace 0

Run it from the repository root; it imports the package from `src/`.

Each workload is a list of CLI commands built from the seed by
`workloads.py`, which also computes every expected answer without calling
`cmtgraphs`.  A round runs the whole list in a fresh interpreter
(`worker.py`): one client, closed loop, each `cmtgraphs.cli.main(argv)`
call sent only after the previous one returned.  Rounds repeat while one
more still fits in `--seconds`; the timings reported are medians over
rounds.

With `--trace 0` the last line reports the end-to-end metrics:

    wall_s       time to run the whole command list once (median of rounds)
    cmd_p50_ms   median command latency within a round (median of rounds)
    cmd_p90_ms   90th-percentile command latency within a round
    peak_rss_mb  ru_maxrss of the round's process
    setup_s      interpreter start until cmtgraphs and cmtgraphs.cli are
                 imported (median of several fresh interpreters)
    pass_frac    commands that exited as expected with the expected answer,
                 over commands attempted (1 - the failed fraction)

Timings are given at the reference speed of `speed.py`: each command's
latency and each round's wall time is scaled by the speed of a fixed mix
of pure-Python work sampled in the same process while it ran, because the
host's own speed swings by a third between runs of identical code.  The
unscaled times and the samples are kept in the run record.

With `--trace 1` it runs one untraced and one traced round and reports, for
each function `tracing.py` wraps, its calls and self time, exceptions per
module, the distinct complexes passed to `reduced_homology`, and the
tracing overhead (traced minus untraced wall time).

Every round runs under a fixed PYTHONHASHSEED derived from the seed,
because the early exit in `is_cohen_macaulay` follows set order.  A longer
pure-Python loop is timed in this process before and after the run as a
diagnostic of machine drift; it is recorded beside the run in
`.perfbench/runs/` and enters no metric.  Spans of the traced round go to
`.perfbench/spans-<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import reference_over, scale
from tracing import metric_units
from workloads import DOC, WORKLOADS, Command, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES_PER_ROUND = 3
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s", "pass_frac": "frac"}


def drift_reference() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(workdir: str, commands: list[list[str]], hash_seed: int,
          spans_path: str | None = None) -> dict:
    """Run one round in a fresh interpreter, traced when `spans_path` is given."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "spans_path": spans_path}, fh)
    result_path = spec_path[:-5] + ".result.json"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, WORKER, repr(time.monotonic()), spec_path, result_path]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check(cmd: Command, outcome: dict) -> str | None:
    """None when the command answered as expected, else the reason it did not."""
    if outcome["error"]:
        return outcome["error"]
    if outcome["exit"] != 0:
        return f"exit code {outcome['exit']}"
    result = outcome["report"].get("result")
    if result != cmd.expected_result:
        return f"result {json.dumps(result)[:300]} != expected {json.dumps(cmd.expected_result)[:300]}"
    return None


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(commands: list[Command], seconds: float, hash_seed: int,
        spans_path: str | None = None) -> dict:
    """Run `commands` in rounds and check every answer.

    Without `spans_path`, rounds repeat while one more fits in `seconds`; with
    it, one untraced round is followed by one traced round whose spans go
    to that file.
    """
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE)
    try:
        argvs = []
        for cmd in commands:
            path = None
            if cmd.document is not None:
                path = os.path.join(workdir, f"{cmd.label}.graph")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cmd.document)
            argvs.append([path if a == DOC else a for a in cmd.argv])
        spawn(workdir, [], hash_seed)  # compiles bytecode; not a sample
        setups: list[dict] = []
        rounds: list[dict] = []

        def next_round(spans: str | None = None) -> None:
            # Set-up samples spread over the run, so a burst of machine
            # slowness at its start does not decide setup_s.
            setups.extend(spawn(workdir, [], hash_seed)
                          for _ in range(SETUP_SAMPLES_PER_ROUND))
            rounds.append(spawn(workdir, argvs, hash_seed, spans))

        if spans_path:
            next_round()
            next_round(spans_path)
        else:
            # Start a round only if one more of the mean length still ends
            # within `seconds`, so a run takes about `seconds`, not up to a
            # round longer.
            started = time.monotonic()
            elapsed = 0.0
            while not rounds or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
                next_round()
                elapsed = time.monotonic() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = []
    for r, rnd in enumerate(rounds):
        setups.append(rnd)
        for cmd, outcome in zip(commands, rnd["outcomes"]):
            reason = check(cmd, outcome)
            if reason:
                failures.append({"round": r, "command": cmd.label, "why": reason})
    return {"rounds": rounds, "setups": setups, "failures": failures,
            "attempted": len(commands) * len(rounds)}


def end_to_end(res: dict) -> dict[str, float]:
    rounds = res["rounds"]
    latencies = [[scale(o["latency_s"] * 1000,
                        reference_over(r["samples"], o["start_s"], o["end_s"]))
                  for o in r["outcomes"]] for r in rounds]
    return {
        "wall_s": statistics.median(
            scale(r["wall_s"], reference_over(r["samples"], r["start_s"], r["end_s"]))
            for r in rounds),
        "cmd_p50_ms": statistics.median(percentile(lat, 50) for lat in latencies),
        "cmd_p90_ms": statistics.median(percentile(lat, 90) for lat in latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(scale(s["setup_s"], s["setup_reference_s"])
                                     for s in res["setups"]),
        "pass_frac": 1 - len(res["failures"]) / res["attempted"],
    }


def per_layer(res: dict) -> dict[str, float]:
    untraced, traced = res["rounds"]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmtgraphs", "cli.py")):
        print(f"no cmtgraphs sources under {ROOT}/src: run from a repository checkout",
              file=sys.stderr)
        return 2

    drift_before = drift_reference()
    hash_seed = args.seed % 2**32
    spans_path = os.path.join(STATE, f"spans-{args.workload}.tsv") if args.trace else None
    res = run(generate(args.workload, args.seed), args.seconds, hash_seed, spans_path)
    drift_after = drift_reference()

    if args.trace:
        values = per_layer(res)
        units = dict(metric_units(), **{"trace.overhead_s": "s"})
    else:
        values = end_to_end(res)
        units = END_TO_END_UNITS
    restored = all(r.get("restored", True) for r in res["rounds"])
    correct = not res["failures"] and restored

    os.makedirs(os.path.join(STATE, "runs"), exist_ok=True)
    record_path = os.path.join(
        STATE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "pythonhashseed": hash_seed,
            "drift_reference_s": {"before": drift_before, "after": drift_after},
            "rounds": [{k: v for k, v in r.items() if k != "outcomes"}
                       | {"latency_s": [o["latency_s"] for o in r["outcomes"]],
                          "command_spans_s": [[o["start_s"], o["end_s"]] for o in r["outcomes"]]}
                       for r in res["rounds"]],
            "setup_samples_s": [[s["setup_s"], s["setup_reference_s"]] for s in res["setups"]],
            "restored": restored,
            "failures": res["failures"], "metrics": values,
        }, fh, indent=1)

    unscaled = statistics.median(r["wall_s"] for r in res["rounds"])
    print(f"# {args.workload} seed={args.seed} rounds={len(res['rounds'])} "
          f"unscaled_wall_s={unscaled:.3f} "
          f"PYTHONHASHSEED={hash_seed} drift_reference_s={drift_before:.3f}/{drift_after:.3f} "
          f"failures={len(res['failures'])} restored={restored} "
          f"record={os.path.relpath(record_path, ROOT)}")
    for failure in res["failures"][:5]:
        print(f"# FAIL round {failure['round']} {failure['command']}: {failure['why']}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
