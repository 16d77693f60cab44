#!/usr/bin/env python3
"""The hypermono benchmark: one seeded workload, run as a closed loop with a
single client, each pass of its op list in a fresh process.

    python3 bench/run.py --workload {census,n31,growth,rank3} --seed N \
        --seconds S --trace {0,1}

Untraced (`--trace 0`), it times passes until the next one would overrun
`--seconds`, and prints the end-to-end metrics. Traced (`--trace 1`), it
runs one untraced pass and two traced passes, checks that the traced outputs
equal the untraced ones and that every work count repeats exactly, and
prints the per-layer metrics. Either way every op output is checked against
the references, a record of the run (seed, op lists, per-op times, spans)
goes to bench/out/, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Run it from the root of a checkout; it imports hypermono from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170  # every run must end within 180 s
SETUP_PROBES = 10  # extra processes that only set up, so setup_s is a median
# a coarse ladder, so that a few passes more or less in a run do not move
# the tail to another percentile
TAIL_PERCENTILES = (99, 90, 75, 50)
OP_ARGS = ("id", "argv", "example", "target", "max_len")  # recorded per op


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    # one thread: keep any BLAS pool in the numpy import to a single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode, pass_index, started):
    """Run one worker process to completion and return its report."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("run deadline reached")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
            str(args.seed), str(pass_index), mode, repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"{mode} pass {pass_index} overran the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass {pass_index} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """The highest of TAIL_PERCENTILES with at least 10 samples beyond it;
    with fewer than 20 samples no percentile qualifies and the slowest op is
    reported as percentile 100."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return value, p
    return max(samples), 100


def end_to_end(passes, setups):
    times = [op["s"] for p in passes for op in p["ops"]]
    tail_s, tail_p = tail(times)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s_p50": statistics.median(
            statistics.median(op["s"] for op in p["ops"]) for p in passes),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {"op_samples": len(times), "op_s_tail_percentile": tail_p,
             "passes": len(passes), "setup_samples": len(setups)}
    return metrics, notes


def per_layer(untimed, traced):
    """Per-layer metrics from two traced passes: times are their median;
    every count must be equal in both."""
    a, b = traced[0]["layers"], traced[1]["layers"]
    problems = [f"{name} differs between traced passes: {a.get(name, 0)} != {b.get(name, 0)}"
                for name in sorted(set(a) | set(b))
                if tracing.unit(name) != "s" and a.get(name, 0) != b.get(name, 0)]
    layers = {name: (statistics.median([a.get(name, 0), b.get(name, 0)])
                     if tracing.unit(name) == "s" else a.get(name, 0))
              for name in tracing.PER_LAYER[:-1]}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - untimed["wall_s"])
    return layers, problems


def compare_outputs(reference, passes):
    """Every pass must produce the same output digest per op."""
    want = {op["id"]: op["digest"] for op in reference["ops"]}
    return [f"{op['id']}: output differs between passes"
            for p in passes for op in p["ops"] if want.get(op["id"]) != op["digest"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "hypermono", "cli.py")):
        raise BenchError(f"no hypermono sources under {ROOT}/src")

    refs = workloads.load_references(args.workload)
    ops = workloads.make_ops(args.workload, args.seed, refs)
    problems = []
    if args.trace:
        untimed = spawn(args, "time", 0, started)
        traced = [spawn(args, "trace", k, started) for k in (1, 2)]
        passes = [untimed] + traced
        metrics, problems = per_layer(untimed, traced)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        setups = [spawn(args, "setup", -1, started)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            passes.append(spawn(args, "time", len(passes), started))
            elapsed = time.monotonic() - started
            last = passes[-1]["wall_s"] + passes[-1]["setup_s"]
            if elapsed + last > args.seconds:
                break
        metrics, notes = end_to_end(passes, setups + [p["setup_s"] for p in passes])
        units = {"wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    problems += compare_outputs(passes[0], passes[1:])

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f"{op['id']}: {op['failed']}"
                for p in passes for op in p["ops"] if op["failed"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "ops": [{k: v for k, v in op.items() if k in OP_ARGS} for op in ops],
              "passes": passes, "metrics": metrics,
              "failures": failures, "problems": problems}
    if not args.trace:
        record["notes"] = notes
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for line in failures + problems:
        print(f"FAIL {line}")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} passes, record in {os.path.relpath(path, ROOT)}")
    if not args.trace:
        print(f"op_s_tail is percentile {notes['op_s_tail_percentile']} of "
              f"{notes['op_samples']} op times; setup_s is the median of "
              f"{notes['setup_samples']} set-ups")
    print(f"fail_ratio = {len(failures) / attempted:.6f} ratio")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(f"benchmark error: {exc}")
