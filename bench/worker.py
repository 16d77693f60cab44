"""One pass of a workload in a fresh process: set up, run the op list once
in a closed loop (one client, one thread), check every output, and print one
JSON line with the timings (and, traced, the per-layer metrics).

    python3 bench/worker.py WORKLOAD SEED PASS MODE T0

MODE is `setup` (stop before the first op), `time` or `trace`. T0 is the
parent's time.monotonic() just before it started this process, so `setup_s`
covers interpreter start, imports, input generation and reference loading.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(argv):
    workload, seed, pass_index, mode, t0 = argv
    seed, pass_index, t0 = int(seed), int(pass_index), float(t0)

    from hypermono import cli, spin
    from hypermono.appendix_data import EXAMPLES

    import workloads

    refs = workloads.load_references(workload)
    ops = workloads.pass_order(workloads.make_ops(workload, seed, refs),
                               seed, pass_index)
    by_id = {r["id"]: r for r in refs}
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    results = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        t = clock()
        try:
            code, out = workloads.run_op(op, cli, spin, EXAMPLES)
        except Exception:  # a raising op is a failed op, not a failed pass
            code, out = None, traceback.format_exc()
        results.append((op, clock() - t, code, out))
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the oracle runs outside the timed region
    report = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "ops": []}
    for op, dur, code, out in results:
        why = (f"raised: {out.strip().splitlines()[-1]}" if code is None
               else workloads.check(op, by_id[op["id"]], code, out))
        report["ops"].append({"id": op["id"], "s": dur, "failed": why,
                              "digest": workloads.digest(code, out)})
    if tracer is not None:
        report["layers"] = tracing.summarize(tracer.spans, tracer.counts)
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
