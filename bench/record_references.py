#!/usr/bin/env python3
"""Record the benchmark's reference outputs: every op of every workload is
run once through the public API and its output is stored under
bench/references/. Certify ops also store the `gram` output that their paths
are re-checked against, and census ops their time, which the seeded census
sample is stratified by.

The references pin the outputs of the commit they were recorded at; record
them again only for a change that is meant to alter an output.

    python3 bench/record_references.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypermono import cli, spin  # noqa: E402
from hypermono.appendix_data import EXAMPLES  # noqa: E402
from hypermono.exponents import FamilyError, _candidate_ids, make_family  # noqa: E402
from hypermono.levelt import build  # noqa: E402

import workloads  # noqa: E402

CENSUS_DIMS = (5, 7, 9, 11)
N31_IDS = (("N1", 1, 1, 31), ("M2", 15, None, 31), ("N2", 1, 1, 31))
GROWTH_ARGV = ["growth", "--alpha", "1/3,1/2,2/3", "--beta", "0,1/6,5/6",
               "--tmin", "100", "--tmax", "10000", "--points", "10"]


def _family_argv(family, j, k, n):
    argv = ["--name", family, "--j", str(j), "--n", str(n)]
    if k is not None:
        argv[4:4] = ["--k", str(k)]
    return argv


def _label(family, j, k, n):
    return f"{family}({j},{n})" if k is None else f"{family}({j},{k},{n})"


def _certify_op(family, j, k, n):
    return {"id": f"certify {_label(family, j, k, n)}", "kind": "cli", "n": n,
            "argv": ["certify"] + _family_argv(family, j, k, n)}


def census_ops():
    ops = []
    for n in CENSUS_DIMS:
        for fid in _candidate_ids(n):
            try:
                build(make_family(fid))
            except (FamilyError, ValueError):
                continue
            ops.append(_certify_op(fid.family, fid.j, fid.k, n))
    return ops


def ops_for(workload):
    if workload == "census":
        return census_ops()
    if workload == "n31":
        return [_certify_op(*fid) for fid in N31_IDS]
    if workload == "growth":
        return [{"id": "growth saturated", "kind": "cli", "argv": GROWTH_ARGV},
                {"id": "growth word-limit 16", "kind": "cli",
                 "argv": GROWTH_ARGV + ["--word-limit", "16"]}]
    ops = [{"id": f"appendix {i}", "kind": "cli",
            "argv": ["appendix", "--example", str(i), "--depth", "8"]}
           for i in sorted(EXAMPLES)]
    for i in (1, 2):
        for t in range(len(EXAMPLES[i].congruence_targets)):
            ops.append({"id": f"word_search {i}.{t}", "kind": "word_search",
                        "example": i, "target": t, "max_len": 30})
    return ops


def _frac_rows(m):
    return [[str(x) for x in row] for row in m]


def record(workload):
    out = []
    for op in ops_for(workload):
        t0 = time.perf_counter()
        code, result = workloads.run_op(op, cli, spin, EXAMPLES)
        ref = dict(op, code=code, ref_s=round(time.perf_counter() - t0, 4))
        if op["kind"] == "word_search":
            ex = EXAMPLES[op["example"]]
            ref.update(word=result, length=len(result),
                       generators=[_frac_rows(ex.X), _frac_rows(ex.Y)],
                       target_matrix=_frac_rows(ex.congruence_targets[op["target"]]))
        else:
            ref["stdout"] = result
        if op.get("argv", [])[:1] == ["certify"]:
            _, gram = workloads.run_op(
                dict(op, argv=["gram"] + op["argv"][1:]), cli, spin, EXAMPLES)
            gram = json.loads(gram)
            ref["gram"] = {"gram": gram["gram"], "parity": gram["parity"]}
        reason = workloads.check(op, ref, code, result)
        if reason is not None:
            raise SystemExit(f"{op['id']}: reference fails its own check: {reason}")
        out.append(ref)
        print(f"{op['id']:32s} {ref['ref_s']:8.3f}s", file=sys.stderr)
    path = os.path.join(workloads.REF_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ops": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    for w in [args.workload] if args.workload else workloads.WORKLOADS:
        record(w)


if __name__ == "__main__":
    main()
