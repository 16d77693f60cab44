#!/usr/bin/env python3
"""Run the thinness certificate over the standard family instances and
print one line per instance: status, path length, nodes expanded by the
path search, the proof that no path exists at any depth (closed, mod2, or
- when there is none), and gate verdict. With --census N, certify every
buildable hyperbolic family instance for odd n <= N instead, and print per
n the status counts and the NoPathFound split: closed (v has no neighbor),
mod2 (the orbit test excludes the target) and open (a search ran and found
nothing)."""

import argparse
import time
from collections import Counter

from hypermono.distgraph import (
    CLOSED,
    MAX_DEPTH,
    MOD2,
    NODE_BUDGET,
    NO_PATH_FOUND,
    PATH_FOUND_GATE_INCONCLUSIVE,
    THIN_CERTIFIED,
    certify,
)
from hypermono.exponents import (
    FamilyError,
    FamilyId,
    _candidate_ids,
    classify,
    make_family,
)
from hypermono.levelt import build

STATUSES = (THIN_CERTIFIED, PATH_FOUND_GATE_INCONCLUSIVE, NO_PATH_FOUND)
OPEN = "open"
COLUMNS = STATUSES + (CLOSED, MOD2, OPEN)


def default_instances():
    ids = []
    for n in (7, 9, 11):
        ids += [FamilyId("N1", 1, n, n), FamilyId("M1", 1, None, n),
                FamilyId("M2", n - 2, None, n), FamilyId("N2", n - 1, 1, n)]
    ids += [FamilyId("N1", 3, 7, 7), FamilyId("N1", 3, 13, 13)]
    return ids


def census(max_n, depth, budget):
    """One row per odd n <= max_n: instance count, status counts, the
    NoPathFound split, seconds."""
    print(f"{'n':>3} {'instances':>9} "
          + " ".join(f"{st:>{len(st)}}" for st in COLUMNS) + f" {'s':>7}")
    total = Counter()
    start = time.monotonic()
    for n in range(3, max_n + 1, 2):
        t0 = time.monotonic()
        counts = Counter()
        for fid in _candidate_ids(n):
            try:
                m = build(make_family(fid))
            except FamilyError:
                continue
            if classify(m.pair).hyperbolic:
                rep = certify(m, max_depth=depth, node_budget=budget)
                counts[rep.status] += 1
                if rep.status == NO_PATH_FOUND:
                    counts[rep.no_path_proof or OPEN] += 1
        counts["instances"] = sum(counts[st] for st in STATUSES)
        total.update(counts)
        print(f"{n:>3} {counts['instances']:>9} "
              + " ".join(f"{counts[st]:>{len(st)}}" for st in COLUMNS)
              + f" {time.monotonic() - t0:7.3f}")
    print(f"{'all':>3} {total['instances']:>9} "
          + " ".join(f"{total[st]:>{len(st)}}" for st in COLUMNS)
          + f" {time.monotonic() - start:7.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--large", action="store_true",
                    help="include the dimension-31 odd-form instances "
                    "(well under a second each)")
    ap.add_argument("--depth", type=int, default=MAX_DEPTH)
    ap.add_argument("--budget", type=int, default=NODE_BUDGET)
    ap.add_argument("--census", type=int, metavar="N",
                    help="certify every buildable hyperbolic family instance "
                    "for odd n <= N and print status counts per n")
    args = ap.parse_args()
    if args.census is not None:
        census(args.census, args.depth, args.budget)
        return

    ids = default_instances()
    if args.large:
        ids += [FamilyId("N1", 1, 1, 31), FamilyId("M2", 15, None, 31),
                FamilyId("N2", 1, 1, 31)]

    for fid in ids:
        t0 = time.monotonic()
        rep = certify(build(make_family(fid)),
                      max_depth=args.depth, node_budget=args.budget)
        dt = time.monotonic() - t0
        plen = len(rep.path) - 1 if rep.path else "-"
        print(f"{str(fid):14s} {rep.status:28s} path_len={plen:<3} "
              f"expanded={rep.nodes_expanded:<7} "
              f"proof={rep.no_path_proof or '-':6s} "
              f"gate={rep.gate.verdict:24s} {dt:7.3f}s")


if __name__ == "__main__":
    main()
