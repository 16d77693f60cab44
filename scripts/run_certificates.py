#!/usr/bin/env python3
"""Run the thinness certificate over the standard family instances and
print one line per instance: status, path length, nodes expanded by the
path search, and gate verdict."""

import argparse
import time

from hypermono.distgraph import certify
from hypermono.exponents import FamilyId, make_family
from hypermono.levelt import build


def default_instances():
    ids = []
    for n in (7, 9, 11):
        ids += [FamilyId("N1", 1, n, n), FamilyId("M1", 1, None, n),
                FamilyId("M2", n - 2, None, n), FamilyId("N2", n - 1, 1, n)]
    ids += [FamilyId("N1", 3, 7, 7), FamilyId("N1", 3, 13, 13)]
    return ids


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--large", action="store_true",
                    help="include the dimension-31 odd-form instances "
                    "(well under a second each)")
    ap.add_argument("--depth", type=int, default=5)
    ap.add_argument("--budget", type=int, default=1_000_000)
    args = ap.parse_args()

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
              f"gate={rep.gate.verdict:24s} {dt:7.3f}s")


if __name__ == "__main__":
    main()
