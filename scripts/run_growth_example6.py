#!/usr/bin/env python3
"""Ball-growth probe for the rank-3 anisotropic example group: counts
group elements with trace(g^t g) <= T^2 over a geometric grid of T and
fits the log-log slope (expected exponent n - 2 = 1 for an arithmetic
group)."""

import argparse

from hypermono.appendix_data import EXAMPLES
from hypermono.growth import growth_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmin", type=int, default=100)
    ap.add_argument("--tmax", type=int, default=10_000)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--word-limit", type=int, default=None,
                    help="override the saturation oracle")
    ap.add_argument("--csv", help="write the T/count grid to this file")
    args = ap.parse_args()

    ex = EXAMPLES[6]
    run = growth_run([ex.A, ex.B], args.tmin, args.tmax, args.points,
                     args.word_limit)

    body = "\n".join(run.csv_lines())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    print(f"word_limit={run.word_limit} slope={run.slope:.4f} "
          f"residual={run.residual:.4f}")


if __name__ == "__main__":
    main()
