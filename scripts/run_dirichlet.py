#!/usr/bin/env python3
"""Dirichlet fundamental-domain probe for the rank-3 example groups.
For the two anisotropic examples (5 and 6) the region is compact, which
certifies cocompactness; the isotropic examples contain parabolics and
are reported unbounded."""

import argparse

from hypermono.appendix_data import EXAMPLES
from hypermono.spin import appendix_dirichlet_region


def example_ids(text: str) -> list[int]:
    """A comma-separated list of example ids, each one of EXAMPLES."""
    ids = [x.strip() for x in text.split(",")]
    valid = [str(i) for i in EXAMPLES]
    bad = [x for x in ids if x not in valid]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown example id {bad[0]!r}; valid ids are "
            f"{valid[0]}-{valid[-1]}")
    return [int(x) for x in ids]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--examples", type=example_ids, default="5,6",
                    help="comma-separated example ids (1-6)")
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()

    for i in args.examples:
        region = appendix_dirichlet_region(i, args.depth)
        print(f"example {i}: bounded={region.bounded} "
              f"vertices={len(region.vertices)}")
        for u, v in region.vertices:
            print(f"  ({u:+.6f}, {v:+.6f})")


if __name__ == "__main__":
    main()
