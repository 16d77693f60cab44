#!/usr/bin/env python3
"""Dirichlet fundamental-domain probe for the rank-3 example groups.
For the two anisotropic examples (5 and 6) the region is compact, which
certifies cocompactness; the isotropic examples contain parabolics and
are reported unbounded."""

import argparse

from hypermono.spin import appendix_dirichlet_region


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--examples", default="5,6",
                    help="comma-separated example ids (1-6)")
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()

    for i in (int(x) for x in args.examples.split(",")):
        region = appendix_dirichlet_region(i, args.depth)
        print(f"example {i}: bounded={region.bounded} "
              f"vertices={len(region.vertices)}")
        for u, v in region.vertices:
            print(f"  ({u:+.6f}, {v:+.6f})")


if __name__ == "__main__":
    main()
