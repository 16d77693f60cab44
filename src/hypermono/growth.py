"""Empirical ball-growth probe: breadth-first enumeration of group elements
with trace(g^t g) <= T^2 and a log-log least-squares slope fit."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

from . import exact
from .exact import flatten, identity, mat_inv, mat_to_int, word_bfs

_NOT_UNIMODULAR = "growth generators must be unimodular integer matrices"

# the shared flat product, bound here as `mat_mul` and looked up at call
# time, so that a tracer or a test can replace it for growth alone
mat_mul = exact.flat_mat_mul


def _frob_sq(t) -> int:
    return sum(map(mul, t, t))


def _inverse(g) -> list[list[int]]:
    """Integer inverse of a unimodular g, the exact rational inverse: an
    integer matrix has an integral inverse exactly when its determinant is
    +-1. Raises ValueError for anything else."""
    n = len(g)
    if n == 0 or any(len(row) != n or any(x != int(x) for x in row)
                     for row in g):
        raise ValueError(_NOT_UNIMODULAR)
    try:
        return mat_to_int(mat_inv(g))
    except ValueError:  # singular, or an entry of the inverse not integral
        raise ValueError(_NOT_UNIMODULAR) from None


def closure_under_inverse(generators):
    """The generators and their inverses as integer matrices, repeats
    dropped. Raises ValueError unless every generator is a unimodular
    integer matrix, all of one size."""
    return _closure_and_inverse(generators)[0]


def _closure_and_inverse(generators):
    """closure_under_inverse(generators), and for each of its matrices the
    index of its inverse among them (its own for an involution), read off
    the pairs (g, g^-1) with no product."""
    out, inverse = [], []
    index = {}  # flat key -> position in out
    for g in generators:
        pair = []
        for h in (g, _inverse(g)):
            k = flatten(h)
            if k not in index:
                index[k] = len(out)
                out.append([[int(x) for x in r] for r in h])
                inverse.append(None)
            pair.append(index[k])
        i, j = pair
        inverse[i], inverse[j] = j, i
    if len({len(g) for g in out}) > 1:
        raise ValueError("growth generators must all have the same size")
    return out, inverse


@dataclass(frozen=True)
class BallCount:
    count: int
    truncated: bool  # word limit reached with the frontier still growing


def _norm_stream(generators, t: int, depth: int, margin: int):
    """(length, trace(g^t g)) for each group element g reached by a word of
    length <= depth, in breadth-first discovery order; words with
    trace(g^t g) > (margin*T)^2 are pruned. Validates before any product."""
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if depth < 0:
        raise ValueError("word limit must be at least 0")
    gens, inverse = _closure_and_inverse(generators)
    if not gens:
        raise ValueError("at least one generator required")
    prune_sq = (margin * t) ** 2
    # flat row-major tuples, each its own dedupe key; keep runs on every
    # product, so it inlines _frob_sq
    ball = word_bfs(flatten(identity(len(gens[0]))),
                    [flatten(g) for g in gens], mat_mul, tuple, depth,
                    keep=lambda g: sum(map(mul, g, g)) <= prune_sq,
                    inverse=inverse)
    return ((length, _frob_sq(g)) for length, g in ball)


def enumerate_ball(generators, t: int, word_limit: int, *,
                   margin: int = 4) -> BallCount:
    """Lower bound for |{g in the group : trace(g^t g) <= T^2}| from words of
    length <= word_limit, pruning words with trace(g^t g) > (margin*T)^2.

    Balls are not prefix-closed, hence the margin; the result is an explicit
    lower bound, never an exact count."""
    t_sq = t * t
    count = length = 0
    for length, fs in _norm_stream(generators, t, word_limit, margin):
        count += fs <= t_sq
    return BallCount(count, truncated=length == word_limit)


@dataclass(frozen=True)
class GrowthRun:
    t_grid: tuple[int, ...]
    counts: tuple[int, ...]
    word_limit: int
    margin: int
    slope: float
    residual: float


def geometric_grid(t_min: int, t_max: int, points: int) -> list[int]:
    if points < 2 or t_min < 1 or t_max <= t_min:
        raise ValueError("need t_max > t_min >= 1 and at least 2 points")
    ratio = (t_max / t_min) ** (1 / (points - 1))
    grid = sorted({round(t_min * ratio ** i) for i in range(points)})
    return grid


def fit_slope(t_grid, counts) -> tuple[float, float]:
    """Ordinary least squares of log(count) on log(T); returns (slope, rss)."""
    pts = [(math.log(t), math.log(c)) for t, c in zip(t_grid, counts)
           if c >= 2]
    if len(pts) < 4:
        raise ValueError("need at least 4 grid points with counts >= 2")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate grid (all T equal)")
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    rss = sum((y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, ys))
    return slope, rss


def growth_run(generators, t_min: int, t_max: int, points: int,
               word_limit: int | None = None, *, margin: int = 4) -> GrowthRun:
    """Single enumeration at t_max, counts read off per grid threshold. With
    word_limit None the same enumeration first chooses the limit, as
    saturated_word_limit(generators, t_max, margin=margin) does."""
    grid = geometric_grid(t_min, t_max, points)
    if word_limit is None:
        word_limit, norms = _saturate(generators, t_max, margin=margin)
    else:
        norms = [fs for _, fs in _norm_stream(generators, t_max, word_limit,
                                              margin)]
    norms.sort()
    counts = [bisect_right(norms, t * t) for t in grid]
    slope, rss = fit_slope(grid, counts)
    return GrowthRun(tuple(grid), tuple(counts), word_limit, margin,
                     slope, rss)


def _saturate(generators, t: int, *, start: int = 4, margin: int = 4,
              max_limit: int = 64) -> tuple[int, list[int]]:
    """Smallest word limit L in start, start + 2, ... below max_limit whose
    ball count at T equals the count at L + 2, with the norms of the words
    of length <= L. The words of length <= L are a prefix of those of
    length <= L + 2, so one enumeration serves every L; it is read to the
    first element past level L + 2."""
    limits = range(start, max_limit, 2)
    depth = limits[-1] + 2 if limits else 0
    stream = _norm_stream(generators, t, depth, margin)
    norms, levels = [], []  # levels[k]: (len(norms), ball count) at limit k
    count = 0
    pending = next(stream)
    for k in range(depth + 1):
        while pending and pending[0] == k:
            norms.append(pending[1])
            count += pending[1] <= t * t
            pending = next(stream, None)
        levels.append((len(norms), count))
        if k - 2 in limits and levels[k - 2][1] == count:
            del norms[levels[k - 2][0]:]
            return k - 2, norms
    raise ValueError(f"no saturation below word limit {max_limit}")


def saturated_word_limit(generators, t: int, *, start: int = 4,
                         margin: int = 4, max_limit: int = 64) -> int:
    """Smallest word limit whose ball count matches the count at limit + 2."""
    return _saturate(generators, t, start=start, margin=margin,
                     max_limit=max_limit)[0]
