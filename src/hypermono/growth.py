"""Empirical ball-growth probe: breadth-first enumeration of group elements
with trace(g^t g) <= T^2 and a log-log least-squares slope fit.

The enumeration carries each element as its columns in one flat tuple with
its squared Frobenius norm trace(g^t g) appended. The paper's groups are
hypergeometric, generated by the companion matrices A and B of two
polynomials (Levelt's theorem), so their letters are companion matrices and
their inverses. Right-multiplying by one keeps all columns but one, shifted
by one place, and forms one new column; the new norm is the old one less
the dropped column's and plus the new column's, in exact integers. The 3 x 3
case, that of the paper's examples, takes this step unrolled; every other
letter is a full product.

Those polynomials are products of cyclotomic ones, self-reciprocal up to
sign (z^n p(1/z) = p(0) p(z)), and for the companion matrix A of such a p,
R A R = A^-1 with R the reversal matrix. So theta(g) = R g R, an involution
that keeps the Frobenius norm, maps the letters A, A^-1, B, B^-1 to one
another and so keeps word length. The ball is then a union of theta-orbits
of one or two elements, and the search runs on one representative per
orbit: its dedupe key is min(x, theta(x)) on the flat entries (theta
reverses a flat tuple, row- or column-major alike), and each
representative counts with its orbit's size as its weight. The search
checks once that theta permutes the closed letter set; when it does not
(example 6's A with A B, or the X, Y pairs of examples 1, 2 and 4), every
orbit is one element, its own key. On example 6 at T = 10 000, the
110 723 elements through word length 18 come from 55 368 representatives,
13 of them fixed by theta, and the search forms half the products."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

from .exact import (flat_mat_mul, flatten, identity, mat_inv, mat_to_int,
                    word_bfs)

_NOT_UNIMODULAR = "growth generators must be unimodular integer matrices"

MARGIN = 4  # default pruning radius, as a multiple of T
# elements any enumeration may reach; example 6 at T = 10 000 holds
# 110 723 when it saturates
SATURATION_BOUND = 1_000_000
WORD_LIMITS = range(4, 64, 2)  # the word limits L saturation tries


def mat_mul(x: tuple, g: tuple) -> tuple:
    """x * g, for a group element x (its columns as one flat tuple, its
    squared Frobenius norm appended) and a letter g from _letter, in the
    same format. Growth's one product: looked up at call time, so that a
    tracer or a test can replace it for growth alone."""
    forward, c = g
    if forward is None:
        y = flat_mat_mul(c, x[:-1])  # (x g)^t = g^t x^t, row-major
        return y + (sum(map(mul, y, y)),)
    c0, c1, c2 = c
    a0, a1, a2, b0, b1, b2, d0, d1, d2, s = x
    y0 = a0 * c0 + b0 * c1 + d0 * c2
    y1 = a1 * c0 + b1 * c1 + d1 * c2
    y2 = a2 * c0 + b2 * c1 + d2 * c2
    if forward:  # columns (e1, e2, c): drop the first, append x c
        return (b0, b1, b2, d0, d1, d2, y0, y1, y2,
                s - a0 * a0 - a1 * a1 - a2 * a2 + y0 * y0 + y1 * y1 + y2 * y2)
    # columns (c, e0, e1): prepend x c, drop the last
    return (y0, y1, y2, a0, a1, a2, b0, b1, b2,
            s - d0 * d0 - d1 * d1 - d2 * d2 + y0 * y0 + y1 * y1 + y2 * y2)


def _letter(g) -> tuple:
    """The integer matrix g prepared for mat_mul: (True, c) for a 3 x 3
    companion matrix, whose columns are e1, e2, c; (False, c) for the
    inverse of one, whose columns are c, e0, e1; (None, the columns of g
    as one flat tuple) for any other."""
    cols = tuple(zip(*g))
    if len(cols) == 3:
        if cols[:2] == ((0, 1, 0), (0, 0, 1)):
            return True, cols[2]
        if cols[1:] == ((1, 0, 0), (0, 1, 0)):
            return False, cols[0]
    return None, flatten(cols)


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
    """(length, trace(g^t g), weight) for each orbit of theta(g) = R g R
    (R the reversal matrix) reached by a word of length <= depth, one
    representative per orbit, in breadth-first discovery order; weight is
    the orbit's size, 1 when theta(g) = g and 2 otherwise. Without a theta
    that permutes the letters every orbit is one element, of weight 1.
    Words with trace(g^t g) > (margin*T)^2 are pruned. Validates before any
    product, and raises ValueError past SATURATION_BOUND elements, so that
    a ball that keeps growing fails before memory does."""
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if depth < 0:
        raise ValueError("word limit must be at least 0")
    gens, inverse = _closure_and_inverse(generators)
    if not gens:
        raise ValueError("at least one generator required")
    prune_sq = (margin * t) ** 2
    n = len(gens[0])
    m = n * n
    # theta reverses a flat tuple, row- or column-major, and keeps its
    # norm; it fixes the start, the identity (its own transpose, of squared
    # norm n), and maps x g to theta(x) theta(g), so when it permutes the
    # letters it permutes the ball level by level
    flat = {flatten(g) for g in gens}
    symmetric = all(g[::-1] in flat for g in flat)

    def orbit_key(y):  # min(y[:m], y[m - 1::-1]), mostly read off its ends
        if y[0] != y[m - 1]:
            return y[:m] if y[0] < y[m - 1] else y[m - 1::-1]
        return min(y[:m], y[m - 1::-1])

    ball = word_bfs(flatten(identity(n)) + (n,), [_letter(g) for g in gens],
                    mat_mul, orbit_key if symmetric else tuple, depth,
                    keep=lambda g: g[-1] <= prune_sq, inverse=inverse)

    def bounded():
        count = 0
        for length, g in ball:
            w = 2 if symmetric and g[:m] != g[m - 1::-1] else 1
            count += w
            if count > SATURATION_BOUND:
                raise ValueError(f"word limit {depth} not reached within "
                                 f"{SATURATION_BOUND} elements")
            yield length, g[-1], w
    return bounded()


def enumerate_ball(generators, t: int, word_limit: int, *,
                   margin: int = MARGIN) -> BallCount:
    """Lower bound for |{g in the group : trace(g^t g) <= T^2}| from words of
    length <= word_limit, pruning words with trace(g^t g) > (margin*T)^2.

    Balls are not prefix-closed, hence the margin; the result is an explicit
    lower bound, never an exact count."""
    t_sq = t * t
    count = length = 0
    for length, fs, w in _norm_stream(generators, t, word_limit, margin):
        if fs <= t_sq:
            count += w
    return BallCount(count, truncated=length == word_limit)


@dataclass(frozen=True)
class GrowthRun:
    t_grid: tuple[int, ...]
    counts: tuple[int, ...]
    word_limit: int
    margin: int
    slope: float
    residual: float

    def csv_lines(self) -> list[str]:
        """The grid as CSV, header first: T, count, log10 T and log10 count
        (empty for a count of 0)."""
        return ["T,count,log10T,log10N"] + [
            f"{t},{c},{math.log10(t)},{math.log10(c) if c else ''}"
            for t, c in zip(self.t_grid, self.counts)]


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
               word_limit: int | None = None, *,
               margin: int = MARGIN) -> GrowthRun:
    """Single enumeration at t_max, counts read off per grid threshold. With
    word_limit None the same enumeration first chooses the limit, as
    saturated_word_limit(generators, t_max, margin=margin) does."""
    grid = geometric_grid(t_min, t_max, points)
    if word_limit is None:
        word_limit, norms = _saturate(generators, t_max, margin)
    else:
        norms = []
        for _, fs, w in _norm_stream(generators, t_max, word_limit, margin):
            norms += (fs,) * w
    norms.sort()
    counts = [bisect_right(norms, t * t) for t in grid]
    slope, rss = fit_slope(grid, counts)
    return GrowthRun(tuple(grid), tuple(counts), word_limit, margin,
                     slope, rss)


def _saturate(generators, t: int, margin: int) -> tuple[int, list[int]]:
    """Smallest word limit L in WORD_LIMITS (4, 6, ..., 62) whose ball count
    at T equals the count at L + 2, with the norms of the words of length
    <= L. The words of length <= L are a prefix of those of length <= L + 2,
    so one enumeration serves every L; it is read to the first element past
    level L + 2. Raises ValueError when no such L exists, or past
    SATURATION_BOUND elements (`_norm_stream`)."""
    depth = WORD_LIMITS[-1] + 2
    stream = _norm_stream(generators, t, depth, margin)
    norms, levels = [], []  # levels[k]: (len(norms), ball count) at limit k
    count = 0
    pending = next(stream)
    for k in range(depth + 1):
        while pending and pending[0] == k:
            _, fs, w = pending
            norms += (fs,) * w
            if fs <= t * t:
                count += w
            pending = next(stream, None)
        levels.append((len(norms), count))
        if k - 2 in WORD_LIMITS and levels[k - 2][1] == count:
            del norms[levels[k - 2][0]:]
            return k - 2, norms
    raise ValueError(f"no saturation below word limit {WORD_LIMITS.stop}")


def saturated_word_limit(generators, t: int, *, margin: int = MARGIN) -> int:
    """Smallest word limit whose ball count matches the count at limit + 2."""
    return _saturate(generators, t, margin)[0]
