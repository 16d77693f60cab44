"""The breadth-first word engine `exact.word_bfs`, and the growth and spin
readers built on it, against the hand-written loops they replaced.

The oracles below are those loops as they stood: `enumerate_ball`,
`growth_run` and `saturated_word_limit` (one enumeration per limit) from
`growth`, and the word search, Dirichlet image loop and polygon clip from
`spin`. The Dirichlet oracle writes each float sum out left to right: from
CPython 3.12 on, `sum()` of floats is compensated, which would make the
oracle's arithmetic depend on the interpreter."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from hypermono import growth
from hypermono.appendix_data import EXAMPLES
from hypermono.exact import flat_mat_mul, mat_inv, mat_mul, mat_neg, word_bfs
from hypermono.growth import (
    closure_under_inverse,
    enumerate_ball,
    geometric_grid,
    growth_run,
    saturated_word_limit,
)
from hypermono.levelt import companion_matrix
from hypermono.spin import (
    DirichletRegion,
    _det2,
    _to_so21,
    appendix_dirichlet_region,
    dirichlet_region,
    word_search,
)

F = Fraction
GEN_A = [[1, 2], [0, 1]]
GEN_B = [[1, 0], [2, 1]]
ROTATION = [[0, -1], [1, 0]]  # order 4: the group runs out of words


# ---------------------------------------------------------------------------
# oracles: the loops before the engine
# ---------------------------------------------------------------------------

def _frob_sq(mat):
    return sum(x * x for row in mat for x in row)


def _key(mat):
    return tuple(x for row in mat for x in row)


def oracle_ball(generators, t, word_limit, margin=4):
    gens = closure_under_inverse(generators)
    n = len(gens[0])
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    seen = {_key(ident)}
    frontier = [ident]
    prune_sq = (margin * t) ** 2
    t_sq = t * t
    count = 1 if _frob_sq(ident) <= t_sq else 0
    for _ in range(word_limit):
        nxt = []
        for g in frontier:
            for h in gens:
                prod = mat_mul(g, h)
                if _frob_sq(prod) > prune_sq:
                    continue
                k = _key(prod)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append(prod)
                if _frob_sq(prod) <= t_sq:
                    count += 1
        frontier = nxt
        if not frontier:
            break
    return count, bool(frontier)


def oracle_growth_counts(generators, t_min, t_max, points, word_limit,
                         margin=4):
    gens = closure_under_inverse(generators)
    n = len(gens[0])
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    seen = {_key(ident)}
    norms = [_frob_sq(ident)]
    frontier = [ident]
    prune_sq = (margin * t_max) ** 2
    for _ in range(word_limit):
        nxt = []
        for g in frontier:
            for h in gens:
                prod = mat_mul(g, h)
                fs = _frob_sq(prod)
                if fs > prune_sq:
                    continue
                k = _key(prod)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append(prod)
                norms.append(fs)
        frontier = nxt
        if not frontier:
            break
    grid = geometric_grid(t_min, t_max, points)
    return tuple(grid), tuple(sum(fs <= t * t for fs in norms) for t in grid)


def oracle_saturated_word_limit(generators, t, start=4, margin=4,
                                max_limit=64):
    limit = start
    prev = oracle_ball(generators, t, limit, margin)[0]
    while limit < max_limit:
        cur = oracle_ball(generators, t, limit + 2, margin)[0]
        if cur == prev:
            return limit
        limit += 2
        prev = cur
    raise ValueError(f"no saturation below word limit {max_limit}")


def oracle_word_search(generators, target, max_len):
    gens = []
    for i, g in enumerate(generators):
        g = [[F(x) for x in row] for row in g]
        assert _det2(g) == 1
        gens.append((g, (i, 1)))
        gens.append((mat_inv(g), (i, -1)))
    target = [[F(x) for x in row] for row in target]
    ident = [[F(1), F(0)], [F(0), F(1)]]
    goal = {_key(target), _key(mat_neg(target))}
    if _key(ident) in goal:
        return []
    frontier = [(ident, [])]
    seen = {_key(ident)}
    for _ in range(max_len):
        nxt = []
        for m, word in frontier:
            for g, step in gens:
                prod = mat_mul(m, g)
                k = _key(prod)
                if k in goal:
                    return word + [step]
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((prod, word + [step]))
        frontier = nxt
    return None


def oracle_clip(poly, a, b, c):
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def oracle_dirichlet(generators, *, form=None, basepoint=(0.0, 0.0),
                     word_depth=6, epsilon=1e-6, _retried=False):
    import numpy as np

    gens = _to_so21(generators, form)
    full = []
    for g in gens:
        full.append(g)
        full.append(np.linalg.inv(np.array(g)).tolist())
    u0, v0 = basepoint
    scale = 1.0 / math.sqrt(1.0 - (u0 * u0 + v0 * v0))
    p0 = (u0 * scale, v0 * scale, scale)

    def key(m):
        return tuple(round(x, 9) for row in m for x in row)

    ident = [[float(i == j) for j in range(3)] for i in range(3)]
    seen = {key(ident)}
    frontier = [ident]
    images = []
    stabilized = False
    for _ in range(word_depth):
        nxt = []
        for m in frontier:
            for g in full:
                prod = [[m[i][0] * g[0][j] + m[i][1] * g[1][j]
                         + m[i][2] * g[2][j] for j in range(3)]
                        for i in range(3)]
                k = key(prod)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append(prod)
                p = [prod[i][0] * p0[0] + prod[i][1] * p0[1]
                     + prod[i][2] * p0[2] for i in range(3)]
                if p[2] < 0:
                    p = [-x for x in p]
                if max(abs(p[i] - p0[i]) for i in range(3)) < 1e-9:
                    stabilized = True
                    continue
                images.append(tuple(p))
        frontier = nxt
    if stabilized:
        assert not _retried
        return oracle_dirichlet(generators, form=form,
                                basepoint=(u0 + 0.1234, v0 + 0.0567),
                                word_depth=word_depth, epsilon=epsilon,
                                _retried=True)
    half_planes = []
    poly = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
    for p in images:
        a, b, c = p[0] - p0[0], p[1] - p0[1], -(p[2] - p0[2])
        if abs(a) + abs(b) + abs(c) < 1e-12:
            continue
        half_planes.append((a, b, c))
        poly = oracle_clip(poly, a, b, c)
        if not poly:
            break
    lim = (1.0 - epsilon) ** 2
    bounded = bool(poly) and all(u * u + v * v <= lim for u, v in poly)
    return DirichletRegion((u0, v0), tuple(half_planes),
                           tuple((u, v) for u, v in poly), bounded, epsilon)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class Counted:
    """Addition, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x, g):
        self.calls += 1
        return x + g


def test_word_bfs_discovery_order():
    # integers mod 7 under +1 and +3: 3 + 1 = 4 is a repeat of 1 + 3
    out = list(word_bfs(0, (1, 3), lambda x, g: (x + g) % 7,
                        lambda x: x, 2))
    assert out == [(0, 0), (1, 1), (1, 3), (2, 2), (2, 4), (2, 6)]


def test_word_bfs_keep_before_dedupe():
    kept_calls = []

    def keep(x):
        kept_calls.append(x)
        return abs(x) <= 1

    out = list(word_bfs(0, (1, -1), lambda x, g: x + g, lambda x: x, 5,
                        keep=keep))
    assert out == [(0, 0), (1, 1), (1, -1)]
    # keep sees every product, the repeats of 0 included; level 2 keeps
    # nothing new, so no level after it has a product
    assert kept_calls == [1, -1, 2, 0, 0, -2]


def test_word_bfs_computes_nothing_past_depth():
    mul = Counted()
    out = list(word_bfs(0, (1, 10), mul, lambda x: x, 3))
    assert [length for length, _ in out] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    assert mul.calls == 2 * (1 + 2 + 3)  # levels 0, 1 and 2 extended
    mul = Counted()
    assert list(word_bfs(5, (1,), mul, lambda x: x, 0)) == [(0, 5)]
    assert mul.calls == 0


def test_word_bfs_early_exit():
    mul = Counted()
    for length, x in word_bfs(0, (1, 10, 100), mul, lambda x: x, 50):
        if x == 11:
            break
    # level 1 took 3 products, then 1 + 1, 1 + 10 = 11 and nothing more
    assert length == 2 and mul.calls == 5


def test_word_bfs_skips_backtracks():
    # Z under +1 and -1: past level 1 each element has one product, away
    # from 0, since the other leads back to its parent
    mul = Counted()
    out = list(word_bfs(0, (1, -1), mul, lambda x: x, 3, inverse=(1, 0)))
    assert out == [(0, 0), (1, 1), (1, -1), (2, 2), (2, -2), (3, 3), (3, -3)]
    assert mul.calls == 2 + 1 * 2 + 1 * 2
    mul = Counted()
    assert list(word_bfs(5, (1, -1), mul, lambda x: x, 0,
                         inverse=(1, 0))) == [(0, 5)]
    assert mul.calls == 0


def test_word_bfs_skips_backtracks_past_a_byte_of_letters():
    # 300 letters: past 255 the last letters are kept in a list, not a
    # bytearray
    gens = [k for i in range(1, 151) for k in (i, -i)]
    inverse = [i ^ 1 for i in range(len(gens))]
    mul = Counted()
    got = list(word_bfs(0, gens, mul, lambda x: x, 2, inverse=inverse))
    assert got == list(word_bfs(0, gens, lambda x, g: x + g,
                                lambda x: x, 2))
    assert mul.calls == 300 + 299 * 300


# ---------------------------------------------------------------------------
# growth and spin readers against the oracles
# ---------------------------------------------------------------------------

def _growth_cases():
    cases = [("A,B", [GEN_A, GEN_B]), ("rotation", [ROTATION])]
    for i in range(1, 7):
        ex = EXAMPLES[i]
        cases.append((f"ex{i} A,B", [[list(map(int, r)) for r in ex.A],
                                     [list(map(int, r)) for r in ex.B]]))
        if ex.isotropic:
            cases.append((f"ex{i} X,Y", [[list(map(int, r)) for r in ex.X],
                                         [list(map(int, r)) for r in ex.Y]]))
    # the companion matrices of (z - 1)^4 and z^4 + 1: at n = 4 every
    # letter takes the full product
    cases.append(("4x4 A,B", [companion_matrix([1, -4, 6, -4, 1]),
                              companion_matrix([1, 0, 0, 0, 1])]))
    # ex6's group again, from its companion matrix A and the non-companion
    # A B: words mix the companion steps with the full product
    a, b = dict(cases)["ex6 A,B"]
    cases.append(("ex6 A,AB", [a, mat_mul(a, b)]))
    return cases


GROWTH_CASES = _growth_cases()


@pytest.mark.parametrize("gens", [g for _, g in GROWTH_CASES],
                         ids=[name for name, _ in GROWTH_CASES])
def test_growth_readers_match_oracles(gens):
    for t, limit in ((1, 3), (20, 0), (20, 1), (20, 6), (60, 7)):
        res = enumerate_ball(gens, t, limit)
        assert (res.count, res.truncated) == oracle_ball(gens, t, limit)
    for start in (1, 4):
        wl = saturated_word_limit(gens, 10, start=start, max_limit=30)
        assert wl == oracle_saturated_word_limit(gens, 10, start=start,
                                                 max_limit=30)
    # wl is now the limit from the default start, 4
    grid, counts = oracle_growth_counts(gens, 2, 10, 5, wl)
    try:
        run = growth_run(gens, 2, 10, 5, wl)
    except ValueError:  # too few nontrivial counts to fit a slope
        assert sum(c >= 2 for c in counts) < 4
        return
    assert (run.t_grid, run.counts, run.word_limit) == (grid, counts, wl)
    assert growth_run(gens, 2, 10, 5) == run


# generators with an involution (SWAP), one passed twice (GEN_A) and one
# passed as its inverse (GEN_B_INV): closure_under_inverse drops repeats
SWAP = [[0, 1], [1, 0]]
GEN_B_INV = [[1, 0], [-2, 1]]
TOY = [GEN_A, SWAP, GEN_A, GEN_B_INV]


def _flat_ball(generators, depth, prune_sq, inverse=None, mul=flat_mat_mul):
    gens = [tuple(x for row in g for x in row)
            for g in closure_under_inverse(generators)]
    n = math.isqrt(len(gens[0]))
    start = tuple(int(i == j) for i in range(n) for j in range(n))
    return list(word_bfs(start, gens, mul, tuple, depth,
                         keep=lambda g: sum(x * x for x in g) <= prune_sq,
                         inverse=inverse))


def test_closure_pairs_each_generator_with_its_inverse():
    gens, inverse = growth._closure_and_inverse(TOY)
    assert gens == closure_under_inverse(TOY)
    assert gens == [GEN_A, [[1, -2], [0, 1]], SWAP, GEN_B_INV, GEN_B]
    assert inverse == [1, 0, 2, 4, 3]
    for name, generators in GROWTH_CASES:
        gens, inverse = growth._closure_and_inverse(generators)
        for g, i in zip(gens, inverse):
            assert mat_mul(g, gens[i]) == [[int(r == c) for c in range(len(g))]
                                           for r in range(len(g))], name


@pytest.mark.parametrize("generators", [g for _, g in GROWTH_CASES] + [TOY],
                         ids=[name for name, _ in GROWTH_CASES] + ["toy"])
def test_skipping_backtracks_changes_no_growth_word(generators):
    inverse = growth._closure_and_inverse(generators)[1]
    for depth, prune_sq in ((0, 10 ** 6), (6, 10 ** 12), (12, 40 ** 2)):
        assert (_flat_ball(generators, depth, prune_sq, inverse)
                == _flat_ball(generators, depth, prune_sq))


NORM_STREAM_CASES = [
    pytest.param(g, t, depth, id=f"{name} T={t} depth={depth}")
    for name, g in GROWTH_CASES for t, depth in ((20, 6), (60, 7))
] + [pytest.param(dict(GROWTH_CASES)["ex6 A,B"], 10 ** 4, 12,
                  id="ex6 A,B T=10000 depth=12")]


def _theta_permutes_letters(generators):
    flat = {tuple(x for row in g for x in row)
            for g in closure_under_inverse(generators)}
    return all(g[::-1] in flat for g in flat)


def _reps(monkeypatch):
    """Record each element that growth's word_bfs yields: the orbit
    representatives behind the (length, norm, weight) stream."""
    seen, real_bfs = [], growth.word_bfs

    def recording_bfs(*args, **kwargs):
        for length, x in real_bfs(*args, **kwargs):
            seen.append(x)
            yield length, x
    monkeypatch.setattr(growth, "word_bfs", recording_bfs)
    return seen


@pytest.mark.parametrize("generators, t, depth", NORM_STREAM_CASES)
def test_norm_stream_matches_row_major_products(generators, t, depth,
                                                monkeypatch):
    # the same ball as row-major flat tuples multiplied out, each norm a
    # sum of squares: level by level, each representative's norm taken
    # weight times is the oracle's multiset of norms at that level
    inverse = growth._closure_and_inverse(generators)[1]
    want = [Counter() for _ in range(depth + 1)]
    want_fixed = [Counter() for _ in range(depth + 1)]
    for length, g in _flat_ball(generators, depth, (4 * t) ** 2, inverse):
        want[length][sum(x * x for x in g)] += 1
        if g == g[::-1]:  # theta(g) = g, in any flat layout
            want_fixed[length][sum(x * x for x in g)] += 1
    reps = _reps(monkeypatch)
    got = list(growth._norm_stream(generators, t, depth, 4))
    assert [length for length, _, _ in got] == sorted(
        length for length, _, _ in got)
    levels = [Counter() for _ in range(depth + 1)]
    fixed = [Counter() for _ in range(depth + 1)]
    orbits = _theta_permutes_letters(generators)
    for (length, fs, w), x in zip(got, reps, strict=True):
        levels[length][fs] += w
        x = x[:-1]
        # weight 1 exactly when theta fixes x; every weight is 1 without
        # theta
        assert w == (2 if orbits and x != x[::-1] else 1)
        if w == 1:
            fixed[length][fs] += 1
    assert levels == want
    if orbits:
        assert fixed == want_fixed


def test_growth_products_skip_backtracks(monkeypatch):
    # every representative past the identity forms one product fewer than
    # there are generators: the one back to its parent
    generators = dict(GROWTH_CASES)["ex6 A,B"]
    ngens = len(closure_under_inverse(generators))
    real_mul = growth.mat_mul
    for limit in (0, 1, 5):
        lengths = [length for length, _, _ in
                   growth._norm_stream(generators, 50, limit, 4)]
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return real_mul(a, b)

        monkeypatch.setattr(growth, "mat_mul", counted)
        enumerate_ball(generators, 50, limit)
        monkeypatch.setattr(growth, "mat_mul", real_mul)
        inner = sum(1 <= length < limit for length in lengths)
        assert calls[0] == (ngens + (ngens - 1) * inner if limit else 0)


# the cases whose closed letter set theta(g) = R g R does not permute:
# theta(A B) = A^-1 B^-1 is not (A B)^-1, and these X, Y pairs are not
# reversal-symmetric
PLAIN_CASES = ("ex6 A,AB", "ex1 X,Y", "ex2 X,Y", "ex4 X,Y")


def _uses_orbits(generators, monkeypatch):
    keys, real_bfs = [], growth.word_bfs

    def spying_bfs(*args, **kwargs):
        keys.append(args[3])
        return real_bfs(*args, **kwargs)
    monkeypatch.setattr(growth, "word_bfs", spying_bfs)
    enumerate_ball(generators, 10, 1)
    monkeypatch.setattr(growth, "word_bfs", real_bfs)
    return keys[0] is not tuple


@pytest.mark.parametrize("name, generators",
                         GROWTH_CASES + [("toy", TOY)],
                         ids=[name for name, _ in GROWTH_CASES] + ["toy"])
def test_orbit_path_selection(name, generators, monkeypatch):
    assert _uses_orbits(generators, monkeypatch) == (name not in PLAIN_CASES)
    # exactly when theta maps the closed letter set onto itself
    assert _theta_permutes_letters(generators) == (name not in PLAIN_CASES)


def test_orbits_halve_the_products(monkeypatch):
    generators = dict(GROWTH_CASES)["ex6 A,B"]
    inverse = growth._closure_and_inverse(generators)[1]
    plain = [0]

    def counted_flat(a, b):
        plain[0] += 1
        return flat_mat_mul(a, b)
    _flat_ball(generators, 12, (4 * 10 ** 4) ** 2, inverse, counted_flat)
    calls, real_mul = [0], growth.mat_mul

    def counted(a, b):
        calls[0] += 1
        return real_mul(a, b)
    monkeypatch.setattr(growth, "mat_mul", counted)
    enumerate_ball(generators, 10 ** 4, 12)
    assert 0.48 * plain[0] < calls[0] < 0.52 * plain[0]


def test_word_limit_zero_forms_no_product(monkeypatch):
    monkeypatch.setattr(growth, "mat_mul", None)  # any product would fail
    for generators in ([GEN_A, GEN_B], TOY):
        assert enumerate_ball(generators, 10, 0) == growth.BallCount(1, True)


def test_truncated_flag():
    assert enumerate_ball([GEN_A, GEN_B], 10, 0) == growth.BallCount(1, True)
    # the rotation group has 4 elements, all reached by words of length 2
    assert enumerate_ball([ROTATION], 10, 2) == growth.BallCount(4, True)
    assert enumerate_ball([ROTATION], 10, 3) == growth.BallCount(4, False)
    assert enumerate_ball([ROTATION], 10, 40) == growth.BallCount(4, False)


def test_saturated_growth_run_enumerates_once(monkeypatch):
    gens = [GEN_A, GEN_B]
    wl = saturated_word_limit(gens, 30, max_limit=40)
    products = {}
    streams = []
    real_bfs = growth.word_bfs

    def counting_bfs(*args, **kwargs):
        streams.append(args)
        return real_bfs(*args, **kwargs)

    real_mul = growth.mat_mul
    monkeypatch.setattr(growth, "word_bfs", counting_bfs)
    for limit in (wl + 2, wl + 3, None):
        calls = [0]

        def counted(a, b, calls=calls):
            calls[0] += 1
            return real_mul(a, b)

        monkeypatch.setattr(growth, "mat_mul", counted)
        run = growth_run(gens, 3, 30, 5, limit)
        products[limit] = calls[0]
    assert len(streams) == 3  # one enumeration per run
    assert run == growth_run(gens, 3, 30, 5, wl)
    # the saturated run reads level wl + 2 and at most part of wl + 3
    assert products[wl + 2] <= products[None] < products[wl + 3]


@pytest.mark.parametrize("margin", [0, -4])
def test_growth_rejects_bad_margin_before_any_product(margin, monkeypatch):
    monkeypatch.setattr(growth, "mat_mul", None)  # any product would fail
    for limit in (6, None):
        with pytest.raises(ValueError, match="margin must be at least 1"):
            growth_run([GEN_A, GEN_B], 3, 30, 5, limit, margin=margin)


def test_growth_rejects_bad_grid_and_limit_before_any_product(monkeypatch):
    monkeypatch.setattr(growth, "mat_mul", None)
    with pytest.raises(ValueError, match="at least 2 points"):
        growth_run([GEN_A, GEN_B], 3, 30, 1)
    with pytest.raises(ValueError, match="word limit must be at least 0"):
        growth_run([GEN_A, GEN_B], 3, 30, 5, -1)


def _word_search_cases():
    cases = [([[1, 1], [0, 1]], [[1, 1], [0, 1]], 3),
             ([[1, 1], [0, 1]], [[1, 0], [0, 1]], 3),
             ([[1, 1], [0, 1]], [[1, 0], [1, 1]], 4)]
    cases = [([g], target, n) for g, target, n in cases]
    for i in (1, 2):
        ex = EXAMPLES[i]
        cases += [([ex.X, ex.Y], target, 30)
                  for target in ex.congruence_targets]
    ex = EXAMPLES[4]
    x4 = [list(r) for r in ex.X]
    for _ in range(3):
        x4 = mat_mul(x4, [list(r) for r in ex.X])
    yx4 = mat_mul([list(r) for r in ex.Y], x4)
    cases.append(([yx4, [list(r) for r in ex.Y]], [[0, 1], [-1, 0]], 12))
    # a target not reached within the length: both searches exhaust it
    cases.append(([ex.X, ex.Y], [[1, 2], [3, 7]], 5))
    return cases


@pytest.mark.parametrize("gens,target,max_len", _word_search_cases())
def test_word_search_matches_oracle(gens, target, max_len):
    assert word_search(gens, target, max_len) == oracle_word_search(
        gens, target, max_len)


@pytest.mark.parametrize("example", range(1, 7))
def test_dirichlet_region_matches_oracle(example):
    ex = EXAMPLES[example]
    if ex.isotropic:
        gens, form = [ex.X, ex.Y], None
    else:
        a = [list(r) for r in ex.A]
        gens, form = [mat_mul(a, a), [list(r) for r in ex.B]], ex.f
    # repr, not ==, so that -0.0 and 0.0 differ; depth 6 is the default,
    # and example 3 (every depth) and 4 (depths 6, 8) nudge the basepoint
    for depth in (1, 6, 8):
        want = repr(oracle_dirichlet(gens, form=form, word_depth=depth))
        got = dirichlet_region(gens, form=form, word_depth=depth)
        assert repr(got) == want
        # the CLI's and run_dirichlet.py's choice of generators
        assert repr(appendix_dirichlet_region(example, depth)) == want

