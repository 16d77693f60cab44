from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_word_bfs import GROWTH_CASES, _flat_ball, oracle_ball

from hypermono import growth
from hypermono.appendix_data import EXAMPLES
from hypermono.exact import flat_mat_mul, flatten, identity, mat_mul
from hypermono.exponents import poly_from_structure
from hypermono.growth import (
    closure_under_inverse,
    enumerate_ball,
    fit_slope,
    geometric_grid,
    growth_run,
    saturated_word_limit,
)
from hypermono.levelt import companion_matrix

# a small hyperbolic pair: the 2x2 generators of a free-ish subgroup of
# SL2(Z) give visible exponential word growth, while the identity alone
# pins the degenerate edge cases
GEN_A = [[1, 2], [0, 1]]
GEN_B = [[1, 0], [2, 1]]


def test_enumerate_ball_identity_only():
    res = enumerate_ball([[[1, 0], [0, 1]]], 10, 6)
    assert res.count == 1
    res = enumerate_ball([[[1, 0], [0, 1]]], 1, 6)
    assert res.count == 0  # identity has frobenius norm sqrt(2) > 1


def test_ball_counts_monotone_in_t():
    prev = 0
    for t in (3, 10, 30, 100):
        res = enumerate_ball([GEN_A, GEN_B], t, 8)
        assert res.count >= prev
        prev = res.count
    assert prev > 10


def test_ball_counts_monotone_in_word_limit():
    a = enumerate_ball([GEN_A, GEN_B], 50, 4).count
    b = enumerate_ball([GEN_A, GEN_B], 50, 8).count
    assert b >= a


def test_closure_under_inverse():
    gens = closure_under_inverse([GEN_A])
    assert [[1, -2], [0, 1]] in gens


def test_geometric_grid():
    grid = geometric_grid(10, 1000, 5)
    assert grid[0] == 10 and grid[-1] == 1000
    assert all(x < y for x, y in zip(grid, grid[1:]))


def test_fit_slope_synthetic_quadratic():
    t = [10, 30, 100, 300, 1000]
    counts = [x * x for x in t]
    slope, rss = fit_slope(t, counts)
    assert abs(slope - 2.0) < 1e-9
    assert rss < 1e-18


def test_fit_slope_constant():
    slope, _ = fit_slope([10, 30, 100, 300], [7, 7, 7, 7])
    assert abs(slope) < 1e-9


def test_growth_run_deterministic():
    a = growth_run([GEN_A, GEN_B], 10, 300, 6, 8)
    b = growth_run([GEN_A, GEN_B], 10, 300, 6, 8)
    assert a.counts == b.counts and a.slope == b.slope
    assert len(a.counts) == len(a.t_grid) == 6
    assert all(x <= y for x, y in zip(a.counts, a.counts[1:]))


def test_saturated_word_limit_stabilizes_count():
    wl = saturated_word_limit([GEN_A, GEN_B], 30, max_limit=40)
    a = enumerate_ball([GEN_A, GEN_B], 30, wl).count
    b = enumerate_ball([GEN_A, GEN_B], 30, wl + 2).count
    assert a == b


def _ints(m):
    return [[int(x) for x in row] for row in m]


def test_saturation_stops_at_its_element_bound(monkeypatch):
    # at T = 10 this ball about doubles per level and never saturates
    runaway = [_ints(EXAMPLES[6].A), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]
    monkeypatch.setattr(growth, "SATURATION_BOUND", 1000)
    with pytest.raises(ValueError, match="within 1000 elements"):
        saturated_word_limit(runaway, 10)
    with pytest.raises(ValueError, match="within 1000 elements"):
        growth_run(runaway, 2, 10, 4)
    # the bound holds for an explicit word limit too
    with pytest.raises(ValueError, match="within 1000 elements"):
        growth_run(runaway, 2, 10, 4, 16)
    with pytest.raises(ValueError, match="within 1000 elements"):
        enumerate_ball(runaway, 10, 16)


def test_element_bound_counts_elements_not_orbits(monkeypatch):
    # theta swaps GEN_A and GEN_B, so the search runs on orbits, most of
    # them two elements: the bound still falls between elements
    gens, t, limit = [GEN_A, GEN_B], 30, 6
    n = len(_flat_ball(gens, limit, (4 * t) ** 2))
    monkeypatch.setattr(growth, "SATURATION_BOUND", n)
    assert (enumerate_ball(gens, t, limit).count
            == oracle_ball(gens, t, limit)[0])
    monkeypatch.setattr(growth, "SATURATION_BOUND", n - 1)
    with pytest.raises(ValueError, match=f"within {n - 1} elements"):
        enumerate_ball(gens, t, limit)
    with pytest.raises(ValueError, match=f"within {n - 1} elements"):
        growth_run(gens, 2, t, 4, limit)


# the cyclotomic polynomials of degree at most 4, by their index
CYCLOTOMIC_DEGREE = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 5: 4, 8: 4, 10: 4, 12: 4}


@st.composite
def cyclotomic_products(draw, degree):
    """The coefficients of a product of cyclotomic polynomials, of the
    given degree."""
    factors = Counter()
    while degree:
        d = draw(st.sampled_from([d for d, k in CYCLOTOMIC_DEGREE.items()
                                  if k <= degree]))
        factors[d] += 1
        degree -= CYCLOTOMIC_DEGREE[d]
    return poly_from_structure(factors)


@st.composite
def hypergeometric_pairs(draw):
    degree = draw(st.integers(2, 5))
    return [companion_matrix(draw(cyclotomic_products(degree)))
            for _ in range(2)]


@settings(max_examples=60, deadline=None)
@given(hypergeometric_pairs(), st.integers(2, 6), st.integers(0, 5))
def test_reversal_inverts_cyclotomic_companions(gens, t, limit):
    # z^n p(1/z) = p(0) p(z): R A R is A^-1, so theta(g) = R g R permutes
    # the letters and the orbit search counts the oracle's ball
    n = len(gens[0])
    for a in gens:
        rar = [row[::-1] for row in a[::-1]]
        assert mat_mul(rar, a) == identity(n)
    res = enumerate_ball(gens, t, limit)
    assert (res.count, res.truncated) == oracle_ball(gens, t, limit)


def test_example_6_saturates_under_the_default_bound():
    ex = EXAMPLES[6]
    assert saturated_word_limit([_ints(ex.A), _ints(ex.B)], 10_000) == 16


# a det -1 generator is unimodular too
CLOSURE_CASES = GROWTH_CASES + [("det -1", [[[2, 1], [1, 0]]])]


@pytest.mark.parametrize("gens", [g for _, g in CLOSURE_CASES],
                         ids=[name for name, _ in CLOSURE_CASES])
def test_closure_under_inverse_holds_inverses(gens):
    closed = closure_under_inverse(gens)
    ident = identity(len(gens[0]))
    for g in gens:
        assert any(mat_mul(g, h) == ident for h in closed)


@pytest.mark.parametrize("gen", [[[2, 0], [0, 1]], [[1, 2], [2, 4]],
                                 [[1, 0, 0], [0, 1, 0]]])
def test_growth_rejects_non_unimodular_before_any_product(gen, monkeypatch):
    monkeypatch.setattr(growth, "mat_mul", None)  # any product would fail
    for limit in (6, None):
        with pytest.raises(ValueError, match="growth generators must be "
                           "unimodular integer matrices"):
            growth_run([GEN_A, gen], 3, 30, 5, limit)


def test_growth_rejects_generators_of_two_sizes(monkeypatch):
    monkeypatch.setattr(growth, "mat_mul", None)
    with pytest.raises(ValueError, match="must all have the same size"):
        growth_run([GEN_A, identity(3)], 3, 30, 5, 6)


def _columns(flat):
    """The columns of a flat row-major 3 x 3 matrix as one flat tuple."""
    return flat[0::3] + flat[1::3] + flat[2::3]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((-1, 1)), st.integers(-1000, 1000),
       st.integers(-1000, 1000), st.booleans(),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=9, max_size=9))
def test_companion_letter_product(c0, c1, c2, invert, x):
    g = companion_matrix([c0, c1, c2, 1])
    if invert:
        g = growth._inverse(g)
    letter = growth._letter(g)
    assert letter[0] is not invert  # the companion step, not the full one
    x = tuple(x)
    want = _columns(flat_mat_mul(x, flatten(g)))
    got = growth.mat_mul(_columns(x) + (sum(v * v for v in x),), letter)
    assert got[:-1] == want
    assert got[-1] == sum(v * v for v in want)
