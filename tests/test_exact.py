import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermono.exact import (
    LLL_DELTA,
    GramSchmidt,
    bilinear,
    cyclotomic_poly,
    dot,
    enumerate_short_vectors,
    euler_phi,
    flat_mat_mul,
    identity,
    integer_kernel_and_solution,
    lll_reduce,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    poly_divmod_exact,
    signature_of_symmetric,
    smith_normal_form,
)


def test_cyclotomic_poly_small():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(6)) == [1, -1, 1]


def test_cyclotomic_poly_divides_zd_minus_1():
    for d in range(1, 201):
        p = list(cyclotomic_poly(d))
        assert len(p) - 1 == euler_phi(d)
        zd = [-1] + [0] * (d - 1) + [1]
        assert poly_divmod_exact(zd, p) is not None


def _check_snf(m):
    # the reference's own check: its transforms are unimodular, L m R = D
    diag, left, right = oracle_smith_normal_form(m)
    n = len(m)
    prod = mat_mul(mat_mul(left, m), right)
    for i in range(n):
        for j in range(len(m[0])):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
    assert abs(mat_det(left)) == 1
    assert abs(mat_det(right)) == 1
    assert smith_normal_form(m) == diag
    return diag


def test_snf_examples():
    assert _check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert _check_snf([[2, 1], [1, 2]]) == (1, 3)
    assert _check_snf([[2, 0], [0, 4]]) == (2, 4)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_snf_random(m):
    diag = _check_snf(m)
    det = mat_det(m)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(det)


def oracle_smith_normal_form(m):
    """(diagonal, left, right) with left * m * right diagonal, left and
    right unimodular: the Smith normal form with both transforms, its two
    edge-clearing branches apart."""
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = identity(rows)
    right = identity(cols)

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            right[r][i] -= q * right[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    s = 0
    while s < min(rows, cols):
        if all(a[i][j] == 0 for i in range(s, rows) for j in range(s, cols)):
            break
        while True:
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
            _, bi, bj = best
            if bi != s:
                row_swap(s, bi)
            if bj != s:
                col_swap(s, bj)
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] % a[s][s] != 0:
                    row_op(i, s, a[i][s] // a[s][s])
                    dirty = True
                elif a[i][s] != 0:
                    row_op(i, s, a[i][s] // a[s][s])
            for j in range(s + 1, cols):
                if a[s][j] % a[s][s] != 0:
                    col_op(j, s, a[s][j] // a[s][s])
                    dirty = True
                elif a[s][j] != 0:
                    col_op(j, s, a[s][j] // a[s][s])
            if dirty:
                continue
            witness = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s] != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_op(s, witness, -1)
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            left[s] = [-x for x in left[s]]
        s += 1

    diag = [a[i][i] if i < cols else 0 for i in range(min(rows, cols))]
    return (tuple(diag), tuple(tuple(r) for r in left),
            tuple(tuple(r) for r in right))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-40, 40), min_size=cols, max_size=cols),
    min_size=1, max_size=5)))
@example([[0, 0], [0, 0]])
@example([[6, 4, 10]])
@example([[4], [6], [-9]])
@example([[0, 0], [0, 3]])  # zero first column
@example([[0, 0, 0], [-3, 2, -1], [6, 0, 0]])
@example([[2, 0], [0, 3]])  # the pivot divides no entry of the rest: (1, 6)
def test_snf_matches_oracle(m):
    # the diagonal is unique, so the transform-free form returns the oracle's
    assert smith_normal_form(m) == oracle_smith_normal_form(m)[0]
    assert smith_normal_form(tuple(map(tuple, m))) == smith_normal_form(m)


def _oracle_kernel(row, target):
    """The earlier loop of integer_kernel_and_solution, kept as an oracle
    for its exact output: the first column of least nonzero |row . col|
    pivots, until no other column pairs nonzero."""
    n = len(row)
    if all(x == 0 for x in row):
        return ([0] * n if target == 0 else None), identity(n)
    cols = identity(n)
    vals = list(row)
    while True:
        p = min((i for i in range(n) if vals[i]), key=lambda i: abs(vals[i]))
        vals[0], vals[p] = vals[p], vals[0]
        cols[0], cols[p] = cols[p], cols[0]
        for i in range(1, n):
            q = vals[i] // vals[0]
            vals[i] -= q * vals[0]
            cols[i] = [x - q * y for x, y in zip(cols[i], cols[0])]
        if not any(vals[1:]):
            break
    d = vals[0]
    return (None if target % d else [target // d * x for x in cols[0]]), cols[1:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=8),
       st.integers(-200, 200))
@example([0], 0)
@example([0], 3)
@example([0, 0, 0], 0)
@example([0, 0, 0], -5)
@example([0, 6, 0, -4, 10], 2)
@example([-3, 0], 7)
@example([4, 6, -4, 6], 2)  # ties for the least value: the first one pivots
def test_integer_kernel_and_solution(row, target):
    g = gcd(*row)
    for t in (target, target * g):
        x0, kernel = integer_kernel_and_solution(row, t)
        # the kernel feeds the LLL of `neighbors`: its output is pinned
        assert (x0, kernel) == _oracle_kernel(row, t)
        assert (x0 is None) == (t % g != 0 if g else t != 0)
        if x0 is not None:
            assert len(x0) == len(row) and dot(row, x0) == t
    assert all(len(k) == len(row) and dot(row, k) == 0 for k in kernel)
    # with one x1 of row . x1 = gcd the kernel is a basis of Z^n, so the
    # kernel vectors are a Z-basis of the kernel, not only a Q-basis
    basis = list(kernel)
    if g:
        x1, _ = integer_kernel_and_solution(row, g)
        basis.append(x1)
    assert len(basis) == len(row) and abs(mat_det(basis)) == 1


def test_signature_examples():
    assert signature_of_symmetric([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) == (2, 1, 0)
    assert signature_of_symmetric([[0, 0], [0, 0]]) == (0, 0, 2)


def test_signature_fold_and_radical():
    # no nonzero diagonal pivot: the pair sum joins, the rest is the radical
    assert signature_of_symmetric([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature_of_symmetric([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == (1, 1, 1)
    assert signature_of_symmetric([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) == (1, 1, 1)
    # e_1 and e_2 are null only after projection off e_0; e_1 + e_2 joins
    assert signature_of_symmetric([[1, 1, 1], [1, 1, 2], [1, 2, 1]]) == (2, 1, 0)
    assert signature_of_symmetric([]) == (0, 0, 0)


# The earlier signature, kept as an oracle: congruence diagonalization over
# Fraction with symmetric Schur complements, folding row/column j into i
# when the remaining diagonal is all zero.

def _oracle_signature(g):
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    pos = neg = zero = 0

    def sym_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            hit = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if hit is None:
                zero += n - k
                break
            i, j = hit
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in range(n):
                a[r][i] += a[r][j]
            piv = i
        if piv != k:
            sym_swap(k, piv)
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k] != 0:
                f = a[r][k] / p
                for c in range(k + 1, n):
                    a[r][c] -= f * a[k][c]
        for r in range(k + 1, n):
            for c in range(k + 1, r):
                a[r][c] = a[c][r] = (a[r][c] + a[c][r]) / 2
            a[r][k] = a[k][r] = Fraction(0)
        k += 1
    return pos, neg, zero


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size 0..6; some with a zero diagonal,
    some rank-deficient (P^t m P for a selection P with repeated columns)."""
    n = draw(st.integers(0, 6))
    bound = draw(st.sampled_from([1, 3, 20]))
    upper = draw(st.lists(st.integers(-bound, bound),
                          min_size=n * n, max_size=n * n))
    m = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n and draw(st.booleans()):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        m = [[m[r][c] for c in cols] for r in cols]
    return m


@settings(max_examples=400, deadline=None)
@given(_symmetric_matrices())
@example([[1, 1, 0], [1, 1, 0], [0, 0, 2]])  # symmetric swap after a pivot
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # fold at step 0
def test_signature_matches_fraction_oracle(m):
    assert signature_of_symmetric(m) == _oracle_signature(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.sampled_from([[[1, 0, 0], [0, 1, -1], [0, 0, 1]],
                        [[1, 2, 0], [0, 1, 0], [1, 0, 1]],
                        [[0, 1, 0], [1, 0, 0], [0, 0, -1]]]))
def test_signature_congruence_invariant(m, g):
    sym = [[m[i][j] + m[j][i] for j in range(3)] for i in range(3)]
    gt = [[g[j][i] for j in range(3)] for i in range(3)]
    assert signature_of_symmetric(mat_mul(mat_mul(gt, sym), g)) == \
        signature_of_symmetric(sym)


def integral_gram_schmidt(g) -> GramSchmidt:
    """Integral Gram-Schmidt data of the basis whose Gram matrix is the
    integer matrix g, from rational Gram-Schmidt: d[i] = prod_{j<i} B_j and
    lam[i][j] = d[j+1] mu_ij, both checked integral. The oracle for the
    data `lll_reduce` returns. Raises ValueError unless g is symmetric
    positive definite (Sylvester: every d[i] > 0)."""
    n = len(g)
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("form is not symmetric")
    d, mu, norms = [Fraction(1)], [], []  # norms[j] = (b*_j, b*_j) = B_j
    for i in range(n):
        row = []
        for j in range(i):
            row.append((g[i][j] - sum(mu[j][k] * row[k] * norms[k]
                                      for k in range(j))) / norms[j])
        b = g[i][i] - sum(m * m * bk for m, bk in zip(row, norms))
        if b <= 0:
            raise ValueError("form is not positive definite")
        mu.append(row)
        norms.append(Fraction(b))
        d.append(d[-1] * b)
    lam = [[d[j + 1] * m for j, m in enumerate(row)] for row in mu]
    assert all(x.denominator == 1 for x in d + [y for r in lam for y in r])
    return GramSchmidt(tuple(int(x) for x in d),
                       tuple(tuple(int(x) for x in r) for r in lam))


def _walk(g, bound, off):
    """enumerate_short_vectors on the integer form g with a rational offset.
    With off = N / s, the points with Q_g(x + off) = bound are those with
    Q_{s g}(x + off) = s bound, and the products (s g) off = g N are
    integers."""
    off = [Fraction(v) for v in off]
    s = lcm(*(v.denominator for v in off))
    num = [int(v * s) for v in off]
    gs = integral_gram_schmidt([[s * v for v in row] for row in g])
    return enumerate_short_vectors(gs, Fraction(bound) * s, mat_vec(g, num))


def _below(g, bound, off, box):
    """(got, inside): inside holds the points of `box` with
    Q(x + off) <= bound, and got is the union of one boundary walk per value
    q <= bound that the box attains. Each walk must return only points of
    value q, and of the box points exactly those of value q."""
    off = [Fraction(v) for v in off]
    den = lcm(*(v.denominator for v in off))
    num = [int(v * den) for v in off]

    def scaled(x):  # den^2 Q(x + off), an integer
        y = [den * xi + ni for xi, ni in zip(x, num)]
        return bilinear(g, y, y)

    top = Fraction(bound) * den * den
    by_value: dict = {}
    for x in box:
        v = scaled(x)
        if v <= top:
            by_value.setdefault(v, set()).add(x)
    box = set(box)
    got = set()
    for v, pts in by_value.items():
        shell = _walk(g, Fraction(v, den * den), off)
        assert all(scaled(x) == v for x in shell)
        assert {x for x in shell if x in box} == pts
        got.update(shell)
    return got, set().union(*by_value.values())


def _cube(n, r):
    return list(itertools.product(range(-r, r + 1), repeat=n))


def test_short_vectors_examples():
    got, _ = _below([[2, 0], [0, 2]], 2, [0, 0], _cube(2, 2))
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert _below([[2, 0], [0, 2]], 1, [0, 0], _cube(2, 2))[0] == {(0, 0)}
    assert len(_below([[2, 1], [1, 2]], 2, [0, 0], _cube(2, 2))[0]) == 7
    gs = integral_gram_schmidt([[2, 0], [0, 2]])
    assert enumerate_short_vectors(gs, 2, [0, 0]) == [
        (-1, 0), (0, -1), (0, 1), (1, 0)]


def test_short_vectors_rejects_indefinite():
    # the walk runs on the Gram-Schmidt data of a definite form only
    with pytest.raises(ValueError):
        integral_gram_schmidt([[1, 0], [0, -1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_short_vectors_vs_brute_force(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        if mat_det(g) != 0 and all(abs(x) <= 10 for row in g for x in row):
            break
    off = [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)]
    bound = Fraction(rng.randint(1, 20))
    box = 6
    got, inside = _below(g, bound, off, _cube(n, box))
    # Q(x + off) <= bound, scaled by den^2 to integers
    den = lcm(*(f.denominator for f in off))
    num = [int(f * den) for f in off]
    scaled_bound = bound * den * den
    assert scaled_bound.denominator == 1
    scaled_bound = int(scaled_bound)

    def scaled_qval(x):
        y = [den * x[i] + num[i] for i in range(n)]
        return bilinear(g, y, y)

    for v in got:
        assert scaled_qval(v) <= scaled_bound
    assert got >= inside


def _random_definite(rng, n, spread=2):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        if mat_det(b) != 0:
            return [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_short_vectors_boundary_vs_brute_force(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    g = _random_definite(rng, n)
    off = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
    # a bound on which some point lies, half of the time
    target = None
    if rng.random() < 0.5:
        target = tuple(rng.randint(-2, 2) for _ in range(n))
        y = [target[i] + off[i] for i in range(n)]
        bound = bilinear(g, y, y)
    else:
        bound = Fraction(rng.randint(0, 30), rng.choice([1, 9]))

    def qval(x):
        y = [Fraction(x[i]) + off[i] for i in range(n)]
        return bilinear(g, y, y)

    box = _cube(n, 7)
    got, inside = _below(g, bound, off, box)
    assert got >= inside
    assert all(qval(v) <= bound for v in got)
    on = _walk(g, bound, off)
    assert on == sorted(set(on))
    assert all(qval(v) == bound for v in on)
    assert set(on) >= {x for x in got if qval(x) == bound}
    assert set(on) & set(box) == {x for x in inside if qval(x) == bound}
    assert target is None or target in on


@pytest.mark.parametrize("big", [10 ** 15, 10 ** 15 + 7, 3 * 10 ** 17])
def test_short_vectors_large_entries_and_denominators(big):
    # Q(v) = big (v0+v1)^2 + v0^2 + v1^2 + v2^2 and an offset with a
    # denominator near big: the points with Q <= bound have x + y = 0, and
    # their values differ from the bound by about 1/big, far below what a
    # float walk on entries this size can resolve
    den = big + 1
    g = [[big + 1, big, 0], [big, big + 1, 0], [0, 0, 1]]
    off = [Fraction(1, den), Fraction(-1, den), Fraction(big - 1, den)]

    def qval(x):
        y = [Fraction(x[i]) + off[i] for i in range(3)]
        return bilinear(g, y, y)

    for target in [(2, -2, 1), (-3, 3, 0), (0, 0, -2)]:
        bound = qval(target)
        box = 6  # Q <= 19 forces x + y = 0, |x| <= 3 and |z + 1| <= 5
        got, inside = _below(g, bound, off, _cube(3, box))
        on = sorted(x for x in inside if qval(x) == bound)
        assert target in on
        assert got == inside
        assert _walk(g, bound, off) == on


@pytest.mark.parametrize("q", [10 ** 8 + 7, 10 ** 9 + 9])
@pytest.mark.parametrize("k", [1, 12345, 10 ** 6 + 3])
def test_short_vectors_large_denominator_offset(q, k):
    # Q = q^2 (x + o)^2 + 2 (y + 1/2)^2 with o = -(k + 1/q): the points with
    # Q <= 3/2 are (k, 0) and (k, -1), both on the boundary. The entry q^2
    # is above 10^15; in floats x + o at x = k loses the 1/q to rounding for
    # large k, and a slack of 1e-6 (1 + |bound|) then prunes both points.
    g = [[q * q, 0], [0, 2]]
    off = [Fraction(-(k * q + 1), q), Fraction(1, 2)]
    bound = Fraction(3, 2)

    def qval(x):
        y = [Fraction(x[i]) + off[i] for i in range(2)]
        return bilinear(g, y, y)

    window = [(x, y) for x in range(k - 3, k + 4) for y in range(-3, 4)]
    got, inside = _below(g, bound, off, window)
    inside = sorted(inside)
    assert inside == [(k, -1), (k, 0)]
    assert all(qval(v) == bound for v in inside)
    assert sorted(got) == inside
    assert _walk(g, bound, off) == inside


def test_short_vectors_rational_form_and_empty_dimension():
    empty = integral_gram_schmidt([])
    assert enumerate_short_vectors(empty, 0, []) == [()]
    assert enumerate_short_vectors(empty, 1, []) == []
    assert enumerate_short_vectors(integral_gram_schmidt([[1]]), -1, [0]) == []


def _reduced_gram(red, gram):
    return [[bilinear(gram, bi, bj) for bj in red.basis] for bi in red.basis]


def _check_lll(basis, gram):
    red = lll_reduce(basis, gram)
    k = len(basis)
    # R = T B has the one solution T = R B^t (B B^t)^-1; the reduced basis
    # spans the input's lattice exactly when T is integral and unimodular
    bt = [list(c) for c in zip(*basis)]
    t = mat_mul(mat_mul(red.basis, bt), mat_inv(mat_mul(basis, bt)))
    assert all(x.denominator == 1 for row in t for x in row)
    assert abs(mat_det(t)) == 1
    assert mat_mul(t, basis) == [list(v) for v in red.basis]
    gs = red.gram_schmidt
    assert gs == integral_gram_schmidt(_reduced_gram(red, gram))
    d, lam = gs.d, gs.lam
    for i in range(k):
        for j in range(i):
            assert 2 * abs(lam[i][j]) <= d[j + 1]  # size-reduced
    for i in range(1, k):
        # Lovasz at 99/100: d_{i+1} d_{i-1} >= 99/100 d_i^2 - lam_{i,i-1}^2
        assert 100 * (d[i + 1] * d[i - 1] + lam[i][i - 1] ** 2) >= 99 * d[i] ** 2
    return red


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(1617)  # k = 3 and k = 2: the first vector is longer than an input
@example(2329)
def test_lll_properties(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 5, 6])
    gram = _random_definite(rng, n)
    k = rng.randint(1, n)
    while True:
        basis = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(k)]
        if mat_det(mat_mul(basis, [list(c) for c in zip(*basis)])) != 0:
            break
    red = _check_lll(basis, gram)
    # LLL's bound (b1, b1) <= (1 / (delta - 1/4))^(k - 1) (v, v) for every
    # lattice vector v; the first vector may still be longer than an input
    alpha = 1 / (LLL_DELTA - Fraction(1, 4))
    assert _reduced_gram(red, gram)[0][0] <= alpha ** (k - 1) * min(
        bilinear(gram, v, v) for v in basis)


def test_lll_on_an_indefinite_ambient_form():
    # the hyperbolic plane plus a definite block: (1, 1, 0) spans a definite
    # line, (1, 0, 0) is isotropic
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    red = _check_lll([[7, 5, 3], [0, 0, 1]], gram)
    assert red.gram_schmidt.d[-1] == mat_det(_reduced_gram(red, gram))
    with pytest.raises(ValueError):
        lll_reduce([[1, 0, 0]], gram)


def test_gram_schmidt_orthogonal_norm():
    gs = integral_gram_schmidt([[2, 1], [1, 2]])
    assert gs.d == (1, 2, 3) and gs.lam == ((), (1,))
    # x = (1, 0, 1) against b = (1, 0, 0), (0, 1, 0) under diag(2, 2, 5) with
    # a (1, 2) coupling: x* is e_2 minus nothing, so (x*, x*) = 5
    gs = integral_gram_schmidt([[2, 0], [0, 2]])
    assert gs.orthogonal_norm([2, 0], 7) == 5
    assert gs.orthogonal_norm([1, 1], 3) == 2


def test_gram_schmidt_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        integral_gram_schmidt([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        integral_gram_schmidt([[1, 2], [2, 1]])


def _flat(mat):
    return tuple(itertools.chain.from_iterable(mat))


@st.composite
def _square_pairs(draw):
    n = draw(st.integers(1, 4))
    # entries beyond 2**64 exercise Python's big integers
    entry = st.integers(-2**70, 2**70) | st.integers(-3, 3)
    return [draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=n, max_size=n)) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(_square_pairs())
def test_flat_mat_mul_matches_exact(pair):
    a, b = pair
    assert flat_mat_mul(_flat(a), _flat(b)) == _flat(mat_mul(a, b))


# zeros of both signs are drawn often: a product that started its sums at
# 0, as sum() does, would turn a -0.0 entry into 0.0
_FLOAT_3X3 = st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1e3, 1e3),
                      min_size=9, max_size=9)


@settings(max_examples=200, deadline=None)
@given(_FLOAT_3X3, _FLOAT_3X3)
@example([-0.0] * 9, [1.0] * 9)
def test_flat_mat_mul_floats_sum_left_to_right(a, b):
    expected = [a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
                for i in (0, 3, 6) for j in range(3)]
    got = flat_mat_mul(tuple(a), tuple(b))
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_nullspace_and_inverse():
    assert nullspace([[1, 1, 0], [0, 0, 1]]) != []
    m = [[2, 1], [1, 1]]
    inv = mat_inv(m)
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]
