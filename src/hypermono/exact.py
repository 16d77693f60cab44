"""Exact rational/integer linear algebra, cyclotomic polynomials, the Smith
diagonal, integral LLL, short-vector enumeration, and the breadth-first word
enumeration that the growth probe and the rank-3 checks share. Given each
generator's inverse, that enumeration skips the product of an element with
the inverse of its last letter, which only leads back to its parent; the
skip changes no output.

Everything here is arbitrary precision: polynomials are lists of ints
(ascending degree), matrices are sequences of rows over int or Fraction and
vectors sequences of entries, lists or the tuples that the frozen
dataclasses store, read in place. An input is copied only to be worked on:
the basis by `lll_reduce`, the matrix by `smith_normal_form` (neither forms
its unimodular transforms) and by `signature_of_symmetric`, the row by
`integer_kernel_and_solution` as the values of its unit columns, and a
Fraction copy by each rational elimination (`mat_inv`, `mat_det`,
`nullspace`). Of those eliminations the package calls only `mat_inv`, for
the growth generators' inverses; `mat_det` and `nullspace` serve the tests.
`flat_mat_mul`, the product of the Dirichlet word enumeration and of the
growth letters that are not companion matrices, takes flat row-major
tuples, of ints or of the Dirichlet regions' floats.
Nothing else here uses floating point: enumerate_short_vectors walks the
integer points on one ellipsoid Q(x + o) = bound of a positive definite
integer form, taking the form's integral Gram-Schmidt data (as
`lll_reduce` returns it) and the offset as integer products g * o, and
bounds each coordinate with math.isqrt on integers, so its pruning is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient lists over Z)
# ---------------------------------------------------------------------------

def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod_exact(p: Sequence[int], q: Sequence[int]) -> list[int] | None:
    """Quotient p/q over Z if the division is exact, else None.

    q must have leading coefficient +-1 (all our divisors are monic).
    """
    p = poly_trim(p)
    q = poly_trim(q)
    assert q, "division by zero polynomial"
    assert q[-1] in (1, -1)
    if not p:
        return []
    if len(p) < len(q):
        return None
    rem = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(q) - 1] // q[-1]
        quot[k] = c
        if c:
            for j, b in enumerate(q):
                rem[k + j] -= c * b
    if any(rem):
        return None
    return quot


@cache
def euler_phi(d: int) -> int:
    assert d >= 1
    out = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@cache
def moebius(d: int) -> int:
    assert d >= 1
    out = 1
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


@cache
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Phi_d as an ascending coefficient tuple (monic, degree phi(d))."""
    assert d >= 1
    # z^d - 1 divided by Phi_e for all proper divisors e | d
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = poly_divmod_exact(p, cyclotomic_poly(e))
            assert p is not None
    assert len(p) - 1 == euler_phi(d)
    return tuple(p)


# ---------------------------------------------------------------------------
# matrices / vectors
# ---------------------------------------------------------------------------

Vec = Sequence  # of int | Fraction
Mat = Sequence  # of rows


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Mat) -> Mat:
    return [list(row) for row in zip(*m)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def flatten(m: Mat) -> tuple:
    """The rows of m as one flat row-major tuple, the format of
    flat_mat_mul."""
    return tuple(chain.from_iterable(m))


def flat_mat_mul(a: tuple, b: tuple) -> tuple:
    """Product of two n x n matrices stored as flat row-major tuples, with
    int or float entries. The 3 x 3 case, that of the rank-3 examples, is
    unrolled; each of its entries sums its three terms left to right."""
    if len(a) == 9:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
                a0 * b2 + a1 * b5 + a2 * b8,
                a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
                a3 * b2 + a4 * b5 + a5 * b8,
                a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
                a6 * b2 + a7 * b5 + a8 * b8)
    n = isqrt(len(a))
    cols = [b[j::n] for j in range(n)]
    return tuple(sum(map(mul, a[i:i + n], col))
                 for i in range(0, n * n, n) for col in cols)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(map(mul, row, v)) for row in a]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [x - y for x, y in zip(u, v)]


def dot(u: Vec, v: Vec):
    return sum(map(mul, u, v))


def bilinear(g: Mat, u: Vec, v: Vec):
    return dot(u, mat_vec(g, v))


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def mat_to_int(a: Mat) -> Mat:
    out = []
    for row in a:
        r = []
        for x in row:
            fx = Fraction(x)
            if fx.denominator != 1:
                raise ValueError("matrix entry %r is not an integer" % (x,))
            r.append(int(fx))
        out.append(r)
    return out


def mat_inv(m: Mat) -> Mat:
    """Exact inverse over Q (Gauss-Jordan). Raises ValueError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def mat_det(m: Mat) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the rational kernel of m (list of Fraction vectors)."""
    if not m:
        return []
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(v: Vec) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer vector."""
    fr = [Fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * den) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    assert g != 0, "zero vector has no primitive scaling"
    return [x // g for x in ints]


# ---------------------------------------------------------------------------
# breadth-first word enumeration
# ---------------------------------------------------------------------------

def word_bfs(start, gens, mul, key, depth: int, keep=None, inverse=None):
    """Breadth-first over the elements start * g1 * ... * gk (gi in gens,
    products formed by `mul`, k <= depth): yields (k, x) the first time
    key(x) is reached, from (0, start) on, lazily, so a consumer that stops
    computes nothing further. A product failing `keep` is dropped before
    the dedupe check.

    With `inverse`, gens[inverse[i]] is the inverse of gens[i] (an
    involution is its own), and an element first reached through gens[i]
    is never multiplied by gens[inverse[i]]: that backtrack is the element's
    parent, whose key is already seen, so skipping it changes no output."""
    n = len(gens)
    every = list(enumerate(gens))
    # follow[i]: the letters that may come after letter i; follow[n] (no
    # letter yet) is every letter, and so is each entry without `inverse`
    follow = ([every] * n if inverse is None else
              [[(j, g) for j, g in every if j != inverse[i]]
               for i in range(n)])
    follow.append(every)
    seen = {key(start)}
    # each frontier element's last letter, kept beside it in a bytearray
    # when the letters fit in one
    frontier, last = [start], bytearray((n,)) if n < 256 else [n]
    yield 0, start
    for length in range(1, depth + 1):
        nxt, nxt_last = [], type(last)()
        for x, i in zip(frontier, last):
            for j, g in follow[i]:
                y = mul(x, g)
                if keep is not None and not keep(y):
                    continue
                k = key(y)
                if k not in seen:
                    seen.add(k)
                    nxt.append(y)
                    nxt_last.append(j)
                    yield length, y
        frontier, last = nxt, nxt_last


# ---------------------------------------------------------------------------
# Euclid's algorithm on lines: the Smith diagonal, and the integer solutions
# of one linear equation
# ---------------------------------------------------------------------------

def _euclid(vals: list[int], lines: list[list[int]]) -> int:
    """Euclid's algorithm on the lines, driven by their values, in place:
    vals[i] is a linear function of lines[i]. The line of least nonzero
    |value| (the first such index) moves to the front as the pivot p, and
    every other line l becomes l - q p with q = floor(value of l / value of
    p), until every value but the front one is 0. Each step is unimodular.
    Returns the front value, +-gcd(vals), or 0 when every value is 0."""
    n = len(vals)
    while True:
        p = min((i for i in range(n) if vals[i]), key=lambda i: abs(vals[i]),
                default=None)
        if p is None:
            return 0
        vals[0], vals[p] = vals[p], vals[0]
        lines[0], lines[p] = lines[p], lines[0]
        d, pivot = vals[0], lines[0]
        for i in range(1, n):
            q = vals[i] // d
            if q:
                vals[i] -= q * d
                lines[i] = [x - q * y for x, y in zip(lines[i], pivot)]
        if not any(vals[1:]):
            return d


def smith_normal_form(m: Mat) -> tuple[int, ...]:
    """The Smith diagonal d1 | d2 | ... of a rectangular integer matrix m:
    the min(rows, cols) nonnegative entries of L m R = D for unimodular L
    and R, which are not formed (D is unique, L and R are not).

    On a copy of m, each step moves a nonzero column to the front and
    clears the first column by row operations (`_euclid` on the rows). If
    the pivot divides the first row, column operations clear it and change
    no other row. If not, the first row is cleared as the first column of
    the transpose, which has the same diagonal, and the clearing repeats
    with a smaller pivot. If the pivot fails to divide some row of the rest,
    that row is added to the first row and the clearing repeats. |pivot| is
    recorded and the first row and column dropped; a zero block leaves
    zeros."""
    a = [[int(x) for x in row] for row in m]
    size = min(len(a), len(a[0])) if a else 0
    diag = []
    while a and a[0]:
        j = next((j for j, col in enumerate(zip(*a)) if any(col)), None)
        if j is None:
            break
        for row in a:
            row[0], row[j] = row[j], row[0]
        while True:
            d = _euclid([row[0] for row in a], a)
            if any(x % d for x in a[0]):
                a = [list(col) for col in zip(*a)]
                continue
            # the pivot divides the first row: clearing it by column
            # operations changes no other row
            witness = next((row for row in a[1:] if any(x % d for x in row)),
                           None)
            if witness is None:
                break
            a[0] = [d, *witness[1:]]
        diag.append(abs(d))
        a = [row[1:] for row in a[1:]]
    return tuple(diag) + (0,) * (size - len(diag))


def integer_kernel_and_solution(row: list[int], target: int):
    """Solve row . x = target over Z.

    Returns (x0, kernel_basis): kernel_basis is a Z-basis of
    {x : row . x = 0}, and x0 is None when no solution exists.

    `_euclid` on the unit columns, driven by their values row . col. Its
    steps are unimodular column operations, so the columns stay a basis of
    Z^n: the front one p has row . p = +-gcd(row) = d, x0 = (target / d) p,
    and the others are a basis of the kernel. A zero row leaves d = 0 and
    the identity, all kernel. Pivoting on the least value keeps the kernel
    vectors short for the LLL that reduces them."""
    n = len(row)
    cols = identity(n)
    d = _euclid(list(row), cols)
    if not d:
        return ([0] * n if target == 0 else None), cols
    x0 = None if target % d else [target // d * x for x in cols[0]]
    return x0, cols[1:]


# ---------------------------------------------------------------------------
# signature (Sylvester inertia) of a symmetric integer matrix
# ---------------------------------------------------------------------------

def signature_of_symmetric(g: Mat) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix, by
    fraction-free symmetric elimination (Bareiss 1968) on a copy.

    At step k a nonzero diagonal entry of the trailing block moves to (k, k)
    by a symmetric swap; it is then the leading minor d_{k+1} of a matrix
    congruent to g, and the k-th pivot d_{k+1} / d_k has the sign of
    d_{k+1} d_k (Jacobi). The block becomes (d_{k+1} x - c y) / d_k, an
    exact division: d_{k+1} times the Schur complement. If its diagonal is
    zero but some entry (i, j) is not, adding row and column j to row and
    column i (a congruence) makes the diagonal entry 2 (i, j). A zero block
    is the radical, and each of its rows counts as zero (Sylvester)."""
    n = len(g)
    for i in range(n):
        for j in range(i):
            assert g[i][j] == g[j][i], "matrix is not symmetric"
    a = [list(row) for row in g]
    prev, pos, neg = 1, 0, 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            hit = next(((i, j) for i, row in enumerate(a)
                        for j, x in enumerate(row) if x), None)
            if hit is None:
                break
            k, j = hit
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        a[0], a[k] = a[k], a[0]
        for row in a:
            row[0], row[k] = row[k], row[0]
        piv, *top = a[0]
        pos += piv * prev > 0
        neg += piv * prev < 0
        a = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for row in a[1:]]
        prev = piv
    return pos, neg, len(a)


# ---------------------------------------------------------------------------
# integral Gram-Schmidt, LLL, and short vectors of a positive definite form
# ---------------------------------------------------------------------------

def _gram_schmidt_row(d, lam, products, norm: int) -> tuple[list[int], int]:
    """One step of the integral Gram-Schmidt recurrence (Cohen, Alg. 2.6.7
    step 2) for a vector x given by its products (b_j, x) with the first
    len(products) basis vectors and its norm (x, x). Returns the row
    lam_x[j] = d[j+1] * mu_xj and d[k] * (x*, x*), where x* is x minus its
    projection onto the span of b_0..b_{k-1}. Every division is exact."""
    row: list[int] = []
    for j, u in enumerate(products):
        lam_j = lam[j]
        for i in range(j):
            u = (d[i + 1] * u - row[i] * lam_j[i]) // d[i]
        row.append(u)
    for i, t in enumerate(row):
        norm = (d[i + 1] * norm - t * t) // d[i]
    return row, norm


@dataclass(frozen=True)
class GramSchmidt:
    """Integral Gram-Schmidt data of a basis b_0..b_{k-1} under a positive
    definite integral form: d[i] is the Gram determinant of b_0..b_{i-1}
    (d[0] = 1), and lam[i][j] = d[j+1] * mu_ij for j < i, where
    b_i = b*_i + sum_{j<i} mu_ij b*_j. All entries are integers, and
    (b*_i, b*_i) = d[i+1] / d[i]."""
    d: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]

    def orthogonal_norm(self, products, norm: int) -> Fraction:
        """(x*, x*) for x* = x minus its projection onto the basis span, from
        the integer products (b_j, x) and (x, x); no solve."""
        _, r = _gram_schmidt_row(self.d, self.lam, products, norm)
        return Fraction(r, self.d[-1])


@dataclass(frozen=True)
class LLLReduction:
    """An LLL-reduced basis of the input's lattice and its integral
    Gram-Schmidt data. The unimodular transform from the input basis is not
    formed."""
    basis: tuple[tuple[int, ...], ...]
    gram_schmidt: GramSchmidt


LLL_DELTA = Fraction(99, 100)


def lll_reduce(basis: list[Vec], gram: Mat) -> LLLReduction:
    """Integral LLL (Lenstra-Lenstra-Lovasz 1982; Cohen, Alg. 2.6.7) of
    linearly independent integer vectors under a symmetric integral form
    that is positive definite on their span. Integer arithmetic throughout:
    the result is size-reduced (2|lam[i][j]| <= d[j+1]) and satisfies the
    Lovasz condition d[i+1] d[i-1] >= LLL_DELTA d[i]^2 - lam[i][i-1]^2.

    Raises ValueError if the form is not positive definite on the span."""
    k = len(basis)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    b = [list(v) for v in basis]
    d = [1] + [0] * k
    lam = [[0] * k for _ in range(k)]

    def reduce(i: int, j: int):  # size-reduce b_i against b_j, j < i
        dj = d[j + 1]
        if 2 * abs(lam[i][j]) <= dj:
            return
        q = (2 * lam[i][j] + dj) // (2 * dj)  # nearest integer to lam/dj
        b[i] = [x - q * y for x, y in zip(b[i], b[j])]
        lam[i][j] -= q * dj
        lam_i, lam_j = lam[i], lam[j]
        for t in range(j):
            lam_i[t] -= q * lam_j[t]

    def swap(i: int, top: int):  # exchange b_{i-1} and b_i (SWAPI)
        b[i], b[i - 1] = b[i - 1], b[i]
        lam_i, lam_p = lam[i], lam[i - 1]
        for j in range(i - 1):
            lam_i[j], lam_p[j] = lam_p[j], lam_i[j]
        mu = lam_i[i - 1]
        big = (d[i - 1] * d[i + 1] + mu * mu) // d[i]
        for r in range(i + 1, top + 1):
            t = lam[r][i]
            lam[r][i] = (d[i + 1] * lam[r][i - 1] - mu * t) // d[i]
            lam[r][i - 1] = (big * t + mu * lam[r][i]) // d[i + 1]
        d[i] = big

    top = -1  # highest index whose Gram-Schmidt data is known
    i = 0
    while i < k:
        if i > top:
            top = i
            # reduce and swap touch indices <= top, so b_i is still the input
            gbi = mat_vec(gram, b[i])
            row, di = _gram_schmidt_row(
                d, lam, [dot(b[j], gbi) for j in range(i)], dot(b[i], gbi))
            if di <= 0:
                raise ValueError("form is not positive definite on the span")
            lam[i][:i] = row
            d[i + 1] = di
        if i == 0:
            i = 1
            continue
        reduce(i, i - 1)
        mu = lam[i][i - 1]
        if den * (d[i + 1] * d[i - 1] + mu * mu) < num * d[i] * d[i]:
            swap(i, top)
            i = max(1, i - 1)
        else:
            for j in range(i - 2, -1, -1):
                reduce(i, j)
            i += 1
    return LLLReduction(
        tuple(tuple(v) for v in b),
        GramSchmidt(tuple(d), tuple(tuple(lam[i][:i]) for i in range(k))))


def enumerate_short_vectors(gs: GramSchmidt, bound,
                            products: Vec) -> list[tuple[int, ...]]:
    """All integer x with Q(x + o) = bound, sorted.

    Q is the positive definite integer form g whose integral Gram-Schmidt
    data is gs (the `gram_schmidt` of an `lll_reduce` result), the offset
    o is given by the integer products g * o (so nothing is inverted), and
    bound is rational.

    Fincke-Pohst (1985) in integers. Q(x + o) = sum_i T_i^2 / (d_i d_{i+1})
    where T_i = d_{i+1} x_i + sum_{j>i} lam_ji x_j + c_i is an integer (c is
    one more row of the recurrence, fed g * o). Scaled by L = lcm(d_i d_{i+1})
    and the bound's denominator, each level bounds |T_i| with math.isqrt of
    the remaining integer budget: no rounding anywhere, so the walk visits
    exactly the points of the ellipsoid's projections, and a leaf is kept
    exactly when its residual budget is 0.
    """
    bound = Fraction(bound)
    if bound < 0:
        return []
    d, lam = gs.d, gs.lam
    n = len(lam)
    centre, _ = _gram_schmidt_row(d, lam, products, 0)
    big_l = lcm(*(d[i] * d[i + 1] for i in range(n)))
    weight = [bound.denominator * big_l // (d[i] * d[i + 1]) for i in range(n)]
    budget = bound.numerator * big_l
    if n == 0:
        return [] if budget else [()]
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def walk(i: int, rem: int, centre: list[int]):
        # T_i = d_{i+1} x_i + centre_i, and weight_i T_i^2 <= rem
        w, a, c = weight[i], d[i + 1], centre[i]
        r = isqrt(rem // w)
        if i == 0:
            if w * r * r == rem:
                for t in ((r, -r) if r else (0,)):
                    if (t - c) % a == 0:
                        x[0] = (t - c) // a
                        out.append(tuple(x))
            return
        lam_i = lam[i]
        for xi in range(-((r + c) // a), (r - c) // a + 1):
            t = a * xi + c
            x[i] = xi
            walk(i - 1, rem - w * t * t,
                 [cj + lj * xi for cj, lj in zip(centre, lam_i)])

    walk(n - 1, budget, centre)
    # walk reaches itself through its closure; break that cycle so the
    # search state is freed on return rather than at the next gc pass
    del walk
    out.sort()
    return out
