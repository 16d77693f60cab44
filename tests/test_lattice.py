import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exact import oracle_smith_normal_form

from hypermono import lattice
from hypermono.distgraph import certify
from hypermono.exact import (
    bilinear,
    identity,
    mat_det,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    poly_mul,
    transpose,
)
from hypermono.exponents import (
    ExponentPair,
    FamilyError,
    FamilyId,
    _candidate_ids,
    classify,
    make_family,
)
from hypermono.lattice import (
    CERTIFIED,
    EVEN_TYPE,
    INCONCLUSIVE,
    ODD_TYPE,
    QuadLattice,
    companion_preserves,
    invariant_form,
    quotient_gate,
    reflection,
    root_vector,
    two_elementary,
)
from hypermono.levelt import (
    MonodromySystem,
    build,
    companion_matrix,
    lattice_basis,
)

F = Fraction


def _solve_invariant_form_direct(m):
    """Brute-force oracle: nullspace of {A^t f A = f, B^t f B = f} over the
    upper-triangle entries of a symmetric f. Returns a basis of solutions as
    full matrices."""
    n = m.n
    idx = {}
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = len(idx)
    rows = []
    for gen in (m.A, m.B):
        for r in range(n):
            for c in range(r, n):
                # (g^t f g - f)[r][c] = sum_{i,j} g[i][r] f[i][j] g[j][c] - f[r][c]
                coeff = [0] * len(idx)
                for i in range(n):
                    gir = gen[i][r]
                    if not gir:
                        continue
                    for j in range(n):
                        gjc = gen[j][c]
                        if not gjc:
                            continue
                        coeff[idx[(min(i, j), max(i, j))]] += gir * gjc
                coeff[idx[(r, c)]] -= 1
                rows.append(coeff)
    out = []
    for s in nullspace(rows):
        f = [[None] * n for _ in range(n)]
        for (i, j), k in idx.items():
            f[i][j] = f[j][i] = s[k]
        out.append(f)
    return out


def normalized_standard_form(m):
    sols = _solve_invariant_form_direct(m)
    assert len(sols) == 1
    f = sols[0]
    vv = bilinear(f, list(m.v), list(m.v))
    return [[x * F(-2) / vv for x in row] for row in f]


def test_gram_form1():
    for n in (5, 7):
        lat = invariant_form(build(make_family(FamilyId("N1", 1, n, n))))
        for i in range(n):
            for j in range(n):
                d = abs(i - j)
                expect = -2 if d == 0 else (-3 if d == 1 else -4)
                assert lat.gram[i][j] == expect
        assert lat.parity == EVEN_TYPE
        assert lat.signature == (n - 1, 1)


def test_gram_form3():
    lat = invariant_form(build(make_family(FamilyId("N1", 3, 7, 7))))
    # banded by the circular distance mod n+1 = 8
    by_dist = {0: -2, 1: -4, 2: -8, 3: -11, 4: -12}
    for i in range(7):
        for j in range(7):
            d = min(abs(i - j), 8 - abs(i - j))
            assert lat.gram[i][j] == by_dist[d]


def test_gram_diagonal_constancy():
    for fid in [FamilyId("M1", 1, None, 7), FamilyId("M2", 5, None, 7),
                FamilyId("N2", 1, 1, 7), FamilyId("N1", 1, 1, 7)]:
        lat = invariant_form(build(make_family(fid)))
        n = lat.n
        for d in range(n):
            vals = {lat.gram[i][i + d] for i in range(n - d)}
            assert len(vals) == 1, (fid, d)


def test_invariance_and_normalization():
    for fid in [FamilyId("M1", 1, None, 5), FamilyId("N1", 1, 7, 7)]:
        m = build(make_family(fid))
        f = normalized_standard_form(m)
        for gen in (m.A, m.B):
            gl = [list(r) for r in gen]
            assert mat_eq(mat_mul(mat_mul(transpose(gl), f), gl), f)
        assert bilinear(f, list(m.v), list(m.v)) == -2
        # pairing identity: (v, u) = -(n-th coordinate of u) for all u
        row = mat_vec(transpose(f), list(m.v))
        assert row == [0] * (m.n - 1) + [-1]


def test_basis_generator_transport():
    # conjugating the normalized form into the lattice basis reproduces the
    # integral Gram matrix
    m = build(make_family(FamilyId("N2", 1, 1, 7)))
    f = normalized_standard_form(m)
    basis = lattice_basis(m)
    lat = invariant_form(m)
    for i in range(m.n):
        for j in range(m.n):
            assert bilinear(f, basis[i], basis[j]) == lat.gram[i][j]


def _oracle_gram(m):
    f = normalized_standard_form(m)
    basis = lattice_basis(m)
    return tuple(tuple(bilinear(f, bi, bj) for bj in basis) for bi in basis)


def test_closed_form_matches_oracle_on_families():
    count = 0
    for n in (5, 7, 9):
        for fid in _candidate_ids(n):
            try:
                m = build(make_family(fid))
            except FamilyError:
                continue
            assert invariant_form(m).gram == _oracle_gram(m), fid
            count += 1
    assert count == 120


# pairs outside the families: even n (n = 4 and the n = 2 Finite pair),
# Finite, non-hyperbolic Orthogonal for odd n, and a hyperbolic n = 3 pair
@pytest.mark.parametrize("alpha, beta, category, hyperbolic", [
    ("0,0,0,1/2", "1/4,1/3,2/3,3/4", "Orthogonal", False),
    ("0,1/2", "1/3,2/3", "Finite", False),
    ("0,1/3,2/3", "1/4,1/2,3/4", "Finite", False),
    ("0,0,0,0,0", "1/3,1/2,1/2,1/2,2/3", "Orthogonal", False),
    ("0,0,0", "1/3,1/2,2/3", "Orthogonal", True),
])
def test_closed_form_matches_oracle_off_family(alpha, beta, category, hyperbolic):
    pair = ExponentPair.make([Fraction(x) for x in alpha.split(",")],
                             [Fraction(x) for x in beta.split(",")])
    cls = classify(pair)
    assert (cls.category, cls.hyperbolic) == (category, hyperbolic)
    m = build(pair)
    assert invariant_form(m).gram == _oracle_gram(m)


def test_invariant_form_rejects_tampered_system():
    m = build(make_family(FamilyId("N1", 1, 7, 7)))
    v = list(m.v)
    with pytest.raises(ValueError, match=r"\(v, v\) = -2"):
        invariant_form(replace(m, v=tuple(v[:-1] + [4])))
    with pytest.raises(ValueError, match="g-invariance"):
        invariant_form(replace(m, v=tuple([v[0] + 1] + v[1:])))
    with pytest.raises(ValueError, match="C-invariance"):
        invariant_form(replace(m, C=tuple(map(tuple, identity(m.n)))))
    with pytest.raises(ValueError, match="A C = B"):
        invariant_form(replace(m, B=m.A))
    with pytest.raises(ValueError, match="companion matrix"):
        invariant_form(replace(m, A=tuple(zip(*m.A)), rotation_generator="A"))


def _toeplitz_gram(m):
    """invariant_form's Gram matrix, G[i][j] = -(g^|i-j| v)_n, unchecked."""
    c = [-b[m.n - 1] for b in lattice_basis(m)]
    return [[c[abs(i - j)] for j in range(m.n)] for i in range(m.n)]


def _full_g_invariance(g, gram):
    return mat_eq(mat_mul(mat_mul(transpose(g), gram), g), gram)


N31_IDS = [FamilyId("N1", 1, 1, 31), FamilyId("M2", 15, None, 31),
           FamilyId("N2", 1, 1, 31)]


def test_companion_preserves_matches_full_product():
    # every buildable family instance for odd n <= 15, and the n = 31 trio;
    # with g as built, with one entry of its last column moved, and with one
    # diagonal of the Toeplitz G moved
    verdicts = Counter()
    ids = [fid for n in range(3, 16, 2) for fid in _candidate_ids(n)]
    for fid in ids + N31_IDS:
        try:
            m = build(make_family(fid))
        except FamilyError:
            continue
        n = m.n
        g = m.basis_generator()
        gram = _toeplitz_gram(m)
        cases = [(g, gram)]
        for k in sorted({0, n // 2, n - 1}):
            moved = [list(row) for row in g]
            moved[k][n - 1] += 1
            cases.append((moved, gram))
        shifted = [[x + 2 * (abs(i - j) == n // 2) for j, x in enumerate(row)]
                   for i, row in enumerate(gram)]
        cases.append((g, shifted))
        for gk, gr in cases:
            want = _full_g_invariance(gk, gr)
            assert companion_preserves(gr, [row[n - 1] for row in gk]) == want, fid
            verdicts[want] += 1
        verdicts["instances"] += 1
    assert verdicts["instances"] == 354 + 3
    assert verdicts[True] >= verdicts["instances"] and verdicts[False] > 0


def test_companion_preserves_checks_each_condition():
    # g^t G g = G comes down to n conditions on the last column p of g:
    # (G p)[k] = G[k-1][n-1] for k = 1..n-1, and p^t G p = G[n-1][n-1].
    # A step t G^-1 e_k moves (G p)[k] alone and p^t G p by 2 t p_k
    # + t^2 (G^-1)[k][k]; for k >= 1, t = -2 p_k / (G^-1)[k][k] keeps the
    # latter, so exactly one condition fails. For k = 0, t = 1 moves
    # p^t G p alone.
    for fid in (FamilyId("N4", 1, 7, 9), FamilyId("N3", 1, 8, 9)):
        m = build(make_family(fid))
        n = m.n
        g = m.basis_generator()
        gram = _toeplitz_gram(m)
        p = [row[n - 1] for row in g]
        inv = mat_inv(gram)
        for k in range(n):
            w = [row[k] for row in inv]
            t = F(1) if k == 0 else -2 * p[k] / w[k]
            assert t != 0, (fid, k)
            moved = [x + t * y for x, y in zip(p, w)]
            assert [x - y for x, y in zip(mat_vec(gram, moved),
                                          mat_vec(gram, p))] == [
                t * (i == k) for i in range(n)]
            gk = [row[:n - 1] + [x] for row, x in zip(g, moved)]
            assert not _full_g_invariance(gk, gram), (fid, k)
            assert not companion_preserves(gram, moved), (fid, k)


def test_invariant_form_rejects_perturbed_generator_column():
    for fid in [FamilyId("N1", 1, 7, 7), FamilyId("N1", 1, 1, 7),
                FamilyId("M2", 5, None, 11)] + N31_IDS:
        m = build(make_family(fid))
        name = m.rotation_generator or "A"
        for k in (0, m.n - 1):
            gen = [list(row) for row in getattr(m, name)]
            gen[k][m.n - 1] += 1
            with pytest.raises(ValueError, match=re.escape(
                    "invariant form check failed: g-invariance g^t G g = G")):
                invariant_form(replace(m, **{name: tuple(map(tuple, gen))}))


@pytest.mark.parametrize("fid", [FamilyId("N1", 1, 7, 7),
                                 FamilyId("M2", 5, None, 11), N31_IDS[0]],
                         ids=str)
def test_invariant_form_rejects_every_single_entry_mutation(fid):
    # +1 on one entry of C fails the closed form of C, and +1 on one entry of
    # the generator that spans no basis fails A C = B; the full products
    # C g^j v and A C reject the same mutations
    m = build(make_family(fid))
    other = "A" if m.rotation_generator == "B" else "B"
    for name, what in (("C", "C-invariance"), (other, "A C = B")):
        for i in range(m.n):
            for j in range(m.n):
                mat = [list(row) for row in getattr(m, name)]
                mat[i][j] += 1
                with pytest.raises(ValueError, match=what):
                    invariant_form(replace(m, **{name: tuple(map(tuple, mat))}))


@st.composite
def dependent_systems(draw):
    """A system of size n <= 5 whose lattice basis is dependent by
    construction: g is the companion matrix of p = (z - r) p1 and v(z) =
    (z - r) v1(z) for r = +-1, with v_n = 2, so K = v(g) is singular; C and
    B come from the closed forms C = I - v e_n^t and B = A C. The pair is a
    placeholder, as invariant_form does not read it."""
    n = draw(st.integers(2, 5))
    r = draw(st.sampled_from([1, -1]))

    def coefficients(size):
        return draw(st.lists(st.integers(-3, 3), min_size=size,
                             max_size=size))

    a = companion_matrix(poly_mul([-r, 1], coefficients(n - 1) + [1]))
    v = poly_mul([-r, 1], coefficients(n - 2) + [2])
    c = [[(i == j) - (x if j == n - 1 else 0) for j in range(n)]
         for i, x in enumerate(v)]
    return MonodromySystem(
        pair=ExponentPair.make([0, F(1, 2)], [F(1, 4), F(3, 4)]),
        A=tuple(map(tuple, a)), B=tuple(map(tuple, mat_mul(a, c))),
        C=tuple(map(tuple, c)), v=tuple(v), rotation_order=None,
        rotation_generator=None, order_A=None, order_B=None)


@settings(max_examples=200, deadline=None)
@given(dependent_systems())
def test_invariant_form_rejects_dependent_bases(m):
    assert mat_det([list(b) for b in lattice_basis(m)]) == 0
    with pytest.raises(ValueError):
        invariant_form(m)


def test_parity_odd_type():
    lat = invariant_form(build(make_family(FamilyId("N1", 1, 1, 7))))
    assert lat.parity == ODD_TYPE
    assert all(x % 2 == 0 for row in lat.gram for x in row)
    assert any((lat.gram[i][i] // 2) % 2 for i in range(lat.n))


def test_reflections_preserve_gram():
    lat = invariant_form(build(make_family(FamilyId("N1", 1, 7, 7))))
    g = [list(r) for r in lat.gram]
    for i in range(lat.n):
        e = [1 if j == i else 0 for j in range(lat.n)]
        r = reflection(root_vector(lat, e))
        assert mat_eq(mat_mul(r, r), identity(lat.n))
        assert mat_eq(mat_mul(mat_mul(transpose(r), g), r), g)


def test_two_elementary():
    assert two_elementary(QuadLattice.from_gram([[2, 0], [0, -2]]))
    assert not two_elementary(QuadLattice.from_gram([[2, 1], [1, -1]]))


def test_invariant_factors_are_formed_on_first_read(monkeypatch):
    # the odd-type gate never reads them, so an odd-type certificate forms
    # no Smith normal form
    real = lattice.smith_normal_form
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    m = build(make_family(FamilyId("N1", 1, 1, 9)))
    assert certify(m).path is not None and calls == []
    lat = invariant_form(m)
    assert lat.parity == ODD_TYPE and calls == []
    want = tuple(sorted(d for d in real(lat.gram) if d > 1))
    assert lat.inv_factors == want
    assert lat.inv_factors == want and len(calls) == 1  # formed once
    assert QuadLattice.from_gram(lat.gram) == lat


def test_inv_factors_match_the_transform_oracle():
    # the factors > 1 on the diagonal of the Smith form that carries both
    # transforms, on every hyperbolic family lattice for odd n = 5..15
    count = 0
    for n in range(5, 16, 2):
        for fid in _candidate_ids(n):
            try:
                m = build(make_family(fid))
            except FamilyError:
                continue
            if not classify(m.pair).hyperbolic:
                continue
            lat = invariant_form(m)
            diag, _, _ = oracle_smith_normal_form(lat.gram)
            assert lat.inv_factors == tuple(d for d in diag if d > 1), fid
            count += 1
    assert count == 341


def test_quotient_gate_even():
    lat = invariant_form(build(make_family(FamilyId("N1", 1, 7, 7))))
    gate = quotient_gate(lat)
    assert gate.verdict == CERTIFIED


def test_quotient_gate_odd_threshold():
    lat9 = invariant_form(build(make_family(FamilyId("N1", 1, 1, 9))))
    assert lat9.parity == ODD_TYPE
    assert quotient_gate(lat9).verdict == INCONCLUSIVE
    lat31 = invariant_form(build(make_family(FamilyId("N1", 1, 1, 31))))
    assert quotient_gate(lat31).verdict == CERTIFIED


def test_quotient_gate_requires_hyperbolic():
    with pytest.raises(ValueError):
        quotient_gate(QuadLattice.from_gram([[2, 0], [0, 2]]))


# fixture: f = 2x1^2 + 5x2^2 + 10x3^2 - x4^2, u = (1,1,1,4), f(u) = 1
FIX_G = [[2, 0, 0, 0], [0, 5, 0, 0], [0, 0, 10, 0], [0, 0, 0, -1]]
FIX_H = [[-2, 0, -5, 2], [0, 1, 0, 0], [-1, 0, -6, 2], [-4, 0, -20, 7]]
FIX_GMAT = [[1, 0, 0, 0], [0, -2, -2, 1], [0, -1, -3, 1], [0, -5, -10, 4]]
FIX_R1 = [[-6, -10, -25, 10], [-4, -9, -20, 8],
          [-5, -10, -26, 10], [-20, -40, -100, 39]]


def test_diag_fixture_reflection():
    lat = QuadLattice.from_gram(FIX_G)
    assert lat.parity is None  # mixed diagonal parity pattern is allowed here
    u = root_vector(lat, [1, 1, 1, 4])
    assert u.norm == 1 and u.is_root
    ru = reflection(u)
    assert mat_eq(mat_mul(ru, ru), identity(4))
    # both printed isometries preserve f
    for mtx in (FIX_H, FIX_GMAT):
        assert mat_eq(mat_mul(mat_mul(transpose(mtx), FIX_G), mtx), FIX_G)
    r1 = mat_mul(FIX_H, ru)
    assert r1 == FIX_R1
    sigma1 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert not mat_eq(mat_mul(sigma1, r1), mat_mul(r1, sigma1))
