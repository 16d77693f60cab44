from fractions import Fraction

import pytest

from hypermono.exact import (
    identity,
    mat_det,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_to_int,
    mat_vec,
    nullspace,
)
from hypermono.exponents import (
    ExponentPair,
    FamilyError,
    FamilyId,
    _candidate_ids,
    cyclotomic_structure,
    make_family,
    poly_from_structure,
)
from hypermono.lattice import invariant_form, reflection, root_vector
from hypermono.levelt import (
    MonodromySystem,
    build,
    companion_matrix,
    hr_generators,
    lattice_basis,
)

SAMPLE_IDS = [
    FamilyId("M1", 1, None, 5),
    FamilyId("M2", 3, None, 5),
    FamilyId("N1", 1, 7, 7),
    FamilyId("N1", 1, 1, 5),
    FamilyId("N2", 1, 1, 7),
    FamilyId("N2", 4, 1, 5),
    FamilyId("N3", 1, 2, 5),
]


def char_poly_matches(m, poly):
    # the companion matrix of p has char poly p: last column is -p[0..n-1]
    n = len(poly) - 1
    for i in range(n):
        assert m[i][n - 1] == -poly[i]
        for j in range(n - 1):
            assert m[i][j] == (1 if i == j + 1 else 0)


def test_companion_matrix_shape():
    c = companion_matrix([2, 3, 1])
    assert c == [[0, -2], [1, -3]]


def test_build_polynomials_and_C():
    for fid in SAMPLE_IDS:
        m = build(make_family(fid))
        p = poly_from_structure(cyclotomic_structure(m.pair.alpha))
        q = poly_from_structure(cyclotomic_structure(m.pair.beta))
        char_poly_matches(m.A, p)
        char_poly_matches(m.B, q)
        a = [list(r) for r in m.A]
        b = [list(r) for r in m.B]
        c = [list(r) for r in m.C]
        assert mat_eq(mat_mul(a, c), b)
        assert mat_eq(mat_mul(c, c), identity(m.n))
        # eigenspace dimensions: dim ker(C - I) = n-1, dim ker(C + I) = 1
        n = m.n
        assert len(nullspace([[c[i][j] - (i == j) for j in range(n)]
                              for i in range(n)])) == n - 1
        assert len(nullspace([[c[i][j] + (i == j) for j in range(n)]
                              for i in range(n)])) == 1
        assert mat_vec(c, list(m.v)) == [-x for x in m.v]


def _rational_C(m):
    return mat_to_int(mat_mul(mat_inv([list(r) for r in m.A]),
                              [list(r) for r in m.B]))


def test_build_C_equals_rational_solve_on_families():
    # C = I - v e_n^t from the closed form, against A^{-1} B over Q
    count = 0
    for n in range(3, 12):
        for fid in _candidate_ids(n):
            try:
                m = build(make_family(fid))
            except (FamilyError, ValueError):
                continue
            assert [list(r) for r in m.C] == _rational_C(m), fid
            count += 1
    assert count == 192


F = Fraction
NON_FAMILY_PAIRS = [
    ([0, F(1, 3), F(2, 3)], [F(1, 2), F(1, 4), F(3, 4)]),
    ([0, F(1, 2), F(1, 3), F(2, 3)], [F(1, 4), F(3, 4), F(1, 6), F(5, 6)]),
    ([0, F(1, 5), F(2, 5), F(3, 5), F(4, 5)],
     [F(1, 2), F(1, 4), F(3, 4), F(1, 6), F(5, 6)]),
]


@pytest.mark.parametrize("alpha,beta", NON_FAMILY_PAIRS)
def test_build_C_equals_rational_solve_off_families(alpha, beta):
    m = build(ExponentPair.make(alpha, beta))
    assert [list(r) for r in m.C] == _rational_C(m)
    assert mat_vec([list(r) for r in m.C], list(m.v)) == [-x for x in m.v]


@pytest.mark.parametrize("alpha,beta", [
    ([0, 0], [F(1, 2), F(1, 2)]),
    ([F(1, 3), F(2, 3)], [F(1, 4), F(3, 4)]),
])
def test_build_rejects_equal_constant_terms(alpha, beta):
    # p(0) = q(0): A^{-1} B has determinant 1 and no eigenvalue -1
    pair = ExponentPair.make(alpha, beta)
    a = companion_matrix(poly_from_structure(cyclotomic_structure(pair.alpha)))
    b = companion_matrix(poly_from_structure(cyclotomic_structure(pair.beta)))
    c = mat_to_int(mat_mul(mat_inv(a), b))
    n = len(c)
    assert nullspace([[c[i][j] + (i == j) for j in range(n)]
                      for i in range(n)]) == []
    with pytest.raises(ValueError, match="Cartan eigenspace is not one-dimensional"):
        build(pair)


def test_printed_cartan_vectors():
    assert build(make_family(FamilyId("M1", 1, None, 5))).v == (3, -2, 2, -1, 2)
    assert build(make_family(FamilyId("N1", 1, 1, 5))).v == (4, 0, 4, 0, 2)
    assert build(make_family(FamilyId("M2", 3, None, 5))).v == (3, -1, 1, -1, 2)
    assert build(make_family(FamilyId("M2", 9, None, 11))).v == \
        (3, -1, 0, 0, 0, 0, 0, 0, 1, -1, 2)


def test_rotation_order():
    for fid in SAMPLE_IDS:
        m = build(make_family(fid))
        assert m.rotation_generator is not None
        g = m.rotation_matrix()
        power = identity(m.n)
        for _ in range(m.rotation_order):
            power = mat_mul(power, g)
        assert mat_eq(power, identity(m.n))
        # and the order is exact (no smaller power works for a strict divisor)
        for d in range(1, m.rotation_order):
            if m.rotation_order % d:
                continue
            power = identity(m.n)
            for _ in range(d):
                power = mat_mul(power, g)
            assert not mat_eq(power, identity(m.n))


def test_lattice_basis_independent():
    for fid in SAMPLE_IDS + [FamilyId("N4", 1, 1, 5)]:
        m = build(make_family(fid))
        basis = lattice_basis(m)
        assert mat_det([list(col) for col in zip(*basis)]) != 0


@pytest.mark.parametrize("v,match", [
    ((2, 2), "Gram matrix is degenerate"),
    ((-2, 2), "Gram matrix is degenerate"),
    ((1, 1), r"\(v, v\) = -2"),
    ((0, 0), r"\(v, v\) = -2"),
], ids=["2,2", "-2,2", "1,1", "0,0"])
def test_invariant_form_rejects_dependent_basis(v, match):
    # g swaps the coordinates, the companion matrix of z^2 - 1, and C, B are
    # the closed forms I - v e_2^t and A C. v(z) = v_0 + v_1 z shares the
    # root -1 or 1 of z^2 - 1, so v and gv are dependent; (2, 2) and (-2, 2)
    # pass every identity and leave G degenerate
    swap = ((0, 1), (1, 0))
    c = ((1, -v[0]), (0, 1 - v[1]))
    m = MonodromySystem(
        pair=ExponentPair.make([0, F(1, 2)], [F(1, 4), F(3, 4)]),
        A=swap, B=tuple(map(tuple, mat_mul(swap, c))), C=c, v=v,
        rotation_order=2, rotation_generator="A", order_A=2, order_B=2)
    assert mat_det([list(b) for b in lattice_basis(m)]) == 0
    with pytest.raises(ValueError, match=match):
        invariant_form(m)


def test_hr_generators_match_root_reflections():
    for fid in SAMPLE_IDS[:4]:
        m = build(make_family(fid))
        lat = invariant_form(m)
        basis = lattice_basis(m)
        t = [list(col) for col in zip(*basis)]
        tinv = mat_inv(t)
        gens = hr_generators(m, m.n)
        for i, h in enumerate(gens):
            # transport the ambient involution to lattice coordinates: the
            # Cartan involution is minus the reflection in g^i v
            hl = mat_to_int(mat_mul(mat_mul(tinv, h), t))
            e = [1 if j == i else 0 for j in range(m.n)]
            r = reflection(root_vector(lat, e))
            assert hl == [[-x for x in row] for row in r]
            assert mat_eq(mat_mul(h, h), identity(m.n))


def test_hr_generators_periodic():
    m = build(make_family(FamilyId("M1", 1, None, 5)))
    gens = hr_generators(m, m.rotation_order + 1)
    assert gens[0] == gens[m.rotation_order]
