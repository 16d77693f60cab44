import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono.appendix_data import EXAMPLES, Q1, Q2
from hypermono.exact import mat_eq, mat_mul, transpose
from hypermono.spin import (
    RHO1,
    RHO2,
    congruence_check,
    dirichlet_region,
    spin,
    verify_basis_change,
    word_search,
)

F = Fraction


def random_sl2(rng, size=6):
    # random word in the standard unipotent generators: always determinant 1
    s = [[1, 1], [0, 1]]
    t = [[1, 0], [1, 1]]
    g = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, size)):
        h = rng.choice([s, t, [[1, -1], [0, 1]], [[1, 0], [-1, 1]]])
        g = mat_mul(g, h)
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([RHO1, RHO2]))
def test_spin_homomorphism_form_kernel(seed, which):
    rng = random.Random(seed)
    g = random_sl2(rng)
    h = random_sl2(rng)
    img_g = spin(which, g)
    img_h = spin(which, h)
    # composition: Rho1 (conjugation on symmetric matrices) composes in
    # order; the Rho2 coefficient formula follows the row-vector
    # convention, so its matrix products compose in reverse
    if which == RHO1:
        assert mat_eq(spin(which, mat_mul(g, h)), mat_mul(img_g, img_h))
    else:
        assert mat_eq(spin(which, mat_mul(g, h)), mat_mul(img_h, img_g))
    # form preservation
    q = [list(r) for r in (Q1 if which == RHO1 else Q2)]
    assert mat_eq(mat_mul(mat_mul(transpose(img_g), q), img_g), q)
    # kernel is {+-1}: g and -g agree, and the image is the identity only
    # for g = +-I
    assert mat_eq(spin(which, [[-x for x in row] for row in g]), img_g)
    ident3 = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    if mat_eq(img_g, ident3):
        assert g in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]])


def _rho1_by_conjugation(g):
    # the defining action S -> g S g^t on the symmetric 2x2 matrices, in the
    # basis diag(1, -1), [[0, 1], [1, 0]], I where -det is Q1
    basis = ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]])
    cols = []
    for e in basis:
        s = mat_mul(mat_mul(g, e), transpose(g))
        cols.append((F(s[0][0] - s[1][1], 2), s[0][1],
                     F(s[0][0] + s[1][1], 2)))
    return [[cols[j][i] for j in range(3)] for i in range(3)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_rho1_closed_form_matches_conjugation(seed):
    rng = random.Random(seed)
    g = random_sl2(rng)
    # a rational SL2 element too: conjugate by diag(2, 1)
    h = mat_mul(mat_mul([[2, 0], [0, 1]], g), [[F(1, 2), 0], [0, 1]])
    for x in (g, h):
        assert spin(RHO1, x) == _rho1_by_conjugation(x)


def test_spin_rejects_non_sl2():
    with pytest.raises(ValueError):
        spin(RHO2, [[2, 0], [0, 1]])


def test_spin_printed_images():
    assert spin(RHO2, [[1, 0], [4, 1]]) == [[1, 8, 16], [0, 1, 4], [0, 0, 1]]
    assert spin(RHO2, [[1, 1], [0, 1]]) == [[1, 0, 0], [1, 1, 0], [1, 2, 1]]
    assert spin(RHO1, [[0, 1], [-1, 0]]) == [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]


def test_congruence_check():
    assert not congruence_check([[1, 1], [0, 1]], 4)
    assert congruence_check([[1, 4], [0, 1]], 4)
    assert congruence_check([[-1, 0], [4, -1]], 4)  # -I sheet


def test_congruence_check_group_compatible():
    rng = random.Random(5)
    for _ in range(100):
        g = random_sl2(rng)
        h = random_sl2(rng)
        if congruence_check(g, 3) and congruence_check(h, 3):
            assert congruence_check(mat_mul(g, h), 3)


def test_word_search_basics():
    s = [[1, 1], [0, 1]]
    assert word_search([s], s, 3) == [(0, 1)]
    assert word_search([s], [[1, 0], [0, 1]], 3) == []
    assert word_search([s], [[1, 0], [1, 1]], 4) is None


def test_word_search_rejects_non_sl2z_input():
    # the inverses are integer adjugates: generators must lie in SL2(Z)
    s = [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="not an integer"):
        word_search([[[F(1, 2), 0], [0, 2]]], s, 2)
    with pytest.raises(ValueError, match="not an integer"):
        word_search([s], [[F(1, 2), 0], [0, 2]], 2)
    with pytest.raises(ValueError, match="SL2 generators"):
        word_search([[[2, 0], [0, 1]]], s, 2)
    assert word_search([[[F(1), F(1)], [F(0), F(1)]]], s, 1) == [(0, 1)]


def test_verify_basis_change_all_examples():
    for i in range(1, 7):
        rep = verify_basis_change(i)
        assert rep.all_passed, (i, rep.checks)


def test_congruence_witness_words():
    for i in (1, 2):
        ex = EXAMPLES[i]
        for target in ex.congruence_targets:
            assert congruence_check(target, ex.congruence_level)
            w = word_search([ex.X, ex.Y], target, 30)
            assert w is not None


def test_example3_level2_words():
    ex = EXAMPLES[3]
    xy = mat_mul([list(r) for r in ex.X], [list(r) for r in ex.Y])
    yx = mat_mul([list(r) for r in ex.Y], [list(r) for r in ex.X])
    assert congruence_check(xy, 2) and congruence_check(yx, 2)


def test_example4_generates_sl2z():
    # YX^4 and Y generate SL2(Z): the standard S generator appears as a word
    ex = EXAMPLES[4]
    x4 = [list(r) for r in ex.X]
    for _ in range(3):
        x4 = mat_mul(x4, [list(r) for r in ex.X])
    yx4 = mat_mul([list(r) for r in ex.Y], x4)
    assert word_search([yx4, [list(r) for r in ex.Y]],
                       [[0, 1], [-1, 0]], 12) is not None


def test_dirichlet_bounded_anisotropic_examples():
    for i in (5, 6):
        ex = EXAMPLES[i]
        a2 = mat_mul([list(r) for r in ex.A], [list(r) for r in ex.A])
        region = dirichlet_region([a2, [list(r) for r in ex.B]],
                                  form=ex.f, word_depth=8)
        assert region.bounded, i
        for u, v in region.vertices:
            assert u * u + v * v < 1


def test_dirichlet_unbounded_parabolic():
    # a group with a parabolic element has no compact fundamental domain
    ex = EXAMPLES[1]
    region = dirichlet_region([ex.X, ex.Y], word_depth=5)
    assert not region.bounded


def test_dirichlet_stabilized_basepoint_raises():
    # -I fixes every point of the disk, the nudged basepoint too
    minus_one = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    form = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    with pytest.raises(ValueError, match="stabilized even after perturbation"):
        dirichlet_region([minus_one], form=form, word_depth=2)
