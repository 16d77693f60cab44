from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono.exponents import (
    ExponentPair,
    FamilyError,
    FamilyId,
    ZERO,
    _candidate_ids,
    _construct_family,
    classify,
    landau_integral,
    make_family,
    match_family,
    scalar_shift,
    to_factorial_form,
)

F = Fraction


def pair(a, b):
    return ExponentPair.make([F(x) for x in a], [F(x) for x in b])


ALL_VALID_IDS = []
for _n in (5, 7, 9, 11, 13):
    for _fam, _m in (("M1", _n), ("M2", _n - 1), ("M3", _n - 2)):
        for _j in range(1, _n):
            fid = FamilyId(_fam, _j, None, _n) if _j < _n else None
            try:
                if fid:
                    make_family(fid)
                    ALL_VALID_IDS.append(fid)
            except (FamilyError, ValueError):
                pass
    for _fam, _m in (("N1", _n), ("N2", _n - 1), ("N3", _n - 1), ("N4", _n - 2)):
        for _k in range(1, _m + 1):
            if _m % _k:
                continue
            for _j in range(1, _k + 1):
                fid = FamilyId(_fam, _j, _k, _n)
                try:
                    make_family(fid)
                    ALL_VALID_IDS.append(fid)
                except (FamilyError, ValueError):
                    pass


def test_classify_rank3_hyperbolic():
    cls = classify(pair(["1/3", "1/2", "2/3"], [0, "1/4", "3/4"]))
    assert cls.hyperbolic and cls.sig_defect == 1


def test_classify_interlacing_finite():
    cls = classify(pair(["1/4", "3/4"], [0, "1/2"]))
    assert cls.sig_defect == 2
    assert cls.category == "Finite"


def test_classify_not_disjoint():
    cls = classify(pair([0, "1/2"], [0, "1/2"]))
    assert not cls.disjoint


def test_scalar_shift_identity():
    p = pair(["1/3", "1/2", "2/3"], [0, "1/4", "3/4"])
    assert scalar_shift(p, 0) == p
    assert scalar_shift(p, 1) == p


def test_make_family_N1_1_5():
    p = make_family(FamilyId("N1", 1, 5, 5))
    assert p.alpha == tuple(F(x) for x in ["0", "1/6", "1/3", "2/3", "5/6"])
    assert p.beta == tuple(sorted(F(x) for x in ["1/2", "1/5", "2/5", "3/5", "4/5"]))


def test_make_family_M2_3_5():
    p = make_family(FamilyId("M2", 3, None, 5))
    assert p.alpha == tuple(sorted(F(x) for x in ["1/2", "1/8", "3/8", "5/8", "7/8"]))
    assert p.beta == tuple(sorted(F(x) for x in ["0", "0", "0", "1/3", "2/3"]))


def test_make_family_rejects_even_j_M1():
    with pytest.raises(FamilyError):
        make_family(FamilyId("M1", 2, None, 7))


def test_match_family_round_trip_contains_input():
    for fid in ALL_VALID_IDS:
        p = make_family(fid)
        assert fid in match_family(p), fid


def test_every_family_pair_contains_zero():
    # match_family tries only the shifts that move an input exponent to 0
    for n in range(1, 16):
        for fid in _candidate_ids(n):
            try:
                p = _construct_family(fid)
            except FamilyError:
                continue
            assert ZERO in p.alpha + p.beta, fid


def test_match_family_table4_row():
    p = pair([0, "1/8", "3/8", "5/8", "7/8"], ["1/4", "1/2", "1/2", "1/2", "3/4"])
    got = {str(f) for f in match_family(p)}
    assert {"M2(2,5)", "N2(1,1,5)", "N3(1,1,5)"} <= got


def test_match_family_rank3():
    # the 1/2-shift of M1(1,3); matched even though the theorem's
    # completeness statement only covers larger n
    got = match_family(pair(["1/3", "1/2", "2/3"], [0, "1/4", "3/4"]))
    assert got == [FamilyId("M1", 1, None, 3)]


def test_factorial_form_n1_family_n5():
    ff = to_factorial_form(make_family(FamilyId("N1", 1, 5, 5)))
    assert sorted(ff.a_list) == [2, 2, 5]
    assert sorted(ff.b_list) == [1, 1, 1, 6]
    assert ff.d == 1
    assert not landau_integral(ff)


def test_factorial_form_m2_family_n5():
    ff = to_factorial_form(make_family(FamilyId("M2", 3, None, 5)))
    assert sorted(ff.a_list) == [2, 8]
    assert sorted(ff.b_list) == [1, 1, 1, 3, 4]
    assert ff.d == 3
    assert landau_integral(ff)


def test_factorial_form_trivial_pair():
    ff = to_factorial_form(pair(["1/2"], [0]))
    assert sorted(ff.a_list) == [2]
    assert sorted(ff.b_list) == [1, 1]
    assert landau_integral(ff)


def test_landau_integral_iff_d3_across_families():
    for n in (5, 7, 9, 11):
        for fid in [f for f in ALL_VALID_IDS if f.n == n]:
            ff = to_factorial_form(make_family(fid))
            expect = fid.family in ("M2", "M3", "N3", "N4")
            assert landau_integral(ff) == expect, fid
            assert (ff.d == 3) == expect, fid


def test_all_family_instances_hyperbolic_cyclotomic():
    for fid in ALL_VALID_IDS:
        cls = classify(make_family(fid))
        assert cls.hyperbolic and cls.cyclotomic and cls.disjoint, fid


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_VALID_IDS), st.integers(0, 30))
def test_sig_defect_shift_invariant(fid, num):
    p = make_family(fid)
    base = classify(p)
    big = lcm(2, *{x.denominator for x in p.alpha + p.beta})
    q = scalar_shift(p, F(num % big, big))
    cls = classify(q)
    if cls.cyclotomic:
        assert cls.sig_defect == base.sig_defect
