"""End-to-end acceptance checks, one per shipped guarantee, each with an
explicit wall-clock budget.  Every test prints a single PASS/FAIL line on
the real stdout so the verdicts survive pytest's capture."""

import sys
import time
from fractions import Fraction

import conftest

from hypermono.appendix_data import EXAMPLES
from hypermono.distgraph import THIN_CERTIFIED, certify, config_for, neighbors
from hypermono.exact import bilinear, identity, mat_eq, mat_mul, mat_vec, transpose
from hypermono.exponents import (
    ExponentPair,
    FamilyError,
    FamilyId,
    classify,
    landau_integral,
    make_family,
    match_family,
    to_factorial_form,
)
from hypermono.growth import growth_run
from hypermono.lattice import (
    EVEN_TYPE,
    QuadLattice,
    invariant_form,
    reflection,
    root_vector,
)
from hypermono.levelt import build
from hypermono.spin import (
    congruence_check,
    dirichlet_region,
    verify_basis_change,
    word_search,
)

F = Fraction


def report(num, ok, budget, elapsed, detail):
    ok = ok and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    line = (f"acceptance {num:2d}: {verdict} — {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_acceptance_01_gram_form1():
    t0 = time.monotonic()
    ok = True
    for n in (5, 7, 9, 11):
        lat = invariant_form(build(make_family(FamilyId("N1", 1, n, n))))
        for i in range(n):
            for j in range(n):
                d = abs(i - j)
                want = -2 if d == 0 else (-3 if d == 1 else -4)
                ok = ok and lat.gram[i][j] == want
    report(1, ok, 10, time.monotonic() - t0,
           "banded -2/-3/-4 Gram exact for n in {5,7,9,11}")


def test_acceptance_02_gram_form3():
    t0 = time.monotonic()
    ok = True
    by_dist = {0: -2, 1: -4, 2: -8, 3: -11}
    for n in (7, 13):
        lat = invariant_form(build(make_family(FamilyId("N1", 3, n, n))))
        for i in range(n):
            for j in range(n):
                d = min(abs(i - j), (n + 1) - abs(i - j))
                ok = ok and lat.gram[i][j] == by_dist.get(d, -12)
    # n = 11 violates gcd(n+1, 3) = 1 and must be rejected
    try:
        make_family(FamilyId("N1", 3, 11, 11))
        ok = False
    except (FamilyError, ValueError):
        pass
    report(2, ok, 10, time.monotonic() - t0,
           "-2/-4/-8/-11/-12 Gram exact for n in {7,13}; n=11 rejected")


def test_acceptance_03_printed_v_vectors_and_orders():
    t0 = time.monotonic()
    n = 7
    cases = [
        # family id, expected v at n=7, expected finite generator order
        (FamilyId("M1", 1, None, n), (3, -2, 2, -2, 2, -1, 2), 2 * n),
        (FamilyId("N1", 1, 1, n), (4, 0, 4, 0, 4, 0, 2), 2 * n),
        (FamilyId("M2", n - 2, None, n), (3, -1, 0, 0, 1, -1, 2), 2 * n - 2),
        (FamilyId("M2", (n - 1) // 2, None, n), (4, -4, 4, -4, 4, -2, 2),
         2 * n - 2),
        (FamilyId("N2", 1, 1, n), (4, 4, 4, 4, 4, 2, 2), 2 * n - 2),
        (FamilyId("N2", n - 1, 1, n), (3, 4, 4, 4, 4, 3, 2), n),
    ]
    ok = True
    for fid, want_v, want_order in cases:
        m = build(make_family(fid))
        up_to_sign = (tuple(m.v) == want_v
                      or tuple(-x for x in m.v) == want_v)
        ok = ok and up_to_sign
        ok = ok and want_order in (m.order_A, m.order_B)
    report(3, ok, 5, time.monotonic() - t0,
           "six closed-form Cartan vectors up to sign; generator orders "
           "2n / 2n-2 / n present")


def test_acceptance_04_thin_certificates():
    t0 = time.monotonic()
    ids = []
    for n in (7, 9, 11):
        ids += [FamilyId("N1", 1, n, n), FamilyId("M1", 1, None, n),
                FamilyId("M2", n - 2, None, n), FamilyId("N2", n - 1, 1, n)]
    ids += [FamilyId("N1", 3, 7, 7), FamilyId("N1", 3, 13, 13)]
    ids += [FamilyId("N1", 1, 1, 31), FamilyId("M2", 15, None, 31),
            FamilyId("N2", 1, 1, 31)]
    ok = True
    worst = 0.0
    for fid in ids:
        t1 = time.monotonic()
        rep = certify(build(make_family(fid)))
        dt = time.monotonic() - t1
        worst = max(worst, dt)
        ok = ok and rep.status == THIN_CERTIFIED and dt < 60
    report(4, ok, 60 * len(ids), time.monotonic() - t0,
           f"{len(ids)} instances ThinCertified, slowest run {worst:.1f}s "
           "(per-run budget 60s)")


def test_acceptance_05_deep_path_instance():
    t0 = time.monotonic()
    rep = certify(build(make_family(FamilyId("N1", 7, 17, 17))),
                  max_depth=4, node_budget=1_000_000)
    elapsed = time.monotonic() - t0
    # the shortest v -> g.v path here has length 2 (verified by exhaustive
    # search); length-4 paths exist in the component but are not minimal,
    # so a shortest-path certificate reports 2
    ok = rep.status == THIN_CERTIFIED and len(rep.path) - 1 == 2
    report(5, ok, 300, elapsed,
           "N1(7,17,17) certified via shortest path of length 2 "
           "(length-4 paths exist but are non-minimal)")


def test_acceptance_06_reflection_factorization_suite():
    t0 = time.monotonic()
    total = 0
    ok = True
    for fid in (FamilyId("N1", 1, 7, 7), FamilyId("N1", 1, 1, 7)):
        lat = invariant_form(build(make_family(fid)))
        cfg = config_for(lat)
        mult = 2 if lat.parity == EVEN_TYPE else 3
        root_norm = 2 if lat.parity == EVEN_TYPE else 4
        g = [list(r) for r in lat.gram]
        seen = set()
        frontier = [tuple(1 if i == 0 else 0 for i in range(lat.n))]
        count = 0
        while frontier and count < 500:
            nxt = []
            for u in frontier:
                for w in neighbors(cfg, u):
                    if count >= 500:
                        break
                    if (u, w) in seen:
                        continue
                    seen.add((u, w))
                    nxt.append(w)
                    a = [x - y for x, y in zip(u, w)]
                    b = [x - mult * y for x, y in zip(u, w)]
                    ok = ok and bilinear(g, a, a) == root_norm
                    ok = ok and bilinear(g, b, b) == root_norm
                    ra = reflection(lat, root_vector(lat, a))
                    rb = reflection(lat, root_vector(lat, b))
                    ru = reflection(lat, root_vector(lat, list(u)))
                    rw = reflection(lat, root_vector(lat, list(w)))
                    ok = ok and mat_eq(mat_mul(ru, rw), mat_mul(ra, rb))
                    ok = ok and mat_vec(ra, list(u)) == list(w)
                    count += 1
            frontier = nxt
        total += count

    def refl2(gram, r):
        gr = mat_vec(gram, r)
        norm = bilinear(gram, r, r)
        return [[(1 if i == j else 0) - 2 * gr[j] * r[i] // norm
                 for j in range(2)] for i in range(2)]

    even = [[-2, -3], [-3, -2]]
    odd = [[-2, -4], [-4, -2]]
    ok = ok and refl2(even, [1, 0]) == [[-1, -3], [0, 1]]
    ok = ok and refl2(even, [0, 1]) == [[1, 0], [-3, -1]]
    ok = ok and refl2(even, [1, -1]) == [[0, 1], [1, 0]]
    ok = ok and refl2(even, [1, -2]) == [[-3, -1], [8, 3]]
    ok = ok and refl2(odd, [1, 0]) == [[-1, -4], [0, 1]]
    ok = ok and refl2(odd, [0, 1]) == [[1, 0], [-4, -1]]
    ok = ok and refl2(odd, [1, -1]) == [[0, 1], [1, 0]]
    ok = ok and refl2(odd, [1, -3]) == [[-4, -1], [15, 4]]
    ok = ok and total == 1000
    report(6, ok, 30, time.monotonic() - t0,
           "1000 premise pairs pass all identities; four 2x2 reflection "
           "matrices byte-exact")


def test_acceptance_07_rank4_fixture():
    t0 = time.monotonic()
    fg = [[2, 0, 0, 0], [0, 5, 0, 0], [0, 0, 10, 0], [0, 0, 0, -1]]
    h = [[-2, 0, -5, 2], [0, 1, 0, 0], [-1, 0, -6, 2], [-4, 0, -20, 7]]
    gmat = [[1, 0, 0, 0], [0, -2, -2, 1], [0, -1, -3, 1], [0, -5, -10, 4]]
    r1_want = [[-6, -10, -25, 10], [-4, -9, -20, 8],
               [-5, -10, -26, 10], [-20, -40, -100, 39]]
    lat = QuadLattice.from_gram(fg)
    u = root_vector(lat, [1, 1, 1, 4])
    ok = u.norm == 1 and u.is_root
    ru = reflection(lat, u)
    ok = ok and all(all(x == int(x) for x in row) for row in ru)
    r1 = mat_mul(h, ru)
    ok = ok and r1 == r1_want
    sigma1 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    ok = ok and not mat_eq(mat_mul(sigma1, r1), mat_mul(r1, sigma1))
    for mtx in (h, gmat):
        ok = ok and mat_eq(mat_mul(mat_mul(transpose(mtx), fg), mtx), fg)
    report(7, ok, 1, time.monotonic() - t0,
           "norm-1 root reflection, printed r1 product, non-commuting "
           "sign involution, both isometries preserve f")


def _all_valid_ids(ns):
    out = []
    for n in ns:
        for fam in ("M1", "M2", "M3"):
            for j in range(1, n):
                try:
                    make_family(FamilyId(fam, j, None, n))
                    out.append(FamilyId(fam, j, None, n))
                except (FamilyError, ValueError):
                    pass
        for fam, m in (("N1", n), ("N2", n - 1), ("N3", n - 1),
                       ("N4", n - 2)):
            for k in range(1, m + 1):
                if m % k:
                    continue
                for j in range(1, k + 1):
                    try:
                        make_family(FamilyId(fam, j, k, n))
                        out.append(FamilyId(fam, j, k, n))
                    except (FamilyError, ValueError):
                        pass
    return out


def test_acceptance_08_landau_integrality():
    t0 = time.monotonic()
    ids = _all_valid_ids((5, 7, 9, 11))
    ok = len(ids) > 0
    for fid in ids:
        got = landau_integral(to_factorial_form(make_family(fid)))
        want = fid.family in ("M2", "M3", "N3", "N4")
        ok = ok and got == want
    report(8, ok, 5, time.monotonic() - t0,
           f"integrality holds exactly for M2/M3/N3/N4 and fails for "
           f"M1/N1/N2 across {len(ids)} instances")


def test_acceptance_09_examples_1_to_4():
    t0 = time.monotonic()
    ok = True
    for i in (1, 2, 3, 4):
        rep = verify_basis_change(i)
        ok = ok and rep.all_passed
    for i in (1, 2):
        ex = EXAMPLES[i]
        for target in ex.congruence_targets:
            ok = ok and congruence_check(target, ex.congruence_level)
            ok = ok and word_search([ex.X, ex.Y], target, 30) is not None
    report(9, ok, 120, time.monotonic() - t0,
           "basis-change identities and spin images for examples 1-4; "
           "all congruence matrices are identity mod N and words of "
           "length <= 30")


def test_acceptance_10_examples_5_6_bounded():
    t0 = time.monotonic()
    ok = True
    for i in (5, 6):
        t1 = time.monotonic()
        ex = EXAMPLES[i]
        a2 = mat_mul([list(r) for r in ex.A], [list(r) for r in ex.A])
        region = dirichlet_region([a2, [list(r) for r in ex.B]],
                                  form=ex.f, word_depth=8, epsilon=1e-6)
        ok = ok and region.bounded and (time.monotonic() - t1) < 120
    report(10, ok, 240, time.monotonic() - t0,
           "Dirichlet regions for examples 5 and 6 bounded at depth 8")


def test_acceptance_11_growth_slope():
    t0 = time.monotonic()
    ex = EXAMPLES[6]
    gens = [[list(map(int, r)) for r in ex.A], [list(map(int, r)) for r in ex.B]]
    # run1 saturates and counts in one enumeration; run2 is given its limit
    run1 = growth_run(gens, 100, 10_000, 10)
    run2 = growth_run(gens, 100, 10_000, 10, run1.word_limit)
    ok = 0.80 <= run1.slope <= 1.15
    ok = ok and run1.counts == run2.counts and run1.slope == run2.slope
    ok = ok and all(x <= y for x, y in zip(run1.counts, run1.counts[1:]))
    report(11, ok, 600, time.monotonic() - t0,
           f"fitted growth exponent {run1.slope:.3f} in [0.80, 1.15] at "
           f"saturated word limit {run1.word_limit}; deterministic and "
           "monotone")


TABLE_ROWS = [
    (("0", "1/10", "3/10", "7/10", "9/10"),
     ("1/5", "2/5", "1/2", "3/5", "4/5"), {"N1(1,1,5)"}),
    (("0", "1/8", "3/8", "5/8", "7/8"),
     ("1/4", "1/2", "1/2", "1/2", "3/4"),
     {"M2(2,5)", "N2(1,1,5)", "N3(1,1,5)"}),
    (("1/6", "1/2", "1/2", "1/2", "5/6"),
     ("0", "0", "0", "1/3", "2/3"), {"M3(3,5)", "N4(1,1,5)"}),
    (("0", "1/14", "3/14", "5/14", "9/14", "11/14", "13/14"),
     ("1/7", "2/7", "3/7", "1/2", "4/7", "5/7", "6/7"), {"N1(1,1,7)"}),
    (("1/12", "1/4", "5/12", "1/2", "7/12", "3/4", "11/12"),
     ("0", "0", "0", "1/6", "1/3", "2/3", "5/6"),
     {"M2(3,7)", "N2(1,1,7)", "N3(1,1,7)"}),
    (("1/10", "3/10", "1/2", "1/2", "1/2", "7/10", "9/10"),
     ("0", "0", "0", "1/5", "2/5", "3/5", "4/5"),
     {"M3(5,7)", "N4(1,1,7)"}),
    (("0", "1/18", "1/6", "5/18", "7/18", "11/18", "13/18", "5/6", "17/18"),
     ("1/9", "2/9", "1/3", "4/9", "1/2", "5/9", "2/3", "7/9", "8/9"),
     {"N1(1,1,9)"}),
    (("0", "1/16", "3/16", "5/16", "7/16", "9/16", "11/16", "13/16",
      "15/16"),
     ("1/8", "1/4", "3/8", "1/2", "1/2", "1/2", "5/8", "3/4", "7/8"),
     {"M2(4,9)", "N2(1,1,9)", "N3(1,1,9)"}),
    (("1/14", "3/14", "5/14", "1/2", "1/2", "1/2", "9/14", "11/14",
      "13/14"),
     ("0", "0", "0", "1/7", "2/7", "3/7", "4/7", "5/7", "6/7"),
     {"M3(7,9)", "N4(1,1,9)"}),
]


def test_acceptance_12_classification_coverage():
    t0 = time.monotonic()
    ids = _all_valid_ids((5, 7, 9, 11))
    ok = len(ids) > 0
    for fid in ids:
        cls = classify(make_family(fid))
        ok = ok and cls.hyperbolic and cls.sig_defect == fid.n - 2
    for a, b, fams in TABLE_ROWS:
        p = ExponentPair.make([F(x) for x in a], [F(x) for x in b])
        ok = ok and classify(p).hyperbolic
        ok = ok and {str(f) for f in match_family(p)} == fams
    report(12, ok, 10, time.monotonic() - t0,
           f"{len(ids)} family instances hyperbolic with defect n-2; all "
           f"{len(TABLE_ROWS)} catalogued odd pairs match their listed "
           "families exactly")
