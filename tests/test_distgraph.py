import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono.exact import (
    bilinear,
    identity,
    integer_kernel_and_solution,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_to_int,
    mat_vec,
)
from hypermono import distgraph
from hypermono.exponents import FamilyError, FamilyId, _candidate_ids, classify, make_family
from hypermono.distgraph import (
    NO_PATH_FOUND,
    PATH_FOUND_GATE_INCONCLUSIVE,
    THIN_CERTIFIED,
    certify,
    component_generators,
    config_for,
    explicit_path_N1_3,
    factorize_path,
    PathSearch,
    find_path,
    neighbors,
)
from hypermono.lattice import (
    EVEN_TYPE,
    ODD_TYPE,
    invariant_form,
    reflection,
    reflection_product,
    root_vector,
)
from hypermono.levelt import build, lattice_basis


N31_IDS = [FamilyId("N1", 1, 1, 31), FamilyId("M2", 15, None, 31),
           FamilyId("N2", 1, 1, 31)]


def family_lattice(fid):
    return invariant_form(build(make_family(fid)))


def test_neighbors_contains_adjacent_basis_vector():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    cfg = config_for(lat)
    e1 = (1, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0)
    got = neighbors(cfg, e1)
    assert e2 in got
    g = [list(r) for r in lat.gram]
    for w in got:
        assert bilinear(g, list(w), list(w)) == -2
        assert bilinear(g, list(e1), list(w)) == cfg.edge_value


def test_neighbors_against_brute_force():
    for fid in [FamilyId("M1", 1, None, 5), FamilyId("N1", 1, 1, 5),
                FamilyId("N2", 4, 1, 5)]:
        lat = family_lattice(fid)
        cfg = config_for(lat)
        g = [list(r) for r in lat.gram]
        u = [1, 0, 0, 0, 0]
        got = set(neighbors(cfg, u))
        box = 8
        brute = set()
        # (u, w) = u^t G w is linear in w: test it first, against u^t G
        ug = [sum(u[i] * g[i][j] for i in range(5)) for j in range(5)]
        for w in itertools.product(range(-box, box + 1), repeat=5):
            if sum(a * b for a, b in zip(ug, w)) != cfg.edge_value:
                continue
            wl = list(w)
            if bilinear(g, wl, wl) == -2:
                brute.add(w)
        # everything the brute force finds in its box must be reported
        assert brute <= got, fid
        for w in got:
            assert bilinear(g, list(w), list(w)) == -2


# The earlier neighbor search, kept as an oracle: pairwise size reduction of
# the complement, a float Fincke-Pohst walk with a slack on an exact LDL^t
# decomposition, a Fraction re-check of every leaf, and a rational solve for
# the offset.

def _oracle_size_reduce(basis, gram):
    b = [list(v) for v in basis]
    k = len(b)
    for _ in range(4 * k * k):
        changed = False
        norms = [bilinear(gram, v, v) for v in b]
        order = sorted(range(k), key=lambda i: norms[i])
        b = [b[i] for i in order]
        norms = [norms[i] for i in order]
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                p = bilinear(gram, b[i], b[j])
                q = (2 * p + norms[j]) // (2 * norms[j])
                if q:
                    b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                    norms[i] += q * q * norms[j] - 2 * q * p
                    changed = True
        if not changed:
            break
    return b


def _oracle_ldl(g):
    n = len(g)
    a = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        assert d[i] > 0
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] -= d[i] * u[i][r] * u[i][c]
                a[c][r] = a[r][c]
    return d, u


def _oracle_short_vectors(g, bound, off):
    n = len(g)
    d, u = _oracle_ldl(g)
    df = [float(v) for v in d]
    uf = [[float(v) for v in row] for row in u]
    offf = [float(v) for v in off]
    slack = 1e-6 * (1.0 + abs(float(bound)))
    out = []
    x = [0] * n

    def exact_ok(vec):
        y = [Fraction(vec[i]) + off[i] for i in range(n)]
        return bilinear(g, y, y) <= bound

    def rec(i, rem):
        if i < 0:
            if exact_ok(x):
                out.append(tuple(x))
            return
        w = offf[i] + sum(uf[i][j] * (x[j] + offf[j]) for j in range(i + 1, n))
        rad = math.sqrt(max(rem + slack, 0.0) / df[i])
        for xi in range(math.floor(-w - rad) - 1, math.ceil(-w + rad) + 2):
            contrib = df[i] * (xi + w) ** 2
            if contrib <= rem + slack:
                x[i] = xi
                rec(i - 1, rem - contrib)
        x[i] = 0

    rec(n - 1, float(bound))
    return out


def oracle_neighbors(cfg, u):
    g = [list(r) for r in cfg.lattice.gram]
    u = list(u)
    x0, kernel = integer_kernel_and_solution(mat_vec(g, u), cfg.edge_value)
    if x0 is None:
        return []
    kernel = _oracle_size_reduce(kernel, g)
    m = [[bilinear(g, bi, bj) for bj in kernel] for bi in kernel]
    b = [Fraction(bilinear(g, bi, x0)) for bi in kernel]
    minv = mat_inv(m)
    bound = Fraction(-2) - bilinear(g, x0, x0) + bilinear(minv, b, b)
    out = []
    for z in _oracle_short_vectors(m, bound, mat_vec(minv, b)):
        w = list(x0)
        for zi, bi in zip(z, kernel):
            w = [x + zi * y for x, y in zip(w, bi)]
        if bilinear(g, w, w) == -2:
            out.append(tuple(w))
    return sorted(out)


def _e(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


def _hyperbolic_systems(ns):
    for n in ns:
        for fid in _candidate_ids(n):
            try:
                m = build(make_family(fid))
            except FamilyError:
                continue
            if classify(m.pair).hyperbolic:
                yield fid, m


def test_neighbors_match_oracle_on_families():
    # e0 and its first two neighbors, on every hyperbolic family instance
    # for n = 5, 7, 9
    expansions = 0
    for fid, m in _hyperbolic_systems((5, 7, 9)):
        cfg = config_for(invariant_form(m))
        e0 = _e(fid.n, 0)
        first = neighbors(cfg, e0)
        assert first == oracle_neighbors(cfg, e0), fid
        for v in first[:2]:
            assert neighbors(cfg, v) == oracle_neighbors(cfg, v), (fid, v)
        expansions += 1 + len(first[:2])
    assert expansions == 260


# The breadth-first search before adjacent endpoints were read from their
# pairing, kept as an oracle: it expands src even when dst is one edge away.
# It reads neighbor lists through the module, as find_path does, so that a
# memo installed there serves both.

def oracle_find_path(cfg, src, dst):
    src, dst = tuple(src), tuple(dst)
    if src == dst:
        return PathSearch((src,), False, 0)
    parents_s, parents_d = {src: None}, {dst: None}
    frontier_s, frontier_d = [src], [dst]
    depth_s = depth_d = 0
    expanded = 0
    while frontier_s and frontier_d and depth_s + depth_d < cfg.max_depth:
        forward = len(frontier_s) <= len(frontier_d)
        if forward:
            frontier, parents, other = frontier_s, parents_s, parents_d
        else:
            frontier, parents, other = frontier_d, parents_d, parents_s
        new_frontier, meets = [], []
        for node in frontier:
            if expanded >= cfg.node_budget:
                return PathSearch(None, True, expanded)
            expanded += 1
            for w in distgraph.neighbors(cfg, node):
                if w in parents:
                    continue
                parents[w] = node
                new_frontier.append(w)
                if w in other:
                    meets.append(w)
        if meets:
            meet = min(meets)
            left, node = [], meet
            while node is not None:
                left.append(node)
                node = parents_s[node]
            left.reverse()
            node = parents_d[meet]
            while node is not None:
                left.append(node)
                node = parents_d[node]
            return PathSearch(tuple(left), False, expanded)
        new_frontier.sort()
        if forward:
            frontier_s, depth_s = new_frontier, depth_s + 1
        else:
            frontier_d, depth_d = new_frontier, depth_d + 1
    return PathSearch(None, False, expanded)


def _signed_basis(n):
    return [tuple(s * (i == j) for j in range(n))
            for i in range(n) for s in (1, -1)]


def _memoize_neighbors(monkeypatch):
    """Serve distgraph.neighbors from a memo keyed by (lattice, vertex), and
    return the list of vertices it was asked for."""
    memo = {}
    asked = []

    def memoized(cfg, u):
        key = (cfg.lattice, tuple(u))
        asked.append(key[1])
        if key not in memo:
            memo[key] = neighbors(cfg, u)
        return memo[key]

    monkeypatch.setattr(distgraph, "neighbors", memoized)
    return asked


def _assert_find_path_matches_oracle(lat, settings, monkeypatch):
    """Every pair of +-e_i endpoints under each (max_depth, node_budget).
    Neighbor lists have their own oracle, so one memo serves the search and
    its oracle; an adjacent pair asks it for none."""
    g = [list(r) for r in lat.gram]
    ends = _signed_basis(lat.n)
    asked = _memoize_neighbors(monkeypatch)
    adjacent = 0
    for depth, budget in settings:
        cfg = config_for(lat, max_depth=depth, node_budget=budget)
        for src in ends:
            for dst in ends:
                want = oracle_find_path(cfg, src, dst)
                before = len(asked)
                assert find_path(cfg, src, dst) == want, (
                    depth, budget, src, dst)
                if bilinear(g, list(src), list(dst)) == cfg.edge_value:
                    assert want.nodes_expanded == 1 and len(asked) == before
                    adjacent += 1
    return adjacent


def test_find_path_matches_oracle_on_small_families(monkeypatch):
    parities = set()
    adjacent = 0
    for fid in [FamilyId("N1", 1, 5, 5), FamilyId("M2", 1, None, 5),
                FamilyId("N1", 1, 7, 7), FamilyId("N4", 1, 1, 5),
                FamilyId("N1", 1, 1, 7)]:
        lat = family_lattice(fid)
        parities.add(lat.parity)
        adjacent += _assert_find_path_matches_oracle(
            lat, [(5, 1_000_000), (5, 1), (1, 1_000_000), (2, 7)],
            monkeypatch)
    assert parities == {EVEN_TYPE, ODD_TYPE}
    assert adjacent > 0


def test_find_path_matches_oracle_on_n31(monkeypatch):
    # one expansion per search (node_budget=1 is covered on the small
    # families): a deeper search at n = 31 costs seconds
    for fid in N31_IDS:
        lat = family_lattice(fid)
        assert lat.parity == ODD_TYPE
        adjacent = _assert_find_path_matches_oracle(lat, [(1, 1_000_000)],
                                                    monkeypatch)
        assert adjacent > 0, fid


def _near_and_far_targets(lat):
    """(+-e1 pairing negatively with e0, +-e1 pairing positively)."""
    t = _e(lat.n, 1)
    minus_t = _e(lat.n, 1, -1)
    if bilinear(lat.gram, _e(lat.n, 0), t) < 0:
        return t, minus_t
    return minus_t, t


def test_certify_is_one_search_under_its_budget():
    # certify's report carries exactly the one find_path toward the target
    # sign that pairs negatively with v = e0
    def assert_same(rep, search):
        assert rep.path == (search.path or ())
        assert rep.nodes_expanded == search.nodes_expanded
        assert rep.budget_exhausted == search.budget_exhausted

    for fid in (FamilyId("N1", 1, 7, 7), FamilyId("N4", 1, 1, 5),
                FamilyId("N1", 7, 17, 17)):
        m = build(make_family(fid))
        lat = invariant_form(m)
        near, _ = _near_and_far_targets(lat)
        rep = certify(m)
        assert rep.path, fid
        assert_same(rep, find_path(config_for(lat), _e(lat.n, 0), near))

    m = build(make_family(FamilyId("M2", 1, None, 5)))
    lat = invariant_form(m)
    near, _ = _near_and_far_targets(lat)
    full = certify(m)
    assert full.status == NO_PATH_FOUND
    assert full.detail == "no path within depth 5"
    assert not full.budget_exhausted and full.nodes_expanded > 5
    assert_same(full, find_path(config_for(lat), _e(5, 0), near))
    for budget in (1, 5, full.nodes_expanded - 1):
        rep = certify(m, node_budget=budget)
        assert_same(rep, find_path(config_for(lat, node_budget=budget),
                                   _e(5, 0), near))
        assert rep.nodes_expanded == budget
        assert rep.status == NO_PATH_FOUND
        assert rep.detail == "node budget exhausted before the depth limit"
        assert rep.budget_exhausted
    assert certify(m, node_budget=full.nodes_expanded) == full


def test_paths_stay_on_the_sheet_of_v(monkeypatch):
    # In signature (n-1, 1) two norm -2 vectors lie on one sheet exactly
    # when they pair at <= -2, and edges pair at -3 or -4: the target sign
    # pairing positively with v = e0 is out of reach, and every vertex of a
    # certificate path pairs negatively with v.
    _memoize_neighbors(monkeypatch)
    instances = certified = 0
    for fid, m in _hyperbolic_systems((3, 5, 7, 9)):
        lat = invariant_form(m)
        assert lat.signature == (lat.n - 1, 1), fid
        e0 = _e(lat.n, 0)
        _, far = _near_and_far_targets(lat)
        search = find_path(config_for(lat, max_depth=5), e0, far)
        assert search.path is None and not search.budget_exhausted, fid
        rep = certify(m)
        assert all(bilinear(lat.gram, e0, p) < 0 for p in rep.path), fid
        instances += 1
        certified += bool(rep.path)
    assert instances == 133 and certified == 66


def test_neighbors_rejects_wrong_norm():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    with pytest.raises(ValueError):
        neighbors(config_for(lat), (1, 1, 0, 0, 0))


def test_rotation_equivariance():
    m = build(make_family(FamilyId("N1", 1, 7, 7)))
    lat = invariant_form(m)
    cfg = config_for(lat)
    basis = lattice_basis(m)
    t = [list(col) for col in zip(*basis)]
    gl = mat_to_int(mat_mul(mat_mul(mat_inv(t), m.rotation_matrix()), t))
    u = (1, 0, 0, 0, 0, 0, 0)
    gu = tuple(mat_vec(gl, list(u)))
    lhs = {tuple(mat_vec(gl, list(w))) for w in neighbors(cfg, u)}
    assert lhs == set(neighbors(cfg, gu))


def test_find_path_trivial_and_short():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    cfg = config_for(lat)
    e1 = (1, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0)
    res = find_path(cfg, e1, e1)
    assert res.path == (e1,)
    res = find_path(cfg, e1, e2)
    assert res.path == (e1, e2)


def test_lemma_basic_property_suite():
    # 1000 premise-satisfying pairs per Lemma: norm -2 vertices u, w with
    # (u, w) = -3 (even form) or -4 (odd form); all conclusions exact
    total = 0
    for fid, want_parity in [(FamilyId("N1", 1, 7, 7), "even"),
                             (FamilyId("N1", 1, 1, 7), "odd")]:
        lat = family_lattice(fid)
        cfg = config_for(lat)
        mult = 2 if lat.parity == EVEN_TYPE else 3
        root_norm = 2 if lat.parity == EVEN_TYPE else 4
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
                    g = [list(r) for r in lat.gram]
                    assert bilinear(g, a, a) == root_norm
                    assert bilinear(g, b, b) == root_norm
                    ra = reflection(lat, root_vector(lat, a))
                    rb = reflection(lat, root_vector(lat, b))
                    ru = reflection(lat, root_vector(lat, list(u)))
                    rw = reflection(lat, root_vector(lat, list(w)))
                    assert mat_eq(mat_mul(ru, rw), mat_mul(ra, rb))
                    assert mat_vec(ra, list(u)) == list(w)
                    count += 1
            frontier = nxt
        assert count == 500, fid
        total += count
    assert total == 1000


# printed 2x2 models of the factorization lemma, on the basis (u, w)
def two_dim_reflections(gram, mult):
    lat_g = gram

    def refl(r):
        gr = mat_vec(lat_g, r)
        norm = bilinear(lat_g, r, r)
        return [[(1 if i == j else 0) - 2 * gr[j] * r[i] // norm
                 for j in range(2)] for i in range(2)]

    ru = refl([1, 0])
    rw = refl([0, 1])
    ruw = refl([1, -1])
    rub = refl([1, -mult])
    return ru, rw, ruw, rub


def test_lemma_basic_printed_matrices_even():
    ru, rw, ruw, ru2w = two_dim_reflections([[-2, -3], [-3, -2]], 2)
    assert ru == [[-1, -3], [0, 1]]
    assert rw == [[1, 0], [-3, -1]]
    assert ruw == [[0, 1], [1, 0]]
    assert ru2w == [[-3, -1], [8, 3]]
    assert mat_eq(mat_mul(ru, rw), mat_mul(ruw, ru2w))


def test_lemma_basic_printed_matrices_odd():
    ru, rw, ruw, ru3w = two_dim_reflections([[-2, -4], [-4, -2]], 3)
    assert ru == [[-1, -4], [0, 1]]
    assert rw == [[1, 0], [-4, -1]]
    assert ruw == [[0, 1], [1, 0]]
    assert ru3w == [[-4, -1], [15, 4]]
    assert mat_eq(mat_mul(ru, rw), mat_mul(ruw, ru3w))


# census lattices of both parities, each with edges at e0
RANK_TWO_IDS = [FamilyId("N1", 1, 7, 7), FamilyId("N1", 1, 9, 9),
                FamilyId("N1", 1, 1, 7), FamilyId("N4", 1, 1, 5)]


@functools.lru_cache(maxsize=None)
def _census_roots(index):
    """Roots on a census lattice: the basis vectors (norm -2) and the
    factorization roots u - w, u - mult*w of the edges at u = e0; and the
    reflections in the basis vectors, to move them around (an integral
    isometry maps a k-root to a k-root)."""
    lat = family_lattice(RANK_TWO_IDS[index])
    n = lat.n
    mult = 2 if lat.parity == EVEN_TYPE else 3
    e0 = (1,) + (0,) * (n - 1)
    vecs = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    edges = neighbors(config_for(lat), e0)
    assert edges
    for w in edges:
        vecs.append(tuple(x - y for x, y in zip(e0, w)))
        vecs.append(tuple(x - mult * y for x, y in zip(e0, w)))
    roots = [root_vector(lat, v) for v in vecs]
    assert all(r.is_root for r in roots)
    return lat, roots, [reflection(lat, r) for r in roots[:n]]


def test_rank_two_census_lattices_have_both_parities():
    parities = {_census_roots(i)[0].parity for i in range(len(RANK_TWO_IDS))}
    assert parities == {EVEN_TYPE, ODD_TYPE}


@st.composite
def _census_root_triples(draw):
    lat, roots, basic = _census_roots(
        draw(st.integers(0, len(RANK_TWO_IDS) - 1)))

    def root():
        vec = list(draw(st.sampled_from(roots)).vec)
        for k in draw(st.lists(st.integers(0, lat.n - 1), max_size=4)):
            vec = mat_vec(basic[k], vec)
        return root_vector(lat, vec)

    return lat, root(), root(), root()


@settings(max_examples=200, deadline=None)
@given(_census_root_triples())
def test_reflection_product_is_the_matrix_product(case):
    lat, a, b, c = case
    assert a.is_root and b.is_root and c.is_root
    ra, rb = reflection(lat, a), reflection(lat, b)
    assert reflection_product(lat, a, b) == mat_mul(ra, rb)
    m = reflection(lat, c)
    assert reflection_product(lat, a, b, m) == mat_mul(m, mat_mul(ra, rb))


def _shift_norm(g, u, w):
    """u + z for a small z orthogonal to w with (u + z, u + z) != -2."""
    for z in itertools.product((-1, 0, 1), repeat=len(u)):
        if any(z) and bilinear(g, list(z), list(w)) == 0:
            moved = [x + y for x, y in zip(u, z)]
            if bilinear(g, moved, moved) != -2:
                return moved
    raise AssertionError("no norm-changing shift found")


def test_factorize_path_rejects_mutated_paths():
    for fid in (FamilyId("N1", 1, 7, 7), FamilyId("N1", 1, 1, 7)):
        lat = family_lattice(fid)
        cfg = config_for(lat)
        g = [list(r) for r in lat.gram]
        u = [1] + [0] * (lat.n - 1)
        w = list(neighbors(cfg, u)[0])
        assert len(factorize_path(cfg, [u, w, u]).pairs) == 2
        far = next(list(x) for x in _signed_basis(lat.n)
                   if bilinear(g, u, list(x)) != cfg.edge_value
                   and bilinear(g, w, list(x)) != cfg.edge_value)
        for path in ([u, far], [u, w, far]):
            with pytest.raises(ValueError,
                               match="consecutive path vertices are not adjacent"):
                factorize_path(cfg, path)
        for path in ([_shift_norm(g, u, w), w], [u, _shift_norm(g, w, u)],
                     [u, w, _shift_norm(g, u, w)]):
            assert bilinear(g, path[-2], path[-1]) == cfg.edge_value
            with pytest.raises(AssertionError,
                               match="factorization roots have the wrong norm"):
                factorize_path(cfg, path)


def test_factorize_path_empty_and_full():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    cfg = config_for(lat)
    assert factorize_path(cfg, []).pairs == ()
    e1 = (1, 0, 0, 0, 0)
    res = find_path(cfg, e1, (0, 0, 1, 0, 0), )
    assert res.path is not None
    witness = factorize_path(cfg, res.path)
    assert len(witness.pairs) == len(res.path) - 1
    for a, b in witness.pairs:
        assert a.norm == 2 and b.norm == 2 and a.is_root and b.is_root


def test_explicit_path_n1_3():
    for n in (7, 13):
        path = explicit_path_N1_3(n)
        lat = family_lattice(FamilyId("N1", 3, n, n))
        factorize_path(config_for(lat), path)  # raises if not a valid path
    with pytest.raises(ValueError):
        explicit_path_N1_3(11)  # gcd(12, 3) = 3: not in the family


def test_explicit_path_n9():
    # n = 9 is a valid member (gcd(10,3) = 1); residue 3 mod 6 construction
    path = explicit_path_N1_3(9)
    lat = family_lattice(FamilyId("N1", 3, 9, 9))
    factorize_path(config_for(lat), path)


def test_certify_statuses():
    rep = certify(build(make_family(FamilyId("N1", 1, 7, 7))))
    assert rep.status == THIN_CERTIFIED
    assert len(rep.path) == 2  # single edge v -> Av
    rep = certify(build(make_family(FamilyId("N1", 1, 1, 9))))
    assert rep.status == PATH_FOUND_GATE_INCONCLUSIVE  # odd gate needs n >= 30
    rep = certify(build(make_family(FamilyId("N4", 1, 1, 5))))
    # the +-sheet convention finds a one-edge path; the odd gate stays open
    assert rep.status == PATH_FOUND_GATE_INCONCLUSIVE


def test_certify_secondthin_instance():
    rep = certify(build(make_family(FamilyId("N1", 5, 15, 15))))
    assert rep.path and len(rep.path) - 1 <= 5


def test_component_generators():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    cfg = config_for(lat)
    gens = component_generators(cfg, (1, 0, 0, 0, 0))
    assert len(gens) >= 2
    g = [list(r) for r in lat.gram]
    from hypermono.exact import transpose
    for r in gens:
        assert mat_eq(mat_mul(r, r), identity(5))
        assert mat_eq(mat_mul(mat_mul(transpose(r), g), r), g)
