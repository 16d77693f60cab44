import functools
import itertools
import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono.exact import (
    bilinear,
    dot,
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
    CLOSED,
    MOD2,
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
    orbit_mod2,
)
from hypermono.lattice import (
    EVEN_TYPE,
    ODD_TYPE,
    RootVector,
    coreflection,
    invariant_form,
    reflect,
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


# The breadth-first search before lists were handed in and reflected from
# the parent's, kept as an oracle: it enumerates every list. It reads
# neighbor lists through the module, as `_find_path` does for the two
# roots, so that a memo installed there serves both.

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


def _find_path(cfg, src, dst):
    """find_path handed both roots' lists, read through the module (so that
    a memo installed there serves them). The search itself enumerates none:
    `neighbors` raises while it runs."""
    roots = (distgraph.neighbors(cfg, src), distgraph.neighbors(cfg, dst))
    with mock.patch.object(distgraph, "neighbors", side_effect=AssertionError(
            "find_path enumerated a list")):
        return find_path(cfg, src, dst, roots)


def _signed_basis(n):
    return [tuple(s * (i == j) for j in range(n))
            for i in range(n) for s in (1, -1)]


def _memoize_neighbors(monkeypatch):
    """Serve distgraph.neighbors from a memo keyed by (lattice, vertex)."""
    memo = {}

    def memoized(cfg, u):
        key = (cfg.lattice, tuple(u))
        if key not in memo:
            memo[key] = neighbors(cfg, u)
        return memo[key]

    monkeypatch.setattr(distgraph, "neighbors", memoized)


def _assert_find_path_matches_oracle(lat, settings, monkeypatch):
    """Every pair of +-e_i endpoints under each (max_depth, node_budget).
    Neighbor lists have their own oracle, so one memo serves the search's
    two roots and its oracle; the search enumerates no list, and an
    adjacent pair meets on its first level."""
    g = [list(r) for r in lat.gram]
    ends = _signed_basis(lat.n)
    _memoize_neighbors(monkeypatch)
    adjacent = 0
    for depth, budget in settings:
        cfg = config_for(lat, max_depth=depth, node_budget=budget)
        for src in ends:
            for dst in ends:
                want = oracle_find_path(cfg, src, dst)
                assert _find_path(cfg, src, dst) == want, (
                    depth, budget, src, dst)
                if bilinear(g, list(src), list(dst)) == cfg.edge_value:
                    assert want.nodes_expanded == 1
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
        assert_same(rep, _find_path(config_for(lat), _e(lat.n, 0), near))

    # M1(3, 5) has a path of length 2, found by expanding both roots
    m = build(make_family(FamilyId("M1", 3, None, 5)))
    lat = invariant_form(m)
    near, _ = _near_and_far_targets(lat)
    full = certify(m)
    assert full.status == THIN_CERTIFIED and len(full.path) == 3
    assert not full.budget_exhausted and full.nodes_expanded == 2
    assert_same(full, _find_path(config_for(lat), _e(5, 0), near))
    rep = certify(m, node_budget=1)
    assert_same(rep, _find_path(config_for(lat, node_budget=1), _e(5, 0),
                                near))
    assert rep.nodes_expanded == 1
    assert rep.status == NO_PATH_FOUND
    assert rep.detail == "node budget exhausted before the depth limit"
    assert rep.budget_exhausted and rep.no_path_proof is None
    assert certify(m, node_budget=full.nodes_expanded) == full


def test_certify_proves_no_path_without_a_search(monkeypatch):
    # M2(1, 5): v's orbit mod 2 has 6 elements and misses the target; a
    # closed instance: v has no neighbor. Either proof counts v's one
    # expansion and holds at any depth, so no budget runs out.
    def no_search(*args, **kwargs):
        raise AssertionError("a proved instance ran a search")

    monkeypatch.setattr(distgraph, "find_path", no_search)
    m = build(make_family(FamilyId("M2", 1, None, 5)))
    assert len(_orbit_case(FamilyId("M2", 1, None, 5))[-1]) == 6
    closed = build(make_family(FamilyId("M3", 1, None, 5)))
    assert neighbors(config_for(invariant_form(closed)), _e(5, 0)) == []
    for system, proof in ((m, MOD2), (closed, CLOSED)):
        for depth, budget in ((5, 5), (10**9, 1_000_000)):
            rep = certify(system, max_depth=depth, node_budget=budget)
            assert rep.status == NO_PATH_FOUND
            assert rep.detail == f"no path within depth {depth}"
            assert rep.no_path_proof == proof
            assert rep.nodes_expanded == 1 and not rep.budget_exhausted
    monkeypatch.undo()
    # the walk may reach node_budget elements past v's: with 5 to reach, a
    # budget of 4 leaves the test undecided, and the search exhausts it
    rep = certify(m, node_budget=4)
    assert rep.no_path_proof is None and rep.budget_exhausted
    assert rep.nodes_expanded == 4


def _matrix_orbit_mod2(lat, u, near):
    """The orbit of u mod 2 under the reflection matrices r_{u-w} reduced
    mod 2, as 0/1 tuples: an oracle for the bit-mask walk."""
    mats = [[[x % 2 for x in row]
             for row in reflection(root_vector(lat, [x - y for x, y in zip(u, w)]))]
            for w in near]
    start = tuple(x % 2 for x in u)
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for r in mats:
            y = tuple(sum(a * b for a, b in zip(row, x)) % 2 for row in r)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return {sum(b << i for i, b in enumerate(x)) for x in seen}


# even: excluded mod 2 and containing the target; odd: every census odd form
# is adjacent, so certify never walks one, and the walk is checked here
EXCLUDED_IDS = [FamilyId("M2", 1, None, 5), FamilyId("M2", 2, None, 7)]
ORBIT_IDS = EXCLUDED_IDS + [
    FamilyId("M1", 3, None, 5), FamilyId("N2", 2, 6, 7),
    FamilyId("N1", 1, 1, 7), FamilyId("M2", 3, None, 7),
    FamilyId("M2", 4, None, 9)]


@functools.cache
def _orbit_case(fid):
    lat = family_lattice(fid)
    e0 = _e(lat.n, 0)
    near = neighbors(config_for(lat), e0)
    roots = [root_vector(lat, [x - y for x, y in zip(e0, w)]) for w in near]
    return lat, e0, near, roots, list(orbit_mod2(config_for(lat), e0, near))


def test_orbit_mod2_matches_the_matrix_oracle():
    parities = set()
    for fid in ORBIT_IDS:
        lat, e0, near, _, orbit = _orbit_case(fid)
        parities.add(lat.parity)
        assert near, fid
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == _matrix_orbit_mod2(lat, e0, near), fid
        # e1 mod 2
        assert (0b10 in orbit) == (fid not in EXCLUDED_IDS), fid
    assert parities == {EVEN_TYPE, ODD_TYPE}


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(ORBIT_IDS),
       word=st.lists(st.integers(0, 10**6), max_size=10))
def test_word_images_lie_in_the_orbit_mod2(case, word):
    # the image of v under any word in the r_{v-w}, formed over Z, is in
    # the orbit mod 2
    lat, e0, _, roots, orbit = _orbit_case(case)
    x = e0
    for i in word:
        (x,) = reflect(roots[i % len(roots)], [x])
        assert bilinear(lat.gram, x, x) == -2
        assert distgraph._mask(x) in orbit, (case, word)


def test_excluded_components_miss_the_target():
    # a consistency check of the mod 2 proof, not a proof: for each
    # instance with n <= 9 that it excludes, no path of length <= 10 joins
    # v to either sign of the target
    excluded = 0
    for fid, m in _hyperbolic_systems((5, 7, 9)):
        if certify(m).no_path_proof != MOD2:
            continue
        excluded += 1
        lat = invariant_form(m)
        cfg = config_for(lat, max_depth=10)
        for sign in (1, -1):
            search = _find_path(cfg, _e(lat.n, 0), _e(lat.n, 1, sign))
            assert search.path is None and not search.budget_exhausted, fid
    assert excluded == 13


def test_certify_enumerates_at_most_one_list(monkeypatch):
    # certify calls `neighbors` at most once, for v, and never for an
    # adjacent target (every n = 31 instance). Every search it runs gets
    # the two roots' lists, and they are `neighbors` of v and of the
    # target: the target's is v's moved by g (`_rotated`).
    listed, search = distgraph.neighbors, distgraph.find_path
    calls = []
    seeded = []

    def counted(cfg, u):
        calls.append(u)
        return listed(cfg, u)

    def checked(cfg, src, dst, roots):
        assert roots == (listed(cfg, src), listed(cfg, dst)), dst
        seeded.append(dst)
        return search(cfg, src, dst, roots)

    monkeypatch.setattr(distgraph, "neighbors", counted)
    monkeypatch.setattr(distgraph, "find_path", checked)
    systems = list(_hyperbolic_systems((3, 5, 7, 9, 11, 13)))
    systems += [(fid, build(make_family(fid))) for fid in N31_IDS]
    for fid, m in systems:
        calls.clear()
        rep = certify(m)
        assert calls in ([], [_e(fid.n, 0)]), fid
        if fid.n == 31:
            assert calls == [] and len(rep.path) == 2, fid
    assert len(seeded) == 58  # the paths of length 2


def test_certify_reads_an_adjacent_target_from_its_pairing(monkeypatch):
    # an adjacent target is the one-edge path, with v's one expansion
    # counted: certify enumerates no list and runs no search
    def refuse(*args):
        raise AssertionError("an adjacent certificate enumerated or searched")

    systems = list(_hyperbolic_systems((3, 5, 7, 9, 11, 13)))
    systems += [(fid, build(make_family(fid))) for fid in N31_IDS]
    monkeypatch.setattr(distgraph, "neighbors", refuse)
    monkeypatch.setattr(distgraph, "find_path", refuse)
    adjacent = []
    for fid, m in systems:
        lat = invariant_form(m)
        e0 = _e(lat.n, 0)
        near, _ = _near_and_far_targets(lat)
        if bilinear(lat.gram, e0, near) != config_for(lat).edge_value:
            continue
        rep = certify(m)
        assert rep.path == (e0, near), fid
        assert rep.nodes_expanded == 1 and not rep.budget_exhausted, fid
        adjacent.append(fid)
    assert len(adjacent) == 72 and set(N31_IDS) <= set(adjacent)


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
        search = _find_path(config_for(lat, max_depth=5), e0, far)
        assert search.path is None and not search.budget_exhausted, fid
        rep = certify(m)
        assert all(bilinear(lat.gram, e0, p) < 0 for p in rep.path), fid
        instances += 1
        certified += bool(rep.path)
    assert instances == 133 and certified == 66


def test_reflected_lists_match_neighbors(monkeypatch):
    # Every vertex find_path expands past its two roots gets its list from
    # its parent's (`_reflected`). Check each such list, and the parent list
    # it was read from, against `neighbors` itself. The sign of e2 pairing
    # positively with e0 lies on the other sheet, so each search runs to
    # its depth limit and expands every vertex within reach.
    memo = {}

    def listed(cfg, u):
        key = (cfg.lattice, u)
        if key not in memo:
            memo[key] = neighbors(cfg, u)
        return memo[key]

    reflected = distgraph._reflected
    checked = {EVEN_TYPE: 0, ODD_TYPE: 0}
    deep = 0

    def checking(cfg, parent, node, near):
        nonlocal deep
        got = reflected(cfg, parent, node, near)
        assert near == listed(cfg, parent), (parent, node)
        assert got == listed(cfg, node), (parent, node)
        checked[cfg.lattice.parity] += 1
        deep += parent not in roots
        return got

    monkeypatch.setattr(distgraph, "_reflected", checking)
    for fid in [FamilyId("M2", 1, None, n) for n in (5, 7, 9, 11, 13)] + [
            FamilyId("N2", 3, 4, 13), FamilyId("N1", 1, 1, 5),
            FamilyId("N1", 1, 1, 7), FamilyId("M2", 3, None, 7),
            FamilyId("N4", 1, 1, 9), FamilyId("N1", 1, 1, 11),
            FamilyId("N1", 1, 1, 13)]:
        lat = family_lattice(fid)
        e0 = _e(lat.n, 0)
        far = _e(lat.n, 2, 1 if lat.gram[0][2] > 0 else -1)
        roots = (e0, far)
        search = _find_path(config_for(lat), e0, far)
        assert search.path is None and not search.budget_exhausted, fid
    # lists reflected from a reflected list, not only from a root's
    assert deep > 1000
    assert checked[EVEN_TYPE] > 500 and checked[ODD_TYPE] > 500, checked


def test_reflected_rejects_a_non_root_edge():
    # `coreflection` guards the transport: a difference that is not a root
    # has no integral reflection
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    e0, e2 = _e(5, 0), _e(5, 2)
    assert not root_vector(lat, [x - y for x, y in zip(e0, e2)]).is_root
    with pytest.raises(ValueError, match="not a k-root"):
        distgraph._reflected(config_for(lat), e0, e2, [e0])


def test_neighbors_rejects_wrong_norm():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    with pytest.raises(ValueError):
        neighbors(config_for(lat), (1, 1, 0, 0, 0))


def test_rotation_equivariance():
    m = build(make_family(FamilyId("N1", 1, 7, 7)))
    assert m.rotation_generator is not None  # the basis generator rotates
    lat = invariant_form(m)
    cfg = config_for(lat)
    basis = lattice_basis(m)
    t = [list(col) for col in zip(*basis)]
    gl = mat_to_int(mat_mul(mat_mul(mat_inv(t), m.basis_generator()), t))
    u = (1, 0, 0, 0, 0, 0, 0)
    gu = tuple(mat_vec(gl, list(u)))
    lhs = {tuple(mat_vec(gl, list(w))) for w in neighbors(cfg, u)}
    assert lhs == set(neighbors(cfg, gu))


def test_find_path_trivial_and_short():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    cfg = config_for(lat)
    e1 = (1, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0)
    res = _find_path(cfg, e1, e1)
    assert res.path == (e1,)
    res = _find_path(cfg, e1, e2)
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
                    ra = reflection(root_vector(lat, a))
                    rb = reflection(root_vector(lat, b))
                    ru = reflection(root_vector(lat, list(u)))
                    rw = reflection(root_vector(lat, list(w)))
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
    return lat, roots, [reflection(r) for r in roots[:n]]


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
    ra, rb = reflection(a), reflection(b)
    assert reflection_product(a, b, identity(lat.n)) == mat_mul(ra, rb)
    m = reflection(c)
    assert reflection_product(a, b, m) == mat_mul(m, mat_mul(ra, rb))


def _coreflection_oracle(lat, vec):
    """2 G v / (v, v) in rationals when every entry is an integer, else
    None: the coreflection of a k-root, and the mark of a non-root."""
    gv = mat_vec(lat.gram, list(vec))
    k = dot(list(vec), gv)
    if k == 0:
        return None
    s = tuple(Fraction(2 * x, k) for x in gv)
    return s if all(x.denominator == 1 for x in s) else None


@settings(max_examples=100, deadline=None)
@given(_census_root_triples())
def test_root_vector_carries_its_coreflection(case):
    lat, a, b, c = case
    vecs = [a.vec, b.vec, c.vec, (0,) * lat.n]
    vecs += [tuple(x + y for x, y in zip(p.vec, q.vec))
             for p, q in ((a, b), (b, c), (a, c))]
    for vec in vecs:
        r = root_vector(lat, vec)
        s = _coreflection_oracle(lat, vec)
        assert r.is_root == (s is not None)
        assert r.coreflection == s
        if s is not None:
            assert coreflection(r) == s


def test_root_vector_coreflection_is_none_off_the_roots():
    lat = family_lattice(FamilyId("N1", 1, 5, 5))
    for vec in [(0,) * 5, (1, 0, -1, 0, 0), (1, 0, 1, 0, 0)]:
        r = root_vector(lat, vec)
        assert not r.is_root and r.coreflection is None
        assert _coreflection_oracle(lat, vec) is None
        with pytest.raises(ValueError, match="not a k-root"):
            coreflection(r)
        with pytest.raises(ValueError, match="not a k-root"):
            reflect(r, [vec])


@settings(max_examples=50, deadline=None)
@given(_census_root_triples())
def test_root_vector_value_is_its_three_fields(case):
    # vec, norm and coreflection; is_root is read off the coreflection, so
    # a hand-built RootVector is a root exactly when it carries one
    _, a, _, _ = case
    same = RootVector(a.vec, a.norm, a.coreflection)
    assert same.is_root and a == same and hash(a) == hash(same)
    assert reflect(same, [a.vec]) == reflect(a, [a.vec])
    bare = RootVector(a.vec, a.norm)
    assert not bare.is_root and bare != a
    with pytest.raises(ValueError, match="not a k-root"):
        reflect(bare, [a.vec])
    assert repr(a) == repr(same) == (
        f"RootVector(vec={a.vec!r}, norm={a.norm!r}, is_root=True)")
    assert repr(bare) == (
        f"RootVector(vec={a.vec!r}, norm={a.norm!r}, is_root=False)")


@settings(max_examples=100, deadline=None)
@given(_census_root_triples())
def test_reflect_is_the_reflection_matrix(case):
    lat, a, b, c = case
    assert reflect(a, [a.vec]) == [tuple(-x for x in a.vec)]
    ys = [b.vec, c.vec]
    assert reflect(a, reflect(a, ys)) == ys
    ra = reflection(a)
    assert reflect(a, ys) == [tuple(mat_vec(ra, list(y))) for y in ys]


def _counting_root_vector(monkeypatch):
    calls = []

    def counted(l, vec):
        calls.append(tuple(vec))
        return root_vector(l, vec)

    monkeypatch.setattr(distgraph, "root_vector", counted)
    return calls


def test_factorize_path_forms_each_root_once(monkeypatch):
    calls = _counting_root_vector(monkeypatch)
    for n in (7, 9):
        lat = family_lattice(FamilyId("N1", 3, n, n))
        path = explicit_path_N1_3(n)
        for p in (path[:1], path[:2], path):
            calls.clear()
            factorize_path(config_for(lat), p)
            assert len(calls) == 3 * len(p) - 2


def test_reflected_forms_one_root(monkeypatch):
    lat = family_lattice(FamilyId("N1", 1, 7, 7))
    cfg = config_for(lat)
    e0 = _e(lat.n, 0)
    near = neighbors(cfg, e0)
    calls = _counting_root_vector(monkeypatch)
    for w in near[:3]:
        calls.clear()
        assert distgraph._reflected(cfg, e0, w, near) == neighbors(cfg, w)
        assert calls == [tuple(x - y for x, y in zip(e0, w))]


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
        assert len(factorize_path(cfg, [u, w, u])) == 2
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
    assert factorize_path(cfg, []) == ()
    e1 = (1, 0, 0, 0, 0)
    res = _find_path(cfg, e1, (0, 0, 1, 0, 0))
    assert res.path is not None
    pairs = factorize_path(cfg, res.path)
    assert len(pairs) == len(res.path) - 1
    for a, b in pairs:
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


def test_census_script_counts(monkeypatch, capsys):
    # scripts/run_certificates.py --census 7: instances, ThinCertified,
    # PathFoundGateInconclusive and NoPathFound per odd n, then the totals
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_certificates.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--census", "7"])
    runpy.run_path(str(script), run_name="__main__")
    rows = [line.split()[:5] for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["3", "13", "0", "9", "4"], ["5", "27", "9", "6", "12"],
                        ["7", "40", "14", "6", "20"],
                        ["all", "80", "23", "21", "36"]]


def test_census_script_proof_counts(monkeypatch, capsys):
    # scripts/run_certificates.py --census 11: per odd n, NoPathFound and
    # its split into closed, mod2 and open; every one is proved
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_certificates.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--census", "11"])
    runpy.run_path(str(script), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0][4:8] == ["NoPathFound", "closed", "mod2", "open"]
    assert [[r[0]] + r[4:8] for r in rows[1:]] == [
        ["3", "4", "4", "0", "0"], ["5", "12", "11", "1", "0"],
        ["7", "20", "16", "4", "0"], ["9", "31", "23", "8", "0"],
        ["11", "31", "23", "8", "0"], ["all", "98", "77", "21", "0"]]


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
