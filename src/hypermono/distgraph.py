"""Minimal distance graph on the norm -2 vectors of a hyperbolic lattice:
neighbor enumeration, bidirectional path search, the reflection-product
factorization witness, and the explicit 2-edge paths for the j = 3 family.

`neighbors` enumerates a vertex's list exactly (kernel, LLL, Fincke-Pohst).
`find_path` calls it only for its two roots: on an edge (p, u) the root
a = p - u gives an integral reflection r_a that swaps p and u, so every
other vertex's list is its parent's list reflected by r_a and sorted."""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    bilinear,
    dot,
    enumerate_short_vectors,
    identity,
    integer_kernel_and_solution,
    lll_reduce,
    mat_eq,
    mat_vec,
    vec_sub,
)
from .exponents import classify
from .lattice import (
    CERTIFIED,
    EVEN_TYPE,
    QuadLattice,
    QuotientGate,
    RootVector,
    _coreflection_of,
    _rank_two_product,
    _root_and_coreflection,
    invariant_form,
    quotient_gate,
    reflection,
    root_vector,
)
from .levelt import MonodromySystem


@dataclass(frozen=True)
class GraphConfig:
    lattice: QuadLattice
    max_depth: int = 5
    node_budget: int = 1_000_000

    def __post_init__(self):
        if self.max_depth < 1 or self.node_budget < 1:
            raise ValueError("max_depth and node_budget must be positive")

    @property
    def edge_value(self) -> int:
        """(u, w) on an edge: -3 for EvenType, -4 for OddType."""
        return -3 if self.lattice.parity == EVEN_TYPE else -4


def config_for(lattice: QuadLattice, *, max_depth: int = 5,
               node_budget: int = 1_000_000) -> GraphConfig:
    return GraphConfig(lattice, max_depth, node_budget)


def neighbors(cfg: GraphConfig, u) -> list[tuple[int, ...]]:
    """All lattice vectors w with (w,w) = -2 and (u,w) = edge_value, sorted.

    The slice {w : (u,w) = e} is an affine coset x0 + K over the orthogonal
    complement K of u, which is positive definite. On an LLL-reduced basis
    b_j of K, w = x0 + sum z_j b_j has (w,w) = -2 exactly when
    (z+o)^t M (z+o) = -2 - (x0*, x0*), where M is the Gram matrix of the b_j,
    o = M^-1 (b_j, x0) and x0* is x0 minus its projection onto K. The
    integer Fincke-Pohst walk lists exactly these boundary points from the
    LLL's integral Gram-Schmidt data, taking o through the products
    M o = (b_j, x0), so nothing is inverted."""
    g = cfg.lattice.gram
    row = mat_vec(g, u)
    if dot(u, row) != -2:
        raise ValueError("neighbor enumeration requires a norm -2 vertex")
    x0, kernel = integer_kernel_and_solution(row, cfg.edge_value)
    if x0 is None:
        return []
    red = lll_reduce(kernel, g)
    gs = red.gram_schmidt
    gx0 = mat_vec(g, x0)
    products = [dot(b, gx0) for b in red.basis]
    bound = -2 - gs.orthogonal_norm(products, dot(x0, gx0))
    out = []
    for z in enumerate_short_vectors(gs, bound, products):
        w = x0
        for zi, bi in zip(z, red.basis):
            if zi:
                w = [x + zi * y for x, y in zip(w, bi)]
        if bilinear(g, w, w) != -2 or dot(row, w) != cfg.edge_value:
            raise AssertionError("enumerated vector is not a neighbor")
        out.append(tuple(w))
    out.sort()
    return out


@dataclass(frozen=True)
class PathSearch:
    path: tuple[tuple[int, ...], ...] | None
    budget_exhausted: bool
    nodes_expanded: int


def _reflected(cfg: GraphConfig, parent, node, near) -> list[tuple[int, ...]]:
    """The neighbor list of node, read from near, the list of its parent
    across the edge (parent, node).

    a = parent - node is a root: (a, a) = 2 in even type; in odd type
    (a, a) = 4 and every Gram entry is even, so (a, x) is even for every x.
    Either way r_a(x) = x - (s_a, x) a is integral, with s_a the
    coreflection (ValueError if a is not a root), and
    2(a, parent)/(a, a) = 1 gives r_a(parent) = node. An isometry that
    swaps the two ends maps the vectors pairing with parent at the edge
    value one to one onto those pairing with node, so the list is
    sort(r_a(near)), at O(n) per vector."""
    lat = cfg.lattice
    a = vec_sub(parent, node)
    s = _coreflection_of(lat, a)
    out = []
    for x in near:
        k = dot(s, x)
        out.append(tuple([y - k * z for y, z in zip(x, a)]))
    out.sort()
    return out


def find_path(cfg: GraphConfig, src, dst) -> PathSearch:
    """Bidirectional breadth-first search for a shortest path of length at
    most max_depth; deterministic (frontiers and children in sorted order).

    No vertex is expanded twice: each side's parents dedupe its frontier,
    and a vertex reached from both sides ends the search as a meet.

    `neighbors` runs only for the two roots, src and dst. Every other
    vertex was reached from a parent on the level its side expanded last,
    and its list is the parent's list reflected across their edge
    (`_reflected`). Each side keeps the lists of that one level until its
    next level replaces them; the lists of the search's last level are not
    kept.

    Adjacent endpoints are read from (src, dst) alone: the search would
    expand src once and meet dst among its neighbors, so the result is the
    same, one node expanded, with no neighbor enumeration."""
    g = cfg.lattice.gram
    src = tuple(src)
    dst = tuple(dst)
    for end in (src, dst):
        if bilinear(g, end, end) != -2:
            raise ValueError("path endpoints must have norm -2")
    if src == dst:
        return PathSearch((src,), False, 0)
    if bilinear(g, src, dst) == cfg.edge_value:
        return PathSearch((src, dst), False, 1)

    parents_s: dict = {src: None}
    parents_d: dict = {dst: None}
    frontier_s = [src]
    frontier_d = [dst]
    lists_s: dict = {}
    lists_d: dict = {}
    depth_s = depth_d = 0
    expanded = 0

    def build(meet, side_parent_s, side_parent_d):
        left = []
        node = meet
        while node is not None:
            left.append(node)
            node = side_parent_s[node]
        left.reverse()
        node = side_parent_d[meet]
        while node is not None:
            left.append(node)
            node = side_parent_d[node]
        return tuple(left)

    while frontier_s and frontier_d and depth_s + depth_d < cfg.max_depth:
        if len(frontier_s) <= len(frontier_d):
            frontier, parents, other, lists = (frontier_s, parents_s,
                                               parents_d, lists_s)
            forward = True
        else:
            frontier, parents, other, lists = (frontier_d, parents_d,
                                               parents_s, lists_d)
            forward = False
        new_frontier = []
        new_lists = {}
        # the search ends after its last level, so those lists go unread
        keep = depth_s + depth_d + 1 < cfg.max_depth
        meets = []
        for node in frontier:
            if expanded >= cfg.node_budget:
                return PathSearch(None, True, expanded)
            expanded += 1
            parent = parents[node]
            near = (neighbors(cfg, node) if parent is None
                    else _reflected(cfg, parent, node, lists[parent]))
            if keep:
                new_lists[node] = near
            for w in near:
                if w in parents:
                    continue
                parents[w] = node
                new_frontier.append(w)
                if w in other:
                    meets.append(w)
        if meets:
            meet = min(meets)
            return PathSearch(build(meet, parents_s, parents_d), False,
                              expanded)
        new_frontier.sort()
        if forward:
            frontier_s, lists_s = new_frontier, new_lists
            depth_s += 1
        else:
            frontier_d, lists_d = new_frontier, new_lists
            depth_d += 1
    return PathSearch(None, False, expanded)


@dataclass(frozen=True)
class FactorizationWitness:
    pairs: tuple[tuple[RootVector, RootVector], ...]


def factorize_path(cfg: GraphConfig, path) -> FactorizationWitness:
    """For each edge (u,w): the roots u-w and u-2w (even; both norm +2) or
    u-w and u-3w (odd; both norm +4) with r_u r_w = r_{u-w} r_{u-2w} (resp.
    r_{u-w} r_{u-3w}) and r_{u-w}(u) = w, verified exactly, plus the
    telescoped product identity over the whole path. Every product is formed
    as a rank-two update (`_rank_two_product`), in O(n^2) per edge, and
    each vertex's and edge root's coreflection is formed once, from one
    product G v."""
    lat = cfg.lattice
    # the vertices as integer tuples, the type of every RootVector.vec
    verts = [tuple(int(x) for x in p) for p in path]
    cof = {}  # vertex index -> (vertex, coreflection), formed on first use

    def vertex(i):
        if i not in cof:
            cof[i] = verts[i], _coreflection_of(lat, verts[i])
        return cof[i]

    mult = 2 if lat.parity == EVEN_TYPE else 3
    root_norm = 2 if lat.parity == EVEN_TYPE else 4
    pairs = []
    one = identity(lat.n)
    telescoped = one
    for i, (u, w) in enumerate(zip(verts, verts[1:])):
        if bilinear(lat.gram, u, w) != cfg.edge_value:
            raise ValueError("consecutive path vertices are not adjacent")
        a, sa = _root_and_coreflection(lat, vec_sub(u, w))
        b, sb = _root_and_coreflection(lat, vec_sub(u, [mult * x for x in w]))
        if a.norm != root_norm or b.norm != root_norm:
            raise AssertionError("factorization roots have the wrong norm")
        if not (a.is_root and b.is_root):
            raise AssertionError("factorization roots are not integral roots")
        a_s, b_s = (a.vec, sa), (b.vec, sb)
        if not mat_eq(_rank_two_product(vertex(i), vertex(i + 1), one),
                      _rank_two_product(a_s, b_s, one)):
            raise AssertionError("reflection product identity failed")
        k = dot(sa, u)
        if tuple(x - k * y for x, y in zip(u, a.vec)) != w:
            raise AssertionError("r_{u-w} does not swap the edge endpoints")
        pairs.append((a, b))
        telescoped = _rank_two_product(a_s, b_s, telescoped)
    if verts:
        r_first_last = _rank_two_product(vertex(0), vertex(len(verts) - 1),
                                         one)
        if not mat_eq(r_first_last, telescoped):
            raise AssertionError("telescoped product identity failed")
    return FactorizationWitness(tuple(pairs))


def explicit_path_N1_3(n: int) -> list[list[int]]:
    """The 2-edge path for the j = 3 family, built from the norm +2 vector u
    with 6-periodic coordinates (1,-2,2,-1,0,0,...): w = u + v_{n-1} when
    n = 1 (mod 6) (pattern up to m = n-3), w = u + v_{n-2} when n = 3 (mod 6)
    (up to m = n-5). Returns [v_a, w, v_b] in lattice coordinates."""
    from .exponents import FamilyId, make_family
    from .levelt import build

    if n % 2 == 0 or n < 7:
        raise ValueError("n must be odd and at least 7")
    from math import gcd
    if gcd(n + 1, 3) != 1:
        raise ValueError("the j = 3 family requires gcd(n+1, 3) = 1")
    if n % 6 == 1:
        m, through = n - 3, n - 2  # w = u + v_{n-1} (0-indexed n-2)
        ends = (n - 2, n - 1)  # w is adjacent to v_{n-1} and v_n
    elif n % 6 == 3:
        m, through = n - 5, n - 3  # w = u + v_{n-2}
        ends = (n - 3, n - 2)  # w is adjacent to v_{n-2} and v_{n-1}
    else:
        raise ValueError(f"n = {n} is outside both residue constructions")
    pattern = [1, -2, 2, -1, 0, 0]
    u = [pattern[i % 6] if i < m else 0 for i in range(n)]
    w = list(u)
    w[through] += 1
    lat = invariant_form(build(make_family(FamilyId("N1", 3, n, n))))
    g = lat.gram
    if bilinear(g, u, u) != 2:
        raise AssertionError("auxiliary vector does not have norm +2")
    if bilinear(g, w, w) != -2:
        raise AssertionError("constructed midpoint does not have norm -2")
    a = [0] * n
    b = [0] * n
    a[ends[0]], b[ends[1]] = 1, 1
    if bilinear(g, w, a) != -3 or bilinear(g, w, b) != -3:
        raise AssertionError("midpoint pairings are not -3")
    return [a, w, b]


@dataclass(frozen=True)
class CertificateReport:
    status: str  # ThinCertified | PathFoundGateInconclusive | NoPathFound
    path: tuple[tuple[int, ...], ...]
    factorization: tuple[tuple[RootVector, RootVector], ...]
    gate: QuotientGate
    detail: str
    nodes_expanded: int  # by the one target search
    budget_exhausted: bool  # NoPathFound because node_budget ran out


THIN_CERTIFIED = "ThinCertified"
PATH_FOUND_GATE_INCONCLUSIVE = "PathFoundGateInconclusive"
NO_PATH_FOUND = "NoPathFound"


def certify(m: MonodromySystem, *, max_depth: int = 5,
            node_budget: int = 1_000_000) -> CertificateReport:
    """Path from v to g.v in the distance graph + infinite-quotient gate.

    r_w = r_{-w}, so either sign of the target certifies; one search runs,
    toward the sign that pairs negatively with v, under node_budget."""
    cls = classify(m.pair)
    if not cls.hyperbolic:
        raise ValueError("certificate applies to hyperbolic groups only")
    lat = invariant_form(m)
    if lat.signature != (lat.n - 1, 1):
        raise ValueError(f"certificate search needs signature ({lat.n - 1}, 1)"
                         f", got {lat.signature}")
    cfg = config_for(lat, max_depth=max_depth, node_budget=node_budget)
    gate = quotient_gate(lat)
    src = tuple(1 if i == 0 else 0 for i in range(lat.n))
    # In signature (n-1, 1) every norm -2 vector is timelike, and two of
    # them lie on one sheet of the hyperboloid exactly when they pair at
    # <= -2 (reverse Cauchy-Schwarz; Ratcliffe, Foundations of Hyperbolic
    # Manifolds, 3.1). Edges pair at -3 or -4, so a path from v never leaves
    # v's sheet: of +-g.v only the one pairing negatively with v is
    # reachable. (v, g.v) = gram[0][1] is never 0, as g.v != +-v gives
    # |(v, g.v)| > 2.
    sign = 1 if lat.gram[0][1] < 0 else -1
    dst = tuple(sign if i == 1 else 0 for i in range(lat.n))
    search = find_path(cfg, src, dst)
    if search.path is None:
        path, pairs, status = (), (), NO_PATH_FOUND
        detail = ("node budget exhausted before the depth limit"
                  if search.budget_exhausted else
                  f"no path within depth {max_depth}")
    else:
        path = search.path
        pairs = factorize_path(cfg, path).pairs
        status = (THIN_CERTIFIED if gate.verdict == CERTIFIED
                  else PATH_FOUND_GATE_INCONCLUSIVE)
        detail = f"path of length {len(path) - 1}; {gate.reason}"
    return CertificateReport(status, path, pairs, gate, detail,
                             search.nodes_expanded, search.budget_exhausted)


def component_generators(cfg: GraphConfig, u) -> list[list[list[int]]]:
    """The reflections r_{u - u_j} over the immediate neighbors u_j of u."""
    out = []
    for w in neighbors(cfg, u):
        r = root_vector(cfg.lattice, vec_sub(u, w))
        out.append(reflection(cfg.lattice, r))
    return out
