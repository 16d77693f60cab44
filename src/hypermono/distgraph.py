"""Minimal distance graph on the norm -2 vectors of a hyperbolic lattice:
neighbor enumeration, bidirectional path search, the reflection-product
factorization witness, and the explicit 2-edge paths for the j = 3 family.

`neighbors` enumerates a vertex's list exactly (kernel, LLL, Fincke-Pohst).
`find_path` calls it only for its two roots, unless it is handed their
lists: on an edge (p, u) the root a = p - u gives an integral reflection r_a
that swaps p and u, so every other vertex's list is its parent's list
reflected by r_a and sorted. `certify` enumerates at most one list, v's: the
target's is v's moved by the isometry g, and when v's reflections cannot
reach the target even mod 2 (`orbit_mod2`), no search runs."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

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
from .exponents import FamilyId, classify, make_family
from .lattice import (
    CERTIFIED,
    EVEN_TYPE,
    QuadLattice,
    QuotientGate,
    RootVector,
    invariant_form,
    quotient_gate,
    reflect,
    reflection,
    reflection_product,
    root_vector,
)
from .levelt import MonodromySystem, build, companion_step


MAX_DEPTH = 5  # default path length limit of a certificate search
NODE_BUDGET = 1_000_000  # default limit on the vertices it expands


@dataclass(frozen=True)
class GraphConfig:
    lattice: QuadLattice
    max_depth: int = MAX_DEPTH
    node_budget: int = NODE_BUDGET

    def __post_init__(self):
        if self.max_depth < 1 or self.node_budget < 1:
            raise ValueError("max_depth and node_budget must be positive")

    @property
    def edge_value(self) -> int:
        """(u, w) on an edge: -3 for EvenType, -4 for OddType."""
        return -3 if self.lattice.parity == EVEN_TYPE else -4


def config_for(lattice: QuadLattice, *, max_depth: int = MAX_DEPTH,
               node_budget: int = NODE_BUDGET) -> GraphConfig:
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
    Either way r_a is integral (`reflect`; ValueError if a is not a root),
    and 2(a, parent)/(a, a) = 1 gives r_a(parent) = node. An isometry that
    swaps the two ends maps the vectors pairing with parent at the edge
    value one to one onto those pairing with node, so the list is
    sort(r_a(near)), at O(n) per vector."""
    out = reflect(root_vector(cfg.lattice, vec_sub(parent, node)), near)
    out.sort()
    return out


def find_path(cfg: GraphConfig, src, dst, roots=None) -> PathSearch:
    """Bidirectional breadth-first search for a shortest path of length at
    most max_depth; deterministic (frontiers and children in sorted order).

    Side 0 searches from src and side 1 from dst. Each level expands the
    whole frontier of one side: the smaller one, src's on a tie. The levels
    of both sides together are at most max_depth. No vertex is expanded
    twice: each side's parents dedupe its frontier, and a vertex reached
    from both sides ends the search as a meet (the least, if several).

    `neighbors` runs only for the two roots, src and dst, and not at all
    when roots = (N(src), N(dst)) hands their sorted lists in. Every other
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

    parents = ({src: None}, {dst: None})
    frontiers = [[src], [dst]]
    lists = [{}, {}]
    expanded = 0
    for level in range(cfg.max_depth):
        if not (frontiers[0] and frontiers[1]):
            break
        s = len(frontiers[0]) > len(frontiers[1])
        parent_of, other, near_lists = parents[s], parents[not s], lists[s]
        new_frontier, new_lists, meets = [], {}, []
        # the search ends after its last level, so those lists go unread
        keep = level + 1 < cfg.max_depth
        for node in frontiers[s]:
            if expanded >= cfg.node_budget:
                return PathSearch(None, True, expanded)
            expanded += 1
            parent = parent_of[node]
            if parent is not None:
                near = _reflected(cfg, parent, node, near_lists[parent])
            elif roots is not None:
                near = roots[s]
            else:
                near = neighbors(cfg, node)
            if keep:
                new_lists[node] = near
            for w in near:
                if w in parent_of:
                    continue
                parent_of[w] = node
                new_frontier.append(w)
                if w in other:
                    meets.append(w)
        if meets:
            # each side's parents lead from the meet back to its root
            meet = min(meets)
            halves = ([], [])
            for half, up in zip(halves, parents):
                node = meet
                while node is not None:
                    half.append(node)
                    node = up[node]
            return PathSearch(tuple(halves[0][::-1] + halves[1][1:]), False,
                              expanded)
        new_frontier.sort()
        frontiers[s], lists[s] = new_frontier, new_lists
    return PathSearch(None, False, expanded)


@dataclass(frozen=True)
class FactorizationWitness:
    pairs: tuple[tuple[RootVector, RootVector], ...]


def factorize_path(cfg: GraphConfig, path) -> FactorizationWitness:
    """For each edge (u,w): the roots u-w and u-2w (even; both norm +2) or
    u-w and u-3w (odd; both norm +4) with r_u r_w = r_{u-w} r_{u-2w} (resp.
    r_{u-w} r_{u-3w}) and r_{u-w}(u) = w, verified exactly, plus the
    telescoped product identity over the whole path. Every product is formed
    as a rank-two update (`reflection_product`), in O(n^2) per edge, and
    each vertex's and edge root's coreflection is formed once, from one
    product G v (`root_vector`)."""
    lat = cfg.lattice
    verts = [root_vector(lat, p) for p in path]
    mult = 2 if lat.parity == EVEN_TYPE else 3
    root_norm = 2 if lat.parity == EVEN_TYPE else 4
    pairs = []
    one = identity(lat.n)
    telescoped = one
    for u, w in zip(verts, verts[1:]):
        if bilinear(lat.gram, u.vec, w.vec) != cfg.edge_value:
            raise ValueError("consecutive path vertices are not adjacent")
        a = root_vector(lat, vec_sub(u.vec, w.vec))
        b = root_vector(lat, vec_sub(u.vec, [mult * x for x in w.vec]))
        if a.norm != root_norm or b.norm != root_norm:
            raise AssertionError("factorization roots have the wrong norm")
        if not (a.is_root and b.is_root):
            raise AssertionError("factorization roots are not integral roots")
        if not mat_eq(reflection_product(u, w, one),
                      reflection_product(a, b, one)):
            raise AssertionError("reflection product identity failed")
        if reflect(a, [u.vec]) != [w.vec]:
            raise AssertionError("r_{u-w} does not swap the edge endpoints")
        pairs.append((a, b))
        telescoped = reflection_product(a, b, telescoped)
    if verts and not mat_eq(reflection_product(verts[0], verts[-1], one),
                            telescoped):
        raise AssertionError("telescoped product identity failed")
    return FactorizationWitness(tuple(pairs))


def explicit_path_N1_3(n: int) -> list[list[int]]:
    """The 2-edge path for the j = 3 family, built from the norm +2 vector u
    with 6-periodic coordinates (1,-2,2,-1,0,0,...): w = u + v_{n-1} when
    n = 1 (mod 6) (pattern up to m = n-3), w = u + v_{n-2} when n = 3 (mod 6)
    (up to m = n-5). Returns [v_a, w, v_b] in lattice coordinates."""
    if n % 2 == 0 or n < 7:
        raise ValueError("n must be odd and at least 7")
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
    nodes_expanded: int  # by the one target search, or 1 for v under a proof
    budget_exhausted: bool  # NoPathFound because node_budget ran out
    no_path_proof: str | None = None  # CLOSED | MOD2: no path at any depth


THIN_CERTIFIED = "ThinCertified"
PATH_FOUND_GATE_INCONCLUSIVE = "PathFoundGateInconclusive"
NO_PATH_FOUND = "NoPathFound"
CLOSED = "closed"  # v has no neighbor
MOD2 = "mod2"  # the target is outside v's orbit mod 2


def _mask(v) -> int:
    """v mod 2 as a bit mask, bit i for coordinate i."""
    return sum((x & 1) << i for i, x in enumerate(v))


def orbit_mod2(cfg: GraphConfig, u, near) -> Iterator[int]:
    """The orbit of u mod 2 under the reflections r_a in the roots
    a = u - w, w in near = N(u), as bit masks (`_mask`), breadth first from
    u's own mask. Each element is yielded when it is first reached, so a
    caller looking for one stops before expanding the rest of its level.

    a has norm 2 in even type and 4 in odd type, where every Gram entry is
    even, so its coreflection s = 2 G a / (a, a) is M a for M = G or G / 2.
    Mod 2, s is the XOR of the rows of M mod 2 that a's odd coordinates
    select, and r_a(x) = x - (s, x) a is x XOR ((s & x) parity) a: one AND,
    one parity and one XOR per product. Roots equal mod 2 act alike, so each
    pair (a, s) mod 2 is applied once."""
    half = 1 if cfg.lattice.parity == EVEN_TYPE else 2
    rows = [_mask([x // half for x in row]) for row in cfg.lattice.gram]
    gens = set()
    for w in near:
        a = _mask(vec_sub(u, w))
        s = 0
        for i, row in enumerate(rows):
            if a >> i & 1:
                s ^= row
        if s:  # else r_a is the identity mod 2
            gens.add((a, s))
    gens = sorted(gens)
    start = _mask(u)
    seen = {start}
    orbit = [start]
    yield start
    for x in orbit:  # grows as it is read: a breadth-first queue
        for a, s in gens:
            if (s & x).bit_count() & 1:
                y = x ^ a
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
                    yield y


def _outside_orbit_mod2(cfg: GraphConfig, u, near, t) -> bool:
    """t mod 2 is not in u's orbit mod 2 (`orbit_mod2`). False also when the
    walk reaches node_budget elements past u's without deciding."""
    target = _mask(t)
    for count, x in enumerate(orbit_mod2(cfg, u, near)):
        if x == target or count > cfg.node_budget:
            return False
    return True


def _rotated(m: MonodromySystem, sign: int, near) -> list[tuple[int, ...]]:
    """N(sign g u) = sort(sign g N(u)) for the basis generator g, an
    isometry (`invariant_form` checks g^t G g = G) that is a companion matrix
    on the lattice basis, applied by `companion_step` at O(n) per vector."""
    g = m.basis_generator()
    return sorted(tuple([sign * x for x in companion_step(g, w)])
                  for w in near)


def certify(m: MonodromySystem, *, max_depth: int = MAX_DEPTH,
            node_budget: int = NODE_BUDGET) -> CertificateReport:
    """Path from v to g.v in the distance graph + infinite-quotient gate.

    r_w = r_{-w}, so either sign of the target t certifies; only the sign
    that pairs negatively with v is reachable. An adjacent t is read by
    `find_path` from the pairing alone, with no neighbor enumeration.
    Otherwise N(v) is enumerated once, and a search runs only when no proof
    shows that no path exists at any depth (`no_path_proof`):

    - "closed": N(v) is empty.
    - "mod2": t mod 2 is outside v's orbit mod 2 (`orbit_mod2`). Let
      A = {v - w : w in N(v)} and W = <r_a : a in A>. Each r_a is integral
      and maps v to w, and N(r_a x) = r_a N(x), as r_a is an isometry. So
      a path v = p_0, p_1, ... has p_i = h v with h in W by induction
      (p_{i+1} is in N(h v) = h N(v)), and v's component lies in W v.
      Reduction mod 2 maps W v into the orbit of v mod 2 under the r_a mod
      2; both signs of t agree mod 2, so one test rules out both. The walk
      may reach node_budget elements past v's; one more leaves the test
      undecided, and the search runs.

    The search toward t gets N(v) and N(t) = sort(+-g N(v)) (`_rotated`), so
    it enumerates no list. A proof counts v's one expansion, as a search
    that found v closed does; detail "no path within depth d" stays true."""
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
    proof = None
    if sign * lat.gram[0][1] == cfg.edge_value:
        search = find_path(cfg, src, dst)
    else:
        near = neighbors(cfg, src)
        if not near:
            proof = CLOSED
        elif _outside_orbit_mod2(cfg, src, near, dst):
            proof = MOD2
        if proof is None:
            search = find_path(cfg, src, dst,
                               roots=(near, _rotated(m, sign, near)))
        else:
            search = PathSearch(None, False, 1)
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
                             search.nodes_expanded, search.budget_exhausted,
                             proof)


def component_generators(cfg: GraphConfig, u) -> list[list[list[int]]]:
    """The reflections r_{u - u_j} over the immediate neighbors u_j of u."""
    out = []
    for w in neighbors(cfg, u):
        r = root_vector(cfg.lattice, vec_sub(u, w))
        out.append(reflection(r))
    return out
