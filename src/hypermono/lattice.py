"""Invariant quadratic form, normalized lattice Gram matrix, parity,
invariant factors, k-roots/reflections and the infinite-quotient gates.

The invariant form is normalized by (v, v) = -2, so (v, u) = -u_n for every
u, and its Gram matrix in the lattice basis {g^i v} is the symmetric Toeplitz
matrix G[i][j] = -(g^|i-j| v)_n. `invariant_form` builds it with no rational
solve and checks three integer identities: g^t G g = G; C g^j v = g^j v +
G[j][0] v with G[0][0] = -2; and A C = B. It is the only invariant form up to
scale, because disjoint exponents give an irreducible group (Beukers-Heckman
1989).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import (
    dot,
    identity,
    mat_eq,
    mat_mul,
    mat_vec,
    signature_of_symmetric,
    smith_normal_form,
)
from .levelt import MonodromySystem, lattice_basis

EVEN_TYPE = "EvenType"
ODD_TYPE = "OddType"


def classify_parity(gram) -> str | None:
    entries = [x for row in gram for x in row]
    diag = [gram[i][i] for i in range(len(gram))]
    some_odd = any(x % 2 for x in entries)
    if some_odd:
        if all(d % 2 == 0 for d in diag):
            return EVEN_TYPE
        return None
    return ODD_TYPE


@dataclass(frozen=True)
class QuadLattice:
    gram: tuple[tuple[int, ...], ...]
    parity: str | None
    signature: tuple[int, int]

    @property
    def n(self) -> int:
        return len(self.gram)

    @cached_property
    def inv_factors(self) -> tuple[int, ...]:
        """The nontrivial (> 1) invariant factors, sorted, from the Smith
        normal form on first read: the odd-type gate never reads them."""
        return tuple(sorted(d for d in smith_normal_form(self.gram).diagonal
                            if d > 1))

    @classmethod
    def from_gram(cls, gram) -> "QuadLattice":
        g = [[int(x) for x in row] for row in gram]
        n = len(g)
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        pos, neg, zero = signature_of_symmetric(g)
        if zero:
            raise ValueError("Gram matrix is degenerate")
        return cls(tuple(tuple(r) for r in g), classify_parity(g), (pos, neg))


@dataclass(frozen=True)
class RootVector:
    vec: tuple[int, ...]
    norm: int
    is_root: bool


@dataclass(frozen=True)
class QuotientGate:
    verdict: str  # "InfiniteIndexCertified" | "Inconclusive"
    reason: str


CERTIFIED = "InfiniteIndexCertified"
INCONCLUSIVE = "Inconclusive"


def invariant_form(m: MonodromySystem) -> QuadLattice:
    """Lattice of the invariant form normalized by (v, v) = -2.

    The Gram matrix in the basis b_i = g^i v of `lattice_basis` is the
    symmetric Toeplitz matrix G[i][j] = c_|i-j| with c_k = -(g^k v)_n:
    (v, u) = -u_n for every u, and (g^i v, g^j v) = (v, g^(j-i) v).
    It is verified in integers before use (ValueError names a failed check):

    - g-invariance: g^t G g = G. On the basis, g acts as the companion
      matrix of its characteristic polynomial (Cayley-Hamilton). `build`
      makes g a companion matrix, so that is g itself; its shape is checked,
      and `companion_preserves` checks the identity in O(n^2).
    - C-invariance: C b_j = b_j + G[j][0] v for every j, so C is the
      reflection x -> x + (x, v) v, an isometry since G[0][0] = -2.
    - A and B: A C = B, so both lie in <g, C> (g is A or B, C = C^-1).

    For disjoint exponents the group is irreducible (Beukers-Heckman 1989),
    so by Schur's lemma this is the only invariant form up to scale.
    """
    n = m.n
    g = m.basis_generator()
    basis = lattice_basis(m)
    c = [-b[n - 1] for b in basis]
    gram = [[c[abs(i - j)] for j in range(n)] for i in range(n)]

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"invariant form check failed: {what}")

    check(c[0] == -2, "(v, v) = -2")
    check(all(g[i][j] == (i == j + 1) for i in range(n) for j in range(n - 1)),
          "basis generator g is a companion matrix")
    check(companion_preserves(gram, [row[n - 1] for row in g]),
          "g-invariance g^t G g = G")
    check(all(mat_vec(m.C, b) == [x + row[0] * y for x, y in zip(b, m.v)]
              for b, row in zip(basis, gram)),
          "C-invariance C g^j v = g^j v + (g^j v, v) v")
    check(mat_eq(mat_mul(m.A, m.C), m.B), "A C = B")
    lat = QuadLattice.from_gram(gram)
    if lat.parity is None:
        raise ValueError("Gram matrix has mixed parity pattern")
    return lat


def companion_preserves(gram, p) -> bool:
    """g^t G g = G for a symmetric Toeplitz G and the companion matrix g
    with last column p, in O(n^2). Column i < n-1 of g is e_(i+1), so
    (g^t G g)[i][j] = G[i+1][j+1] = G[i][j] for i, j < n-1 by the Toeplitz
    shape; the last row and column leave (G p)[i+1] = G[i][n-1] for
    i < n-1 and p^t G p = G[n-1][n-1]."""
    n = len(gram)
    gp = mat_vec(gram, p)
    return (all(gp[i + 1] == gram[i][n - 1] for i in range(n - 1))
            and dot(p, gp) == gram[n - 1][n - 1])


_NOT_A_ROOT = "vector is not a k-root; reflection is not integral"


def root_vector(l: QuadLattice, vec) -> RootVector:
    return _root_and_coreflection(l, vec)[0]


def _root_and_coreflection(l: QuadLattice, vec):
    """root_vector(l, vec) and, for a root, its coreflection (None for any
    other vector), both from the one product G v."""
    v = [int(x) for x in vec]
    gv = mat_vec(l.gram, v)
    k = dot(v, gv)
    if k == 0 or any((2 * x) % k for x in gv):
        return RootVector(tuple(v), k, False), None
    return RootVector(tuple(v), k, True), [2 * x // k for x in gv]


def coreflection(l: QuadLattice, r: RootVector) -> list[int]:
    """s = 2 G r / (r, r), integral for a k-root, so that the reflection
    y -> y - 2(r,y)/(r,r) r is y -> y - (s, y) r, with matrix I - r s^t."""
    return _coreflection_of(l, r.vec)


def _coreflection_of(l: QuadLattice, vec) -> list[int]:
    """coreflection(l, root_vector(l, vec)), forming G v once; ValueError
    unless vec is a root."""
    s = _root_and_coreflection(l, vec)[1]
    if s is None:
        raise ValueError(_NOT_A_ROOT)
    return s


def reflection(l: QuadLattice, r: RootVector) -> list[list[int]]:
    """Matrix of y -> y - 2(r,y)/(r,r) r on the lattice basis (integral)."""
    s = coreflection(l, r)
    return [[(i == j) - x * y for j, y in enumerate(s)]
            for i, x in enumerate(r.vec)]


def reflection_product(l: QuadLattice, a: RootVector, b: RootVector,
                       m=None) -> list[list[int]]:
    """Matrix of m r_a r_b, m the identity when omitted, in O(n^2)
    (`_rank_two_product`)."""
    return _rank_two_product((a.vec, coreflection(l, a)),
                             (b.vec, coreflection(l, b)),
                             identity(l.n) if m is None else m)


def _rank_two_product(a, b, m) -> list[list[int]]:
    """m r_a r_b for a = (a, s_a) and b = (b, s_b), each a root with its
    coreflection, so a caller that holds s_a forms it once.

    With r_x = I - x s_x^t (`coreflection`), r_a r_b is the rank-two update
    I - a s_a^t - r_a(b) s_b^t, so m r_a r_b = m - (m a) s_a^t
    - (m r_a(b)) s_b^t needs two matrix-vector products and no matrix
    product."""
    (av, sa), (bv, sb) = a, b
    k = dot(sa, bv)
    rab = [y - k * x for x, y in zip(av, bv)]
    ma, mb = mat_vec(m, av), mat_vec(m, rab)
    return [[x - p * y - q * z for x, y, z in zip(row, sa, sb)]
            for row, p, q in zip(m, ma, mb)]


def two_elementary(l: QuadLattice) -> bool:
    return all(d == 2 for d in l.inv_factors)


# Invariant-factor multisets for which the R_2 quotient may be finite,
# by dimension (odd n >= 5); dimensions not listed have no exceptions.
_EXCEPTIONAL_FACTORS: dict[int, list[tuple[int, ...]]] = {
    5: [(2, 3), (4,), (2, 3, 3, 3), (2, 2, 2, 4, 4), (4, 4), (4, 8), (4, 16)],
    7: [(2, 3, 3), (2, 2, 4), (3, 4), (2, 5), (2, 3), (4,)],
    9: [(8,), (4, 4), (3, 4), (4,), (3, 3)],
    11: [],
    13: [(4,)],
}


def quotient_gate(l: QuadLattice) -> QuotientGate:
    n = l.n
    if sorted(l.signature) != [1, n - 1]:
        raise ValueError("quotient gate requires a hyperbolic lattice")
    if l.parity == EVEN_TYPE:
        if n % 2 == 0 or n < 5:
            return QuotientGate(INCONCLUSIVE, f"even lattice, dimension {n} outside the odd >=5 range")
        if two_elementary(l):
            return QuotientGate(INCONCLUSIVE, "even lattice is two-elementary")
        key = tuple(sorted(l.inv_factors))
        if key in _EXCEPTIONAL_FACTORS.get(n, []):
            return QuotientGate(INCONCLUSIVE,
                                f"invariant factors {key} are on the exceptional list for dimension {n}")
        return QuotientGate(CERTIFIED,
                            f"even, dim {n}, not two-elementary, factors {key} not exceptional: "
                            "reflection subgroup R_2 has infinite index")
    if l.parity == ODD_TYPE:
        if n >= 30:
            return QuotientGate(CERTIFIED,
                                f"odd form in dimension {n} >= 30: reflective quotient is infinite")
        return QuotientGate(INCONCLUSIVE, f"odd form, dimension {n} < 30")
    return QuotientGate(INCONCLUSIVE, "parity undetermined")
