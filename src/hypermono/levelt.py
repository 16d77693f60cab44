"""Levelt generators A, B, the pseudo-reflection C = A^{-1}B, the Cartan
vector v and the lattice basis v, gv, ..., g^{n-1}v."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import identity, mat_mul, mat_vec
from .exponents import ExponentPair, cyclotomic_structure, poly_from_structure


def companion_matrix(poly: list[int]) -> list[list[int]]:
    """Companion of a monic polynomial z^n + c_{n-1} z^{n-1} + ... + c_0:
    subdiagonal ones, last column (-c_0, ..., -c_{n-1})^t."""
    n = len(poly) - 1
    assert poly[n] == 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -poly[i]
    return m


@dataclass(frozen=True)
class MonodromySystem:
    pair: ExponentPair
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    v: tuple[int, ...]
    rotation_order: int | None  # None = infinite
    rotation_generator: str | None  # "A" | "B" | None
    order_A: int | None
    order_B: int | None

    @property
    def n(self) -> int:
        return len(self.v)

    def basis_generator(self) -> list[list[int]]:
        """Generator whose powers of v span the lattice: the finite-order
        one when available, else A (both infinite-order works too)."""
        g = self.B if self.rotation_generator == "B" else self.A
        return [list(r) for r in g]


def _finite_order(struct: dict[int, int]) -> int | None:
    """Order of the companion matrix with cyclotomic factor multiset struct:
    lcm of the indices when squarefree (distinct roots), else infinite."""
    if any(m > 1 for m in struct.values()):
        return None
    return lcm(*struct.keys()) if struct else 1


SHARED_EXPONENT = "alpha and beta share an exponent; H(alpha,beta) undefined"


def build(pair: ExponentPair) -> MonodromySystem:
    sa = cyclotomic_structure(pair.alpha)
    sb = cyclotomic_structure(pair.beta)
    if sa is None or sb is None:
        raise ValueError("pair is not cyclotomic; Levelt generators are not integral")
    # each Phi_d carries every primitive d-th root, so the sides share an
    # exponent iff they share a cyclotomic factor
    if sa.keys() & sb.keys():
        raise ValueError(SHARED_EXPONENT)
    p = poly_from_structure(sa)
    q = poly_from_structure(sb)
    n = pair.n
    A = companion_matrix(p)
    B = companion_matrix(q)
    # Cartan vector: closed form (a_{n-1}+b_{n-1}, ..., a_1+b_1, 2)
    # where P = z^n + a_1 z^{n-1} + ... + a_n (descending-index coefficients)
    v = [p[i] + q[i] for i in range(1, n)] + [2]
    # A and B share their first n - 1 columns, so C = A^{-1}B is I but for
    # its last column. If A v = q - p (p, q without their leading 1), then
    # A (I - v e_n^t) = B, so C = I - v e_n^t, C v = -v as v_n = 2, and
    # C + I = 2I - v e_n^t has kernel the line through v: the (-1)-eigenspace
    # is one-dimensional. The closed form satisfies every row of A v = q - p
    # but the first, which needs q_0 = -p_0. Otherwise q_0 = p_0 = +-1, so
    # det C = 1 and the pseudo-reflection C has no eigenvalue -1.
    if mat_vec(A, v) != [q[i] - p[i] for i in range(n)]:
        raise ValueError("Cartan eigenspace is not one-dimensional")
    C = [[(i == j) - (v[i] if j == n - 1 else 0) for j in range(n)]
         for i in range(n)]
    order_a = _finite_order(sa)
    order_b = _finite_order(sb)
    if order_a is not None:
        gen, order = "A", order_a
    elif order_b is not None:
        gen, order = "B", order_b
    else:
        gen, order = None, None
    return MonodromySystem(
        pair=pair,
        A=tuple(tuple(r) for r in A),
        B=tuple(tuple(r) for r in B),
        C=tuple(tuple(r) for r in C),
        v=tuple(v),
        rotation_order=order,
        rotation_generator=gen,
        order_A=order_a,
        order_B=order_b,
    )


def companion_step(g, x) -> list[int]:
    """g x for a companion matrix g: x shifted down one place plus x_(n-1)
    times g's last column, at O(n). Only that column of g is read."""
    k = x[-1]
    return [y + k * row[-1] for y, row in zip((0, *x[:-1]), g)]


def lattice_basis(m: MonodromySystem) -> list[list[int]]:
    """v, gv, ..., g^{n-1}v for the basis generator g, by `companion_step`.
    g must be a companion matrix, as `build` makes it. Nothing is checked
    here: `lattice.invariant_form` rejects a g of any other shape, and a
    dependent basis, whose Gram matrix is degenerate."""
    g = m.basis_generator()
    basis = [list(m.v)]
    for _ in range(m.n - 1):
        basis.append(companion_step(g, basis[-1]))
    return basis


def hr_generators(m: MonodromySystem, count: int) -> list[list[list[int]]]:
    """Cartan involutions -g^i C g^{-i} for i = 0..count-1, g the
    finite-order generator."""
    if m.rotation_generator is None:
        raise ValueError("no finite-order generator available")
    g = m.basis_generator()
    # g has finite order, so g^{-1} = g^(order - 1), by repeated squaring
    ginv, sq, e = identity(m.n), g, m.rotation_order - 1
    while e:
        if e & 1:
            ginv = mat_mul(ginv, sq)
        sq, e = mat_mul(sq, sq), e >> 1
    out = []
    gi = identity(m.n)
    gii = identity(m.n)
    for _ in range(count):
        conj = mat_mul(mat_mul(gi, m.C), gii)
        out.append([[-x for x in row] for row in conj])
        gi = mat_mul(gi, g)
        gii = mat_mul(ginv, gii)
    return out
