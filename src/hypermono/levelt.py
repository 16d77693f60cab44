"""Levelt generators A, B, the pseudo-reflection C = A^{-1}B, the Cartan
vector v and the lattice basis v, gv, ..., g^{n-1}v."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import (
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    mat_to_int,
    mat_vec,
    nullspace,
    primitive_integer_vector,
)
from .exponents import ExponentPair, classify, cyclotomic_structure, poly_from_structure


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

    def rotation_matrix(self) -> list[list[int]]:
        if self.rotation_generator == "A":
            return [list(r) for r in self.A]
        if self.rotation_generator == "B":
            return [list(r) for r in self.B]
        raise ValueError("no finite-order generator available")

    def basis_generator(self) -> list[list[int]]:
        """Generator whose powers of v span the lattice: the finite-order
        one when available, else A (both infinite-order works too)."""
        if self.rotation_generator is not None:
            return self.rotation_matrix()
        return [list(r) for r in self.A]


def _finite_order(struct: dict[int, int]) -> int | None:
    """Order of the companion matrix with cyclotomic factor multiset struct:
    lcm of the indices when squarefree (distinct roots), else infinite."""
    if any(m > 1 for m in struct.values()):
        return None
    return lcm(*struct.keys()) if struct else 1


def build(pair: ExponentPair) -> MonodromySystem:
    cls = classify(pair)
    if not cls.cyclotomic:
        raise ValueError("pair is not cyclotomic; Levelt generators are not integral")
    if not cls.disjoint:
        raise ValueError("alpha and beta share an exponent; H(alpha,beta) undefined")
    sa = cyclotomic_structure(pair.alpha)
    sb = cyclotomic_structure(pair.beta)
    assert sa is not None and sb is not None
    p = poly_from_structure(sa)
    q = poly_from_structure(sb)
    n = pair.n
    A = companion_matrix(p)
    B = companion_matrix(q)
    C = mat_to_int(mat_mul(mat_inv(A), B))
    # Cartan vector: closed form (a_{n-1}+b_{n-1}, ..., a_1+b_1, 2)
    # where P = z^n + a_1 z^{n-1} + ... + a_n (descending-index coefficients)
    v = [p[i] + q[i] for i in range(1, n)] + [2]
    # cross-check against the kernel of C + I
    cm = [[C[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    ker = nullspace(cm)
    if len(ker) != 1:
        raise ValueError("Cartan eigenspace is not one-dimensional")
    kv = primitive_integer_vector(ker[0])
    if kv[-1] < 0:
        kv = [-x for x in kv]
    scale = v[-1] // kv[-1] if kv[-1] else 0
    if [x * scale for x in kv] != v:
        raise AssertionError("closed-form Cartan vector disagrees with ker(C+I)")
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


def lattice_basis(m: MonodromySystem) -> list[list[int]]:
    """v, gv, ..., g^{n-1}v for the basis generator g."""
    g = m.basis_generator()
    basis = [list(m.v)]
    for _ in range(m.n - 1):
        basis.append(mat_vec(g, basis[-1]))
    det = mat_det([list(col) for col in zip(*basis)])
    if det == 0:
        raise ValueError("lattice basis is linearly dependent")
    return basis


def hr_generators(m: MonodromySystem, count: int) -> list[list[list[int]]]:
    """Cartan involutions -g^i C g^{-i} for i = 0..count-1."""
    g = m.rotation_matrix()
    ginv = mat_to_int(mat_inv(g))
    out = []
    gi = identity(m.n)
    gii = identity(m.n)
    for _ in range(count):
        conj = mat_mul(mat_mul(gi, [list(r) for r in m.C]), gii)
        out.append([[-x for x in row] for row in conj])
        gi = mat_mul(gi, g)
        gii = mat_mul(ginv, gii)
    return out
