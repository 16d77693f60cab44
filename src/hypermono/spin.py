"""Spin homomorphisms SL2 -> SO(2,1) for the two standard rank-3 forms,
change-of-basis verification for the six rank-3 cases, congruence witnesses,
and Dirichlet-region boundedness in the Klein disk."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .appendix_data import EXAMPLES
from .exact import (
    flat_mat_mul,
    flatten,
    mat_eq,
    mat_mul,
    mat_neg,
    mat_to_int,
    transpose,
    word_bfs,
)

F = Fraction

RHO1 = "Rho1"
RHO2 = "Rho2"


def _det2(g) -> Fraction:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def spin(which: str, g) -> list[list[Fraction]]:
    """Image of g in SO of Q1 (Rho1) or Q2 (Rho2); kernel {+-I}."""
    g = [[F(x) for x in row] for row in g]
    if _det2(g) != 1:
        raise ValueError("spin maps are defined on SL2 (determinant 1)")
    (a, b), (c, d) = g
    if which == RHO2:
        return [[a * a, 2 * a * c, c * c],
                [a * b, a * d + b * c, c * d],
                [b * b, 2 * b * d, d * d]]
    if which == RHO1:
        # g acts on the symmetric 2x2 matrices by S -> g S g^t; in the basis
        # E1 = diag(1, -1), E2 = [[0, 1], [1, 0]], E3 = I the preserved form
        # x^2 + y^2 - z^2 (= -det) is Q1, and column j is the image of E_j
        return [[(a * a - b * b - c * c + d * d) / 2, a * b - c * d,
                 (a * a + b * b - c * c - d * d) / 2],
                [a * c - b * d, a * d + b * c, a * c + b * d],
                [(a * a - b * b + c * c - d * d) / 2, a * b + c * d,
                 (a * a + b * b + c * c + d * d) / 2]]
    raise ValueError(f"unknown spin map {which!r}")


def congruence_check(g, n: int) -> bool:
    """True iff g = +-I mod n entrywise (projective convention)."""
    g = [[int(x) for x in row] for row in g]
    for sign in (1, -1):
        if all((g[i][j] - sign * (i == j)) % n == 0
               for i in range(2) for j in range(2)):
            return True
    return False


def word_search(generators, target, max_len: int):
    """Shortest word in the generators and inverses equal to +-target;
    returns a list of (generator index, +-1) or None. The generators and
    the target must be integer matrices, the generators of determinant 1,
    so each inverse is the integer adjugate."""
    gens = []
    for i, g in enumerate(generators):
        g = mat_to_int(g)
        if _det2(g) != 1:
            raise ValueError("word search expects SL2 generators")
        (a, b), (c, d) = g
        gens.append((g, (i, 1)))
        gens.append(([[d, -b], [-c, a]], (i, -1)))
    target = mat_to_int(target)

    def step(state, gen):
        # state: (flat key, matrix, word)
        prod = mat_mul(state[1], gen[0])
        return flatten(prod), prod, state[2] + (gen[1],)

    ident = [[1, 0], [0, 1]]
    goal = {flatten(target), flatten(mat_neg(target))}
    # gens[2i + 1] is the inverse of gens[2i]
    states = word_bfs((flatten(ident), ident, ()), gens, step, itemgetter(0),
                      max_len, inverse=[i ^ 1 for i in range(len(gens))])
    for _, (k, _, word) in states:
        if k in goal:
            return list(word)
    return None


@dataclass(frozen=True)
class BasisChangeReport:
    isotropic: bool
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_basis_change(example_id: int) -> BasisChangeReport:
    """Exact verification of the printed identities for one rank-3 case:
    the scalar form identity c M^t f M = Q, the conjugation of <A^2, B> onto
    <A', B'>, and the spin preimages X, Y mapping onto A', B'."""
    ex = EXAMPLES[example_id]
    if not ex.isotropic:
        return BasisChangeReport(
            False, (("anisotropic form, no basis change", True),))
    m = ex.M
    lhs = [[ex.form_scalar * x for x in row]
           for row in mat_mul(mat_mul(transpose(m), ex.f), m)]
    checks = [("scalar * M^t f M = Q", mat_eq(lhs, ex.target_form))]
    # Q is nondegenerate, so the first check makes M invertible, and
    # M^-1 X M = X' is X M = M X'
    for name, x, x_prime in (("M^-1 A^2 M = A'", mat_mul(ex.A, ex.A), ex.A_prime),
                             ("M^-1 B M = B'", ex.B, ex.B_prime)):
        checks.append((name, mat_eq(mat_mul(x, m), mat_mul(m, x_prime))))
    def matches(img, target) -> bool:
        # projective kernel, and the standard-form images are also quoted in
        # the row-vector (transposed) convention
        tt = transpose(target)
        return any(mat_eq(img, c)
                   for c in (target, mat_neg(target), tt, mat_neg(tt)))

    sx = spin(ex.spin_which, ex.X)
    sy = spin(ex.spin_which, ex.Y)
    checks.append(("spin(X) = A' (up to sign/transpose)", matches(sx, ex.A_prime)))
    checks.append(("spin(Y) = B' (up to sign/transpose)", matches(sy, ex.B_prime)))
    return BasisChangeReport(True, tuple(checks))


# ---------------------------------------------------------------------------
# Dirichlet region in the Klein disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletRegion:
    basepoint: tuple[float, float]
    half_planes: tuple[tuple[float, float, float], ...]  # a u + b v + c <= 0
    vertices: tuple[tuple[float, float], ...]
    bounded: bool
    epsilon: float


def _to_so21(generators, form):
    """Float 3x3 images preserving diag(1,1,-1): 2x2 inputs go through Rho1,
    3x3 inputs are conjugated into the standard frame via an eigenbasis of
    their invariant form."""
    import numpy as np

    gens = []
    if len(generators[0]) == 2:
        for g in generators:
            gens.append([[float(x) for x in row] for row in spin(RHO1, g)])
        return gens
    if form is None:
        raise ValueError("3x3 generators require their invariant form")
    fmat = np.array([[float(x) for x in row] for row in form])
    vals, vecs = np.linalg.eigh(fmat)
    order = np.argsort(-vals)  # positive eigenvalues first, negative last
    vals = vals[order]
    vecs = vecs[:, order]
    if not (vals[0] > 0 and vals[1] > 0 and vals[2] < 0):
        raise ValueError("form does not have signature (2,1)")
    t = vecs @ np.diag(1.0 / np.sqrt(np.abs(vals)))
    tinv = np.linalg.inv(t)
    for g in generators:
        gm = np.array([[float(x) for x in row] for row in g])
        gens.append((tinv @ gm @ t).tolist())
    return gens


_NINES = (9,) * 9  # round each entry of a flat 3 x 3 key to 9 places


def _clip(poly, a, b, c):
    """Sutherland-Hodgman clip of poly by the half-plane a u + b v + c <= 0;
    poly itself when no vertex lies outside."""
    f = [a * u + b * v + c for u, v in poly]
    if all(x <= 0 for x in f):
        return poly
    out = []
    for p, q, fp, fq in zip(poly, poly[1:] + poly[:1], f, f[1:] + f[:1]):
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


BASEPOINT = (0.0, 0.0)  # p0, moved once to (0.1234, 0.0567) if a word fixes it
EPSILON = 1e-6  # a bounded region's vertices lie within radius 1 - EPSILON


def dirichlet_region(generators, *, form=None,
                     word_depth: int = 6) -> DirichletRegion:
    """Intersection of the bisector half-planes H(gamma, p0) over all words
    up to word_depth, in the Klein disk where they are Euclidean; bounded
    iff every vertex of the clipped polygon lies within radius 1 - EPSILON.
    A basepoint fixed by some word is moved once, to (0.1234, 0.0567).
    Raises ValueError for a negative word_depth."""
    if word_depth < 0:
        raise ValueError("word depth must be at least 0")
    import numpy as np

    # flat row-major 9-tuples, multiplied by the shared flat product; each
    # inverse is numpy's, to keep the bits of every image
    full = []
    for g in _to_so21(generators, form):
        full.append(flatten(g))
        full.append(flatten(np.linalg.inv(np.array(g)).tolist()))

    def key(m):
        return tuple(map(round, m, _NINES))

    ident = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    for u0, v0 in (BASEPOINT, (0.1234, 0.0567)):
        scale = 1.0 / math.sqrt(1.0 - (u0 * u0 + v0 * v0))
        p0 = (u0 * scale, v0 * scale, scale)
        x0, y0, z0 = p0
        images = []
        # full[2i + 1] is numpy's inverse of full[2i], so a product with it
        # undoes the last letter up to rounding; on the appendix examples
        # every such product rounds to its parent's key
        words = word_bfs(ident, full, flat_mat_mul, key, word_depth,
                         inverse=[i ^ 1 for i in range(len(full))])
        for _, m in islice(words, 1, None):  # every element but the identity
            p = (m[0] * x0 + m[1] * y0 + m[2] * z0,
                 m[3] * x0 + m[4] * y0 + m[5] * z0,
                 m[6] * x0 + m[7] * y0 + m[8] * z0)
            if p[2] < 0:
                p = tuple(-x for x in p)  # keep to the upper sheet
            if max(abs(p[i] - p0[i]) for i in range(3)) < 1e-9:
                images = None  # p0 is stabilized
                break
            images.append(p)
        if images is not None:
            break
    else:
        raise ValueError("basepoint is stabilized even after perturbation")

    half_planes = []
    poly = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
    for p in images:
        d = (p[0] - p0[0], p[1] - p0[1], p[2] - p0[2])
        a, b, c = d[0], d[1], -d[2]
        if abs(a) + abs(b) + abs(c) < 1e-12:
            continue
        half_planes.append((a, b, c))
        poly = _clip(poly, a, b, c)
        if not poly:
            break

    lim = (1.0 - EPSILON) ** 2
    bounded = bool(poly) and all(u * u + v * v <= lim for u, v in poly)
    return DirichletRegion((u0, v0), tuple(half_planes),
                           tuple((u, v) for u, v in poly), bounded, EPSILON)


def appendix_dirichlet_region(example_id: int,
                              word_depth: int) -> DirichletRegion:
    """Dirichlet region of one rank-3 example: of the spin preimages X, Y
    for an isotropic example, of A^2 and B with their invariant form f for
    an anisotropic one."""
    ex = EXAMPLES[example_id]
    if ex.isotropic:
        return dirichlet_region([ex.X, ex.Y], word_depth=word_depth)
    return dirichlet_region([mat_mul(ex.A, ex.A), ex.B], form=ex.f,
                            word_depth=word_depth)
