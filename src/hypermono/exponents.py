"""Exponent pairs (alpha, beta): classification, scalar shifts, the seven
infinite families, factorial forms and Landau integrality.

Exponents are Fractions in [0,1); pairs are stored sorted. All decisions
(cyclotomicity, category, family matching) are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .exact import cyclotomic_poly, moebius, poly_mul, poly_trim


@dataclass(frozen=True)
class ExponentPair:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        for x in self.alpha + self.beta:
            if not (0 <= x < 1):
                raise ValueError("exponents must lie in [0,1)")
        object.__setattr__(self, "alpha", tuple(sorted(self.alpha)))
        object.__setattr__(self, "beta", tuple(sorted(self.beta)))

    @property
    def n(self) -> int:
        return len(self.alpha)

    @classmethod
    def make(cls, alpha, beta) -> "ExponentPair":
        return cls(tuple(Fraction(x) % 1 for x in alpha),
                   tuple(Fraction(x) % 1 for x in beta))


def cyclotomic_structure(exps) -> dict[int, int] | None:
    """If prod (z - e^{2 pi i x}) over the multiset is a product of
    cyclotomics, return {d: multiplicity of Phi_d}; else None."""
    by_den: dict[int, Counter] = {}
    for x in exps:
        f = Fraction(x)
        by_den.setdefault(f.denominator, Counter())[f.numerator] += 1
    out: dict[int, int] = {}
    for d, nums in by_den.items():
        residues = [a for a in range(d) if gcd(a, d) == 1] if d > 1 else [0]
        mults = {nums.get(a, 0) for a in residues}
        if len(mults) != 1 or sum(nums.values()) != len(residues) * mults.pop():
            return None
        m = nums[residues[0]]
        if m > 0:
            out[d] = m
    return out


def poly_from_structure(struct: dict[int, int]) -> list[int]:
    p = [1]
    for d, m in sorted(struct.items()):
        for _ in range(m):
            p = poly_mul(p, cyclotomic_poly(d))
    return poly_trim(p)


@dataclass(frozen=True)
class Classification:
    cyclotomic: bool
    disjoint: bool
    sig_defect: int
    category: str | None  # "Finite" | "Symplectic" | "Orthogonal" | None
    hyperbolic: bool
    c_ratio: int | None  # +1 or -1 when defined


def classify(pair: ExponentPair) -> Classification:
    a, b = pair.alpha, pair.beta
    n = pair.n
    cyclotomic = (cyclotomic_structure(a) is not None
                  and cyclotomic_structure(b) is not None)
    disjoint = not (set(a) & set(b))
    # signature defect |p - q| = |sum_j (-1)^(j + m_j)|, m_j = #{k : b_k < a_j}
    # (beta is stored sorted)
    s = 0
    for j, aj in enumerate(a, start=1):
        s += (-1) ** (j + bisect_left(b, aj))
    defect = abs(s)
    # c ratio = P(0)/Q(0) = e^{2 pi i (sum a - sum b)}
    diff = sum(a) - sum(b)
    if diff.denominator == 1:
        c_ratio = 1
    elif (2 * diff).denominator == 1:
        c_ratio = -1
    else:
        c_ratio = None
    category: str | None
    if not cyclotomic or not disjoint:
        category = None
    elif defect == n:
        category = "Finite"
    elif n % 2 == 0 and c_ratio == 1:
        category = "Symplectic"
    else:
        category = "Orthogonal"
    hyperbolic = category == "Orthogonal" and defect == n - 2
    return Classification(cyclotomic, disjoint, defect, category, hyperbolic,
                          c_ratio)


def scalar_shift(pair: ExponentPair, d) -> ExponentPair:
    d = Fraction(d)
    return ExponentPair.make([x + d for x in pair.alpha],
                             [x + d for x in pair.beta])


# ---------------------------------------------------------------------------
# the seven infinite families
# ---------------------------------------------------------------------------

FAMILIES = ("M1", "M2", "M3", "N1", "N2", "N3", "N4")


@dataclass(frozen=True)
class FamilyId:
    family: str
    j: int
    k: int | None
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family.startswith("N") and self.k is None:
            raise ValueError(f"{self.family} requires the k parameter")
        if self.family.startswith("M") and self.k is not None:
            raise ValueError(f"{self.family} takes no k parameter")

    def __str__(self):
        ps = (self.j, self.n) if self.k is None else (self.j, self.k, self.n)
        return f"{self.family}({','.join(map(str, ps))})"


class FamilyError(ValueError):
    """A family parameter constraint is violated (the message names it)."""


def _pm_roots(m: int) -> list[Fraction]:
    """Roots of z^m + 1 as exponents: odd numerators over 2m."""
    return [Fraction(2 * t + 1, 2 * m) for t in range(m)]


def _cyc_roots(j: int) -> list[Fraction]:
    """Roots of z^j - 1 as exponents."""
    return [Fraction(t, j) for t in range(j)]


def _pmk_roots(m: int, k: int) -> Counter:
    """Roots of (z^{l(k+1)} - 1)/(z^l - 1), l = m/k."""
    l = m // k
    c = Counter(Fraction(t, l * (k + 1)) for t in range(l * (k + 1)))
    c.subtract(Counter(Fraction(t, l) for t in range(l)))
    assert all(v >= 0 for v in c.values())
    return +c


def _qmk_roots(m: int, k: int, j: int) -> Counter:
    """Roots of (z^{lj} - 1)(z^{l(k+1-j)} - 1)/(z^l - 1), l = m/k."""
    l = m // k
    c = Counter(Fraction(t, l * j) for t in range(l * j))
    c.update(Fraction(t, l * (k + 1 - j)) for t in range(l * (k + 1 - j)))
    c.subtract(Counter(Fraction(t, l) for t in range(l)))
    assert all(v >= 0 for v in c.values())
    return +c


def _swap(c: Counter, remove: Fraction, insert: Fraction, what: str) -> Counter:
    if c[remove] < 1:
        raise FamilyError(f"{what}: required exponent {remove} absent")
    c = Counter(c)
    c[remove] -= 1
    c[insert] += 1
    return +c


HALF = Fraction(1, 2)
ZERO = Fraction(0)


def make_family(fid: FamilyId) -> ExponentPair:
    """The family's pair, checked cyclotomic, disjoint and hyperbolic."""
    return _validated(fid, _construct_family(fid))


def _validated(fid: FamilyId, pair: ExponentPair) -> ExponentPair:
    cls = classify(pair)
    if not cls.cyclotomic:
        raise FamilyError(f"{fid}: constructed pair is not cyclotomic")
    if not cls.disjoint:
        raise FamilyError(f"{fid}: constructed pair is not disjoint")
    if not cls.hyperbolic:
        raise FamilyError(f"{fid}: constructed pair is not hyperbolic")
    return pair


def _construct_family(fid: FamilyId) -> ExponentPair:
    """The family's pair as constructed, before the checks of make_family;
    raises FamilyError when a parameter constraint fails."""
    fam, j, k, n = fid.family, fid.j, fid.k, fid.n
    if fam.startswith("M"):
        m = {"M1": n, "M2": n - 1, "M3": n - 2}[fam]
        if not (0 < j <= (n - 1 if fam == "M1" else n - 2)):
            raise FamilyError(f"{fid}: j out of range for {fam}")
        if fam in ("M1", "M3") and j % 2 == 0:
            raise FamilyError(f"{fid}: j must be odd")
        if fam == "M2" and (j // gcd(m, j)) % 2 == 0:
            raise FamilyError(f"{fid}: j/gcd(n-1,j) must be odd")
        if m < 1 or (fam != "M3" and m - j < 1) or (fam == "M3" and m - j < 0):
            raise FamilyError(f"{fid}: degenerate base degree")
        p_roots = Counter(_pm_roots(m))
        q_roots = Counter(_cyc_roots(j))
        if m - j >= 1:
            q_roots.update(_pm_roots(m - j))
        if fam == "M1":
            alpha = _swap(p_roots, HALF, ZERO, str(fid))
            beta = _swap(q_roots, ZERO, HALF, str(fid))
        elif fam == "M2":
            alpha = Counter(p_roots)
            alpha[HALF] += 1
            beta = _swap(q_roots, HALF, ZERO, str(fid))
            beta[ZERO] += 1
        else:  # M3
            alpha = Counter(p_roots)
            alpha[HALF] += 2
            beta = Counter(q_roots)
            beta[ZERO] += 2
    else:
        m = {"N1": n, "N2": n - 1, "N3": n - 1, "N4": n - 2}[fam]
        assert k is not None
        if m < 1 or k < 1 or m % k != 0:
            raise FamilyError(f"{fid}: k must divide {m}")
        if j > k:
            # alias: the middle parameter was given as l; canonical k = m/l
            l_given = k
            if m % l_given == 0 and j <= m // l_given:
                k = m // l_given
            else:
                raise FamilyError(f"{fid}: j exceeds k")
        if not (1 <= j <= k):
            raise FamilyError(f"{fid}: j out of range")
        if gcd(j, k + 1) != 1:
            raise FamilyError(f"{fid}: gcd(j, k+1) must be 1")
        p_roots = _pmk_roots(m, k)
        q_roots = _qmk_roots(m, k, j)
        if fam == "N1":
            alpha = _swap(p_roots, HALF, ZERO, str(fid))
            beta = _swap(q_roots, ZERO, HALF, str(fid))
        elif fam in ("N2", "N3"):
            alpha = Counter(p_roots)
            alpha[ZERO if fam == "N2" else HALF] += 1
            if q_roots[ZERO] < 1 or q_roots[HALF] < 1:
                raise FamilyError(f"{fid}: base roots must contain 0 and 1/2")
            beta = Counter(q_roots)
            beta[ZERO] -= 1
            beta[HALF] -= 1
            beta[HALF if fam == "N2" else ZERO] += 3
            beta = +beta
        else:  # N4
            alpha = Counter(p_roots)
            alpha[HALF] += 2
            beta = Counter(q_roots)
            beta[ZERO] += 2
    a = sorted(alpha.elements())
    b = sorted(beta.elements())
    if len(a) != n or len(b) != n:
        raise FamilyError(f"{fid}: exponent count {len(a)}/{len(b)} != n")
    return ExponentPair.make(a, b)


def _candidate_ids(n: int):
    for j in range(1, n, 2):
        yield FamilyId("M1", j, None, n)
    for j in range(1, n - 1):
        if (j // gcd(n - 1, j)) % 2 == 1:
            yield FamilyId("M2", j, None, n)
    for j in range(1, n - 1, 2):
        yield FamilyId("M3", j, None, n)
    for fam, m in (("N1", n), ("N2", n - 1), ("N3", n - 1), ("N4", n - 2)):
        if m < 1:
            continue
        for k in range(1, m + 1):
            if m % k != 0:
                continue
            for j in range(1, k + 1):
                if gcd(j, k + 1) == 1:
                    yield FamilyId(fam, j, k, n)


@cache
def _family_table(n: int) -> tuple[tuple[FamilyId, ExponentPair], ...]:
    """The constructible (unvalidated) family pairs of size n, in
    _candidate_ids order."""
    table = []
    for fid in _candidate_ids(n):
        try:
            table.append((fid, _construct_family(fid)))
        except FamilyError:
            continue
    return tuple(table)


def match_family(pair: ExponentPair) -> list[FamilyId]:
    """All family ids whose pair equals the input up to scalar shift."""
    # every family pair contains the exponent 0 (_construct_family puts
    # ZERO in all seven), so a shift onto one moves some input exponent to 0
    shifted = {scalar_shift(pair, -x) for x in set(pair.alpha + pair.beta)}
    out = []
    for fid, fpair in _family_table(pair.n):
        if fpair in shifted:  # only a match is validated
            try:
                _validated(fid, fpair)
            except FamilyError:
                continue
            out.append(fid)
    return out


# ---------------------------------------------------------------------------
# factorial forms and Landau's criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorialForm:
    a_list: tuple[int, ...]
    b_list: tuple[int, ...]
    d: int  # len(b_list) - len(a_list)


def to_factorial_form(pair: ExponentPair) -> FactorialForm:
    """Express the coefficient ratio as u_m = prod (m a_i)! / prod (m b_j)!.

    The exponent side containing 0 contributes the denominator factorials
    (so d = |b| - |a| equals the multiplicity of the zero exponents).
    """
    pa = cyclotomic_structure(pair.alpha)
    qa = cyclotomic_structure(pair.beta)
    if pa is None or qa is None:
        raise ValueError("factorial form requires a cyclotomic pair")
    if ZERO in pair.alpha and ZERO not in pair.beta:
        plus, minus = qa, pa
    else:
        plus, minus = pa, qa
    e = Counter(plus)
    e.subtract(minus)
    c: Counter = Counter()
    for d0, ed in e.items():
        if ed == 0:
            continue
        for m in range(1, d0 + 1):
            if d0 % m == 0:
                c[m] += ed * moebius(d0 // m)
    a_list, b_list = [], []
    for m, cm in sorted(c.items()):
        if cm > 0:
            a_list.extend([m] * cm)
        elif cm < 0:
            b_list.extend([m] * (-cm))
    return FactorialForm(tuple(a_list), tuple(b_list),
                         len(b_list) - len(a_list))


def landau_integral(ff: FactorialForm) -> bool:
    """True iff prod (m a_i)!/prod (m b_j)! is an integer for all m >= 0,
    by Landau's criterion: sum floor(a x) - sum floor(b x) >= 0 on [0,1)."""
    points = {Fraction(0)}
    for x in ff.a_list + ff.b_list:
        for cnum in range(1, x):
            points.add(Fraction(cnum, x))
    for t in points:
        s = sum((a * t).numerator // (a * t).denominator for a in ff.a_list)
        s -= sum((b * t).numerator // (b * t).denominator for b in ff.b_list)
        if s < 0:
            return False
    return True
