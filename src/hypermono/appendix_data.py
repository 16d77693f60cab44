"""Reference data for the six rank-3 hyperbolic cases: invariant forms,
generators, change-of-basis matrices, spin preimages, and congruence
witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

F = Fraction


def _m(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


Q1 = _m([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
Q2 = _m([[0, 0, F(-1, 2)], [0, 1, 0], [F(-1, 2), 0, 0]])


@dataclass(frozen=True)
class Rank3Example:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    f: tuple
    A: tuple
    B: tuple
    isotropic: bool
    # isotropic-route data (None for the anisotropic cases)
    M: tuple | None = None
    target_form: tuple | None = None  # Q1 or Q2
    form_scalar: Fraction | None = None  # c with c * M^t f M = target_form
    A_prime: tuple | None = None
    B_prime: tuple | None = None
    X: tuple | None = None
    Y: tuple | None = None
    spin_which: str | None = None  # "Rho1" | "Rho2"
    congruence_level: int | None = None
    congruence_targets: tuple | None = None  # 2x2 matrices, or word specs


EXAMPLES: dict[int, Rank3Example] = {
    1: Rank3Example(
        alpha=(F(1, 2), F(1, 2), F(1, 2)),
        beta=(F(0), F(0), F(0)),
        f=_m([[1, 0, -3], [0, 1, 0], [-3, 0, 1]]),
        A=_m([[0, 0, -1], [1, 0, -3], [0, 1, -3]]),
        B=_m([[0, 0, 1], [1, 0, -3], [0, 1, 3]]),
        isotropic=True,
        M=_m([[F(-1, 8), F(1, 4), F(-1, 4)],
              [F(-1, 4), 0, F(1, 2)],
              [F(-1, 8), F(-1, 4), F(-1, 4)]]),
        target_form=Q2,
        form_scalar=F(2),
        A_prime=_m([[1, 8, 16], [0, 1, 4], [0, 0, 1]]),
        B_prime=_m([[1, 0, 0], [1, 1, 0], [1, 2, 1]]),
        X=_m([[1, 0], [4, 1]]),
        Y=_m([[1, 1], [0, 1]]),
        spin_which="Rho2",
        congruence_level=4,
        congruence_targets=(
            _m([[1, 4], [0, 1]]),
            _m([[-15, 4], [-4, 1]]),
            _m([[5, -4], [4, -3]]),
            _m([[9, -16], [4, -7]]),
            _m([[13, -36], [4, -11]]),
        ),
    ),
    2: Rank3Example(
        alpha=(F(1, 3), F(1, 2), F(2, 3)),
        beta=(F(0), F(0), F(0)),
        f=_m([[7, 1, -17], [1, 7, 1], [-17, 1, 7]]),
        A=_m([[0, 0, -1], [1, 0, -2], [0, 1, -2]]),
        B=_m([[0, 0, 1], [1, 0, -3], [0, 1, 3]]),
        isotropic=True,
        M=_m([[F(1, 4), 0, F(1, 12)],
              [F(-1, 2), F(1, 2), F(1, 12)],
              [F(1, 4), F(-1, 2), F(1, 3)]]),
        target_form=Q2,
        form_scalar=F(1, 3),
        A_prime=_m([[1, -2, 1], [3, -5, 2], [9, -12, 4]]),
        B_prime=_m([[1, -2, 1], [0, 1, -1], [0, 0, 1]]),
        X=_m([[-1, -3], [1, 2]]),
        Y=_m([[1, 0], [-1, 1]]),
        spin_which="Rho2",
        congruence_level=3,
        congruence_targets=(
            _m([[1, 3], [0, 1]]),
            _m([[-8, 3], [-3, 1]]),
            _m([[4, -3], [3, -2]]),
        ),
    ),
    3: Rank3Example(
        alpha=(F(1, 4), F(1, 2), F(3, 4)),
        beta=(F(0), F(0), F(0)),
        f=_m([[3, 1, -5], [1, 3, 1], [-5, 1, 3]]),
        A=_m([[0, 0, -1], [1, 0, -1], [0, 1, -1]]),
        B=_m([[0, 0, 1], [1, 0, -3], [0, 1, 3]]),
        isotropic=True,
        M=_m([[F(1, 4), F(1, 4), F(1, 2)],
              [0, F(1, 2), 0],
              [F(-1, 4), F(1, 4), F(1, 2)]]),
        target_form=Q1,
        form_scalar=F(1),
        A_prime=_m([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        B_prime=_m([[1, -2, -2], [2, -1, -2], [-2, 2, 3]]),
        X=_m([[0, 1], [-1, 0]]),
        Y=_m([[0, 1], [-1, 2]]),
        spin_which="Rho1",
        congruence_level=2,
        congruence_targets=None,  # the witnesses are the words XY and YX
    ),
    4: Rank3Example(
        alpha=(F(1, 6), F(1, 2), F(5, 6)),
        beta=(F(0), F(0), F(0)),
        f=_m([[5, 3, -3], [3, 5, 3], [-3, 3, 5]]),
        A=_m([[0, 0, -1], [1, 0, 0], [0, 1, 0]]),
        B=_m([[0, 0, 1], [1, 0, -3], [0, 1, 3]]),
        isotropic=True,
        M=_m([[F(1, 4), F(-1, 2), F(3, 4)],
              [F(1, 4), F(1, 2), F(-3, 4)],
              [0, 0, F(1, 2)]]),
        target_form=Q1,
        form_scalar=F(1),
        A_prime=_m([[F(-1, 2), -1, F(1, 2)],
                    [1, -1, 1],
                    [F(1, 2), -1, F(3, 2)]]),
        B_prime=_m([[F(1, 2), -1, F(-1, 2)],
                    [1, 1, 1],
                    [F(1, 2), 1, F(3, 2)]]),
        X=_m([[1, 1], [-1, 0]]),
        Y=_m([[1, 1], [0, 1]]),
        spin_which="Rho1",
        congruence_level=None,  # YX^4, Y generate all of SL_2(Z)
        congruence_targets=None,
    ),
    5: Rank3Example(
        alpha=(F(1, 3), F(1, 2), F(2, 3)),
        beta=(F(0), F(1, 4), F(3, 4)),
        f=_m([[5, -1, -7], [-1, 5, -1], [-7, -1, 5]]),
        A=_m([[0, 0, -1], [1, 0, -2], [0, 1, -2]]),
        B=_m([[0, 0, 1], [1, 0, -1], [0, 1, 1]]),
        isotropic=False,
    ),
    6: Rank3Example(
        alpha=(F(1, 3), F(1, 2), F(2, 3)),
        beta=(F(0), F(1, 6), F(5, 6)),
        f=_m([[1, 0, -2], [0, 1, 0], [-2, 0, 1]]),
        A=_m([[0, 0, -1], [1, 0, -2], [0, 1, -2]]),
        B=_m([[0, 0, 1], [1, 0, -2], [0, 1, 2]]),
        isotropic=False,
    ),
}
