"""Modular machinery for elementary intervals of two-dimensional Halton points.

A box whose side lengths are p1^-r1 and p2^-r2 aligned to the digit grids
contains exactly the Halton points whose index lies in one residue class
modulo P = p1^r1 * p2^r2.  This module computes the two modular inverses that
define that class, the residue of a box corner, and the per-cell residues used
by the discrepancy decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .radical import BasisPair, fraction_digits

# (r1, r2): how many base-p1 / base-p2 digits a truncation keeps per axis.
TruncIndex = tuple[int, int]


@dataclass(frozen=True)
class ResidueData:
    """Moduli and inverses for truncation depths r = (r1, r2).

    P = p1^r1 * p2^r2.  M1 is the inverse of p2^r2 modulo p1^r1 and M2 the
    inverse of p1^r1 modulo p2^r2; a modulus-1 side degenerates to M = 0.
    """

    bases: BasisPair
    r: TruncIndex
    P: int
    M1: int
    M2: int

    def __str__(self) -> str:
        return (f"ResidueData(p=({self.bases.p1},{self.bases.p2}), "
                f"r=({self.r[0]},{self.r[1]}), P={self.P}, "
                f"M1={self.M1}, M2={self.M2})")


def crt_inverses(bases: BasisPair | Sequence[int], r: TruncIndex) -> ResidueData:
    """Compute ResidueData for the given depths via extended Euclid."""
    bp = BasisPair.of(bases)
    r1, r2 = r
    if r1 < 0 or r2 < 0:
        raise ValueError(f"depths must be nonnegative, got {r}")
    if r1 == 0 and r2 == 0:
        raise ValueError("at least one depth must be positive")
    return _crt_cached(bp.p1, bp.p2, r1, r2)


@lru_cache(maxsize=4096)
def _crt_cached(p1: int, p2: int, r1: int, r2: int) -> ResidueData:
    q1, q2 = p1 ** r1, p2 ** r2
    m1 = pow(q2, -1, q1) if q1 > 1 else 0
    m2 = pow(q1, -1, q2) if q2 > 1 else 0
    return ResidueData(bases=BasisPair(p1, p2), r=(r1, r2), P=q1 * q2,
                       M1=m1, M2=m2)


def _axis_digits(x: Fraction, p: int, r: int) -> tuple[int, ...]:
    if x == 1:
        raise ValueError("coordinate 1 has no digit expansion; truncate first")
    return fraction_digits(x, p, r)


def _digit_value(digs: Sequence[int], p: int) -> int:
    """Weight digit j (most significant first) by p^(j-1)."""
    v = 0
    for d in reversed(digs):
        v = v * p + d
    return v


def corner_residue(x: Sequence[Fraction], r: TruncIndex,
                   rd: ResidueData) -> int:
    """Residue class mod P of the Halton indices landing at the truncated corner.

    Each axis contributes the integer formed by its first r_i digits with
    digit j carrying weight p_i^(j-1).
    """
    p1, p2 = rd.bases.p1, rd.bases.p2
    r1, r2 = r
    x1v = _digit_value(_axis_digits(Fraction(x[0]), p1, r1), p1)
    x2v = _digit_value(_axis_digits(Fraction(x[1]), p2, r2), p2)
    q1, q2 = p1 ** r1, p2 ** r2
    return (q2 * rd.M1 * x1v + q1 * rd.M2 * x2v) % rd.P


def cell_residue(x: Sequence[Fraction], r: TruncIndex, rd: ResidueData,
                 b: tuple[int, int]) -> int:
    """Residue class of the digit cell that replaces each last kept digit by b_i.

    Axis i contributes its first r_i - 1 digits of x_i unchanged with b_i
    substituted at position r_i; choosing b_i equal to the original digit
    recovers corner_residue.
    """
    p1, p2 = rd.bases.p1, rd.bases.p2
    r1, r2 = r
    if r1 < 1 or r2 < 1:
        raise ValueError(f"cell residues need depths >= 1, got {r}")
    b1, b2 = b
    if not (0 <= b1 < p1 and 0 <= b2 < p2):
        raise ValueError(f"cell digits {b} out of range for bases ({p1},{p2})")
    d1 = _axis_digits(Fraction(x[0]), p1, r1)
    d2 = _axis_digits(Fraction(x[1]), p2, r2)
    pre1 = _digit_value(d1[: r1 - 1], p1) + b1 * p1 ** (r1 - 1)
    pre2 = _digit_value(d2[: r2 - 1], p2) + b2 * p2 ** (r2 - 1)
    q1, q2 = p1 ** r1, p2 ** r2
    return (rd.M1 * (rd.P // q1) * pre1 + rd.M2 * (rd.P // q2) * pre2) % rd.P


def in_elementary_interval(k: int, y: Sequence[Fraction], s: TruncIndex,
                           bases: BasisPair | Sequence[int]) -> bool:
    """Does the k-th Halton point land in the box [y1, y1+p1^-s1) x [y2, y2+p2^-s2)?

    Decided purely by a congruence on k.  The corner coordinates must be exact
    multiples of p_i^-s_i; anything finer is rejected rather than truncated.
    """
    bp = BasisPair.of(bases)
    s1, s2 = s
    if s1 < 0 or s2 < 0:
        raise ValueError(f"depths must be nonnegative, got {s}")
    y1, y2 = Fraction(y[0]), Fraction(y[1])
    for yi, p, si in ((y1, bp.p1, s1), (y2, bp.p2, s2)):
        if not 0 <= yi < 1:
            raise ValueError(f"corner coordinate out of [0, 1): {yi}")
        if (yi * p ** si).denominator != 1:
            raise ValueError(
                f"corner {yi} is not aligned to the base-{p} grid at depth {si}"
            )
    if s1 == 0 and s2 == 0:
        return True
    rd = crt_inverses(bp, (s1, s2))
    k1 = _digit_value(fraction_digits(y1, bp.p1, s1), bp.p1)
    k2 = _digit_value(fraction_digits(y2, bp.p2, s2), bp.p2)
    q1, q2 = bp.p1 ** s1, bp.p2 ** s2
    target = (q2 * rd.M1 * k1 + q1 * rd.M2 * k2) % rd.P
    return k % rd.P == target


@dataclass(frozen=True)
class SignedResidueSet:
    """The complete residue system [-floor((M-1)/2), floor(M/2)] mod M."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError(f"modulus must be positive, got {self.M}")

    @property
    def lo(self) -> int:
        return -((self.M - 1) // 2)

    @property
    def hi(self) -> int:
        return self.M // 2

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.M

    def __contains__(self, a: int) -> bool:
        M = self.M
        return -((M - 1) // 2) <= a <= M // 2

    def nonzero(self):
        """The set minus 0, in ascending order."""
        for a in self:
            if a != 0:
                yield a


def signed_residues(M: int) -> SignedResidueSet:
    return SignedResidueSet(M)


def signed_rep(a: int, M: int) -> int:
    """The representative of a mod M inside the signed residue set."""
    c = a % M
    if c > M // 2:
        c -= M
    return c


def delta(M: int, a: int) -> int:
    """Divisibility indicator: 1 if M divides a, else 0."""
    if M < 1:
        raise ValueError(f"modulus must be positive, got {M}")
    return 1 if a % M == 0 else 0
