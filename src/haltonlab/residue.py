"""Modular machinery for elementary intervals of two-dimensional Halton points.

A box whose side lengths are p1^-r1 and p2^-r2 aligned to the digit grids
contains exactly the Halton points whose index lies in one residue class
modulo P = p1^r1 * p2^r2.  This module computes the two modular inverses that
define that class, the class of a box from the leading digits of its corner,
the membership test built on it, and the signed residue windows, as ranges,
that the Fourier sums run over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .radical import BasisPair, _leading_digits, _reverse_digits

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


def crt_inverses(bases: BasisPair | Sequence[int], r: TruncIndex) -> ResidueData:
    """Compute ResidueData for the given depths via extended Euclid."""
    bp = BasisPair.of(bases)
    r1, r2 = r
    if r1 < 0 or r2 < 0:
        raise ValueError(f"depths must be nonnegative, got {r}")
    if r1 == 0 and r2 == 0:
        raise ValueError("at least one depth must be positive")
    return _crt_cached(bp.p1, bp.p2, r1, r2)


def _check_window(q_start: int, n_count: int) -> None:
    """Reject an index window [q_start, q_start + n_count) that is empty or
    starts below 0."""
    if n_count < 1:
        raise ValueError(f"count must be >= 1, got {n_count}")
    if q_start < 0:
        raise ValueError(f"start must be >= 0, got {q_start}")


@lru_cache(maxsize=4096)
def _crt_cached(p1: int, p2: int, r1: int, r2: int) -> ResidueData:
    q1, q2 = p1 ** r1, p2 ** r2
    m1 = pow(q2, -1, q1) if q1 > 1 else 0
    m2 = pow(q1, -1, q2) if q2 > 1 else 0
    return ResidueData(bases=BasisPair(p1, p2), r=(r1, r2), P=q1 * q2,
                       M1=m1, M2=m2)


def _corner_digits(x: Sequence, bases: tuple[int, int],
                   r: TruncIndex) -> tuple[int, int]:
    """floor(x_i p_i^r_i) per axis, for a corner in [0, 1)^2."""
    out = []
    for xi, p, ri in zip(map(Fraction, x), bases, r):
        if xi == 1:
            raise ValueError(
                "coordinate 1 has no digit expansion; truncate first")
        if not 0 <= xi < 1:
            raise ValueError(f"corner coordinate out of [0, 1): {xi}")
        if ri < 0:
            raise ValueError(f"depth must be nonnegative, got {ri}")
        out.append(_leading_digits(xi, p, ri))
    return out[0], out[1]


def _box_class(t1: int, t2: int, r: TruncIndex, rd: ResidueData) -> int:
    """Residue mod P of the Halton indices in the box whose corner has leading
    digits t_i = floor(x_i p_i^r_i); axis i contributes the r_i-digit
    reversal of t_i."""
    p1, p2 = rd.bases.p1, rd.bases.p2
    r1, r2 = r
    return (p2 ** r2 * rd.M1 * _reverse_digits(t1, p1, r1)
            + p1 ** r1 * rd.M2 * _reverse_digits(t2, p2, r2)) % rd.P


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
    t = []
    for yi, p, si in zip(map(Fraction, y), bp.as_tuple(), (s1, s2)):
        if not 0 <= yi < 1:
            raise ValueError(f"corner coordinate out of [0, 1): {yi}")
        if yi.numerator * p ** si % yi.denominator:
            raise ValueError(
                f"corner {yi} is not aligned to the base-{p} grid at depth {si}"
            )
        t.append(_leading_digits(yi, p, si))
    if s1 == 0 and s2 == 0:
        return True
    rd = crt_inverses(bp, (s1, s2))
    return k % rd.P == _box_class(t[0], t[1], (s1, s2), rd)


def signed_residues(M: int) -> range:
    """The complete residue system [-floor((M-1)/2), floor(M/2)] mod M."""
    if M < 1:
        raise ValueError(f"modulus must be positive, got {M}")
    return range(-((M - 1) // 2), M // 2 + 1)


def signed_rep(a, M: int):
    """The representative of a mod M inside the signed residue set.

    a may be an int or an integer numpy array; arrays map elementwise.
    """
    h = (M - 1) // 2
    return (a + h) % M - h
