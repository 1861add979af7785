"""Radical inverses, base-p digits of exact rationals, and point generators.

A point set stores each axis as integer numerators over one common
denominator.  `fractions.Fraction` points and float coordinates are views
computed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

import numpy as np

# Largest point count a set is materialized for.
EAGER_CAP = 1 << 22

KINDS = ("halton", "hammersley", "van_der_corput", "explicit")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def first_primes(k: int) -> tuple[int, ...]:
    """The first k primes, the usual basis choice in dimension k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    found: list[int] = []
    n = 2
    while len(found) < k:
        if is_prime(n):
            found.append(n)
        n += 1
    return tuple(found)


@dataclass(frozen=True)
class BasisPair:
    """A pair of coprime bases; the two-dimensional machinery is built on it."""

    p1: int
    p2: int

    def __post_init__(self) -> None:
        for p in (self.p1, self.p2):
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"base must be an integer >= 2, got {p!r}")
        if gcd(self.p1, self.p2) != 1:
            raise ValueError(f"bases must be coprime, got ({self.p1}, {self.p2})")

    @classmethod
    def of(cls, bases: "BasisPair | Sequence[int]") -> "BasisPair":
        if isinstance(bases, BasisPair):
            return bases
        p1, p2 = bases
        return _basis_pair(int(p1), int(p2))

    @property
    def primality(self) -> tuple[bool, bool]:
        return (is_prime(self.p1), is_prime(self.p2))

    def as_tuple(self) -> tuple[int, int]:
        return (self.p1, self.p2)


@lru_cache(maxsize=256)
def _basis_pair(p1: int, p2: int) -> BasisPair:
    """Validated pairs are immutable, so each one is built and checked once."""
    return BasisPair(p1, p2)


def _check_pairwise_coprime(bases: Sequence[int]) -> None:
    for i in range(len(bases)):
        if bases[i] < 2:
            raise ValueError(f"base must be >= 2, got {bases[i]}")
        for j in range(i + 1, len(bases)):
            if gcd(bases[i], bases[j]) != 1:
                raise ValueError(
                    f"bases must be pairwise coprime, got {bases[i]} and {bases[j]}"
                )


def radical_inverse(n: int, p: int) -> Fraction:
    """Digit-reversal map: mirror the base-p digits of n across the radix point."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    rev = 0
    scale = 1
    while n:
        n, d = divmod(n, p)
        rev = rev * p + d
        scale *= p
    return Fraction(rev, scale)


def _leading_digits(x: Fraction, p: int, r: int) -> int:
    """floor(x p^r): the first r base-p digits of x read as one integer."""
    return x.numerator * p ** r // x.denominator


def _reverse_digits(t: int, p: int, r: int) -> int:
    """The r-digit base-p reversal of 0 <= t < p^r.

    Applied to the leading digits of x it weights digit j of x by p^(j-1).
    """
    rev = 0
    for _ in range(r):
        t, d = divmod(t, p)
        rev = rev * p + d
    return rev


@dataclass(frozen=True)
class RationalPoint:
    """A point of the unit cube with `Fraction` coordinates in [0, 1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # Integer comparisons on the reduced parts: Fraction's rich
        # comparisons cost an ABC isinstance check each.
        for c in self.coords:
            if not (isinstance(c, Fraction) and 0 <= c.numerator < c.denominator):
                raise ValueError(f"coordinate is not a Fraction in [0, 1): {c!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)


def halton_point(n: int, bases: Sequence[int]) -> RationalPoint:
    """Point whose i-th coordinate is the base bases[i] radical inverse of n."""
    bs = tuple(int(p) for p in bases)
    _check_pairwise_coprime(bs)
    return RationalPoint(tuple(radical_inverse(n, p) for p in bs))


@dataclass(frozen=True)
class PointSet:
    """An ordered point set with its provenance, stored by axis.

    Coordinate i of point k is cols[i][k] / dens[i], where dens[i] is the
    lcm of the reduced denominators on axis i.
    """

    dens: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]
    bases: tuple[int, ...]
    start: int
    count: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.cols) != len(self.dens) or any(
                len(col) != self.count for col in self.cols):
            raise ValueError(f"columns do not hold {self.count} points "
                             f"on {len(self.dens)} axes")

    @property
    def dim(self) -> int:
        return len(self.dens)

    @cached_property
    def points(self) -> tuple[RationalPoint, ...]:
        """The points as exact `RationalPoint`s, built on first access."""
        return tuple(
            RationalPoint(tuple(Fraction(a, d) for a, d in zip(row, self.dens)))
            for row in zip(*self.cols))

    def float_matrix(self) -> np.ndarray:
        """Coordinates as a count x dim float64 array, each correctly rounded."""
        return np.array([[a / d for a in col]
                         for col, d in zip(self.cols, self.dens)],
                        dtype=np.float64).T


def _inverse_column(p: int, start: int, count: int
                    ) -> tuple[int, tuple[int, ...]]:
    """Base-p radical inverses of start, ..., start + count - 1 as numerators
    over p^D, D the digit count of the last index.

    Index n = h p^k + l reverses to rev_k(l) p^(D-k) + rev_(D-k)(h), so one
    table of the k-digit reversals serves every block of p^k indices.
    """
    last = start + count - 1
    den, width = 1, 0
    while den <= last:
        den *= p
        width += 1
    block = 1
    table = [0]
    while block * p <= min(count, den):
        table = [d * block + t for t in table for d in range(p)]
        block *= p
        width -= 1
    scale = den // block
    out: list[int] = []
    for h in range(start // block, last // block + 1):
        high = _reverse_digits(h, p, width)
        lo = max(start - h * block, 0)
        hi = min(last - h * block + 1, block)
        out.extend(t * scale + high for t in table[lo:hi])
    return den, tuple(out)


def _exact_columns(rows: Sequence[Sequence], dim: int
                   ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per-axis lcm denominators and numerator columns of rational rows."""
    fracs = [tuple(Fraction(c) for c in row) for row in rows]
    for row in fracs:
        if len(row) != dim:
            raise ValueError(f"point has {len(row)} coordinates, expected {dim}")
        for c in row:
            if not 0 <= c < 1:
                raise ValueError(f"coordinate out of [0, 1): {c}")
    axes = list(zip(*fracs)) if fracs else [()] * dim
    dens = tuple(lcm(*(c.denominator for c in axis)) for axis in axes)
    cols = tuple(tuple(c.numerator * (d // c.denominator) for c in axis)
                 for axis, d in zip(axes, dens))
    return dens, cols


def point_set(kind: str, bases: Sequence[int] | int, start: int = 0,
              count: int = 1,
              points: Sequence[RationalPoint | Sequence] | None = None
              ) -> PointSet:
    """Materialize a point set of the given kind.

    kind "halton": points H(start), ..., H(start+count-1) over the given bases.
    kind "van_der_corput": the one-dimensional case (single base).
    kind "hammersley": start must be 0; index/count is appended as a last
    coordinate to each of the first `count` Halton points.
    kind "explicit": wraps caller-provided points.
    """
    if isinstance(bases, int):
        bases = (bases,)
    bs = tuple(int(p) for p in bases)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if count > EAGER_CAP:
        raise ValueError(f"count {count} exceeds the eager cap {EAGER_CAP}")
    if kind == "explicit":
        if points is None:
            raise ValueError("explicit kind requires points")
        rows = [p.coords if isinstance(p, RationalPoint) else p for p in points]
        if not rows:
            raise ValueError("explicit kind requires at least one point")
        dens, cols = _exact_columns(rows, len(rows[0]))
        return PointSet(dens, cols, bs, start, len(rows), kind)
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    _check_pairwise_coprime(bs)
    if kind == "van_der_corput" and len(bs) != 1:
        raise ValueError("van_der_corput takes exactly one base")
    if kind == "hammersley" and start != 0:
        raise ValueError("hammersley requires start = 0")
    dens, cols = zip(*(_inverse_column(p, start, count) for p in bs))
    if kind == "hammersley":
        dens += (count,)
        cols += (tuple(range(count)),)
    return PointSet(dens, cols, bs, start, count, kind)


# ---------------------------------------------------------------------------
# serialization

def _reduced(a: int, d: int) -> str:
    """a/d in lowest terms, written the way `Fraction` writes it."""
    g = gcd(a, d)
    return f"{a // g}/{d // g}"


def save_csv(ps: PointSet, path: str) -> None:
    """Write one point per row as exact num/den strings, with a metadata line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={ps.kind} bases={','.join(map(str, ps.bases))} "
                 f"start={ps.start} count={ps.count}\n")
        dim = ps.dim
        fh.write(",".join(f"x{i + 1}" for i in range(dim)) + "\n")
        for row in zip(*ps.cols):
            fh.write(",".join(_reduced(a, d) for a, d in zip(row, ps.dens))
                     + "\n")


def load_csv(path: str) -> PointSet:
    """Inverse of save_csv; reproduces the PointSet exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# "):
            raise ValueError(f"{path}: missing metadata line")
        meta = dict(item.split("=", 1) for item in meta_line[2:].split())
        dim = len(fh.readline().split(","))  # column header
        rows = [tuple(Fraction(int(num), int(den))
                      for num, den in (c.split("/") for c in line.split(",")))
                for line in map(str.strip, fh) if line]
    if not rows:
        raise ValueError(f"{path}: no point rows")
    bases = tuple(int(b) for b in meta["bases"].split(","))
    dens, cols = _exact_columns(rows, dim)
    return PointSet(dens, cols, bases, int(meta["start"]), int(meta["count"]),
                    meta["kind"])
