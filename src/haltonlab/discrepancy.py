"""Local, L2, and star discrepancy, plus the digit-cell decomposition.

The L2 pair-sum identity used throughout:

    integral of D(x)^2 over the unit cube
        = sum_{k,l} prod_i (1 - max(x_{k,i}, x_{l,i}))
          - 2N * sum_k prod_i (1 - x_{k,i}^2)/2
          + N^2 * 3^(-s)

Exact mode evaluates it in integer arithmetic on the point set's per-axis
numerators and denominators, by one sort-and-sweep pair sum at every size,
offset and axis count.  Float mode evaluates it with numpy in fixed-order
blocks of float64 products, accumulating block sums in extended precision,
so results are run-to-run identical.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

import numpy as np

from .radical import (BasisPair, PointSet, _leading_digits, _reverse_digits,
                      point_set)
from .residue import (ResidueData, TruncIndex, _check_window, _corner_digits,
                      crt_inverses)

EXACT_DEFAULT_MAX = 1 << 12


@dataclass(frozen=True)
class DiscrepancyValue:
    """An exact rational or floating discrepancy result, tagged by mode."""

    value: Fraction | float
    mode: str  # "exact" | "float"

    def as_float(self) -> float:
        return float(self.value)


def _as_fractions(x: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in x)


def local_discrepancy(x: Sequence, pointset: PointSet) -> DiscrepancyValue:
    """Point count in the box [0,x1) x ... x [0,xs) minus the expected N*x1*...*xs.

    Box sides are half-open on the right.  Corner coordinates may be 0 (empty
    box) or 1 (that axis counts every point, since all coordinates are < 1).
    """
    xs = _as_fractions(x)
    if len(xs) != pointset.dim:
        raise ValueError(f"corner has {len(xs)} coordinates for a "
                         f"{pointset.dim}-dimensional set")
    for c in xs:
        if not 0 <= c <= 1:
            raise ValueError(f"corner coordinate out of [0, 1]: {c}")
    # a / D < x exactly when the integer a is below ceil(x D)
    limits = [-(-x.numerator * d // x.denominator)
              for x, d in zip(xs, pointset.dens)]
    count = sum(all(a < t for a, t in zip(row, limits))
                for row in zip(*pointset.cols))
    vol = Fraction(1)
    for xi in xs:
        vol *= xi
    return DiscrepancyValue(count - pointset.count * vol, "exact")


# ---------------------------------------------------------------------------
# L2 discrepancy (pair-sum identity)

def _sweep(a: list[tuple[int, ...]], b: list[tuple[int, ...]]) -> int:
    """The pair sum of `_pair_sum` for entries (w, c1, c2) of two axes.

    Entries enter in descending c1, so the c1 minimum of a pair is that of
    its later entry.  Per side, Fenwick trees over the c2 ranks hold the
    weights of the entries already in and those weights times c2.
    """
    sides = (a,) if a is b else (a, b)
    rank = {t: r for r, t in
            enumerate(sorted({e[2] for side in sides for e in side}), 1)}
    size = len(rank)
    trees = [([0] * (size + 1), [0] * (size + 1)) for _ in sides]
    totals = [0] * len(sides)
    stream = sorted(((e, j) for j, side in enumerate(sides) for e in side),
                    key=lambda ej: ej[0][1], reverse=True)
    total = 0
    for (w, c1, c2), j in stream:
        r = rank[c2]
        other = j if a is b else 1 - j
        weights, sums = trees[other]
        below = sum_below = 0
        i = r
        while i:
            below += weights[i]
            sum_below += sums[i]
            i &= i - 1
        # sum of w_l * min(c2, c2_l) over the other side's earlier entries l
        earlier = sum_below + c2 * (totals[other] - below)
        total += w * c1 * (w * c2 + 2 * earlier if a is b else earlier)
        weights, sums = trees[j]
        totals[j] += w
        i = r
        while i <= size:
            weights[i] += w
            sums[i] += w * c2
            i += i & -i
    return total


def _fold(entries: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Move the last coordinate of each entry into its weight."""
    return [(e[0] * e[-1],) + e[1:-1] for e in entries]


def _pair_sum(a: list[tuple[int, ...]], b: list[tuple[int, ...]]) -> int:
    """Sum over entries k of a and l of b of w_k w_l prod_i min(c_ki, c_li).

    Entries are tuples (w, c1, ..., cd) with d >= 2; `a is b` asks for the
    sum over all ordered pairs of one list, k = l included.  Above two axes
    the entries are halved along the last one (Heinrich, Math. Comp. 65,
    1996): a pair split by the halving takes its last-axis minimum from its
    lower entry, so the split pairs form a two-sided sum in one axis fewer.
    """
    if not a or not b:
        return 0
    if len(a[0]) == 3:
        return _sweep(a, b)
    if a is b:
        ordered = sorted(a, key=lambda e: e[-1])
        if len(ordered) == 1:
            w, *c = ordered[0]
            return w * w * prod(c)
        half = len(ordered) // 2
        lo, hi = ordered[:half], ordered[half:]
        return (_pair_sum(lo, lo) + _pair_sum(hi, hi)
                + 2 * _pair_sum(_fold(lo), [e[:-1] for e in hi]))
    ordered = sorted([(e, 0) for e in a] + [(e, 1) for e in b],
                     key=lambda ej: ej[0][-1])
    half = len(ordered) // 2
    (a_lo, b_lo), (a_hi, b_hi) = (
        [[e for e, j in part if j == side] for side in (0, 1)]
        for part in (ordered[:half], ordered[half:]))
    return (_pair_sum(a_lo, b_lo) + _pair_sum(a_hi, b_hi)
            + _pair_sum(_fold(a_lo), [e[:-1] for e in b_hi])
            + _pair_sum(_fold(b_lo), [e[:-1] for e in a_hi]))


def _pair_sum_float(cols_f: list[np.ndarray]) -> np.longdouble:
    """Blocked float pair sum of prod_i (1 - max(x_ki, x_li)), fixed order.

    The products are float64 and each block's sum is accumulated in
    extended precision.
    """
    n = len(cols_f[0])
    comp = [1.0 - col for col in cols_f]
    row_block, col_block = 256, 4096
    acc = np.longdouble(0.0)
    for r0 in range(0, n, row_block):
        r1 = min(n, r0 + row_block)
        for c0 in range(0, n, col_block):
            c1 = min(n, c0 + col_block)
            block = np.minimum(comp[0][r0:r1, None], comp[0][None, c0:c1])
            for comp_i in comp[1:]:
                block = block * np.minimum(comp_i[r0:r1, None],
                                           comp_i[None, c0:c1])
            acc += block.sum(dtype=np.longdouble)
    return acc


def _l2_exact(pointset: PointSet) -> Fraction:
    """The pair-sum identity on the complements D_i - a of the numerators a
    over each axis's denominator D_i; one axis is padded with 1s."""
    n = pointset.count
    s = pointset.dim
    dens = pointset.dens
    rows = list(zip(*pointset.cols))
    pad = (1,) if s == 1 else ()
    entries = [(1, *(d - a for a, d in zip(x, dens)), *pad) for x in rows]
    t1 = _pair_sum(entries, entries)
    t2 = sum(prod(d * d - a * a for a, d in zip(x, dens)) for x in rows)
    den_prod = prod(dens)
    return (Fraction(t1, den_prod)
            - Fraction(n * t2, 2 ** (s - 1) * den_prod ** 2)
            + Fraction(n * n, 3 ** s))


def _l2_float(pointset: PointSet) -> float:
    n = pointset.count
    s = pointset.dim
    cols = list(pointset.float_matrix().T)
    t1 = _pair_sum_float(cols)
    m = np.ones(n, dtype=np.longdouble)
    for col in cols:
        m = m * (1.0 - col.astype(np.longdouble) ** 2)
    t2 = m.sum(dtype=np.longdouble)
    mid = np.longdouble(n) * t2 / np.longdouble(2 ** (s - 1))
    tail = np.longdouble(n) * np.longdouble(n) / np.longdouble(3 ** s)
    return float(t1 - mid + tail)


def l2_discrepancy_squared(pointset: PointSet,
                           mode: str | None = None) -> DiscrepancyValue:
    """Squared L2 norm of the local discrepancy via the pair-sum identity.

    mode defaults to exact for counts up to 2^12 and float above.
    """
    if pointset.count < 1:
        raise ValueError("point set must be nonempty")
    if mode is None:
        mode = "exact" if pointset.count <= EXACT_DEFAULT_MAX else "float"
    if mode == "exact":
        return DiscrepancyValue(_l2_exact(pointset), "exact")
    if mode == "float":
        return DiscrepancyValue(_l2_float(pointset), "float")
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# star discrepancy, s <= 2

def star_discrepancy(pointset: PointSet) -> DiscrepancyValue:
    """Exact supremum of |local discrepancy| over corners in (0,1]^s, s <= 2.

    The supremum over each grid rectangle of the piecewise profile is attained
    either at its closed upper corner or as a limit at its open lower corner,
    so both corner families are enumerated symbolically; no epsilon nudges.
    The sweep runs on the integer numerators, every candidate over D1 D2.
    Numerators are integers, so a < v is a <= v - 1 and one dominance sweep
    serves both families: (shift, sign) = (0, +1) counts a <= v for +D
    approached from above a lower corner, (1, -1) counts a <= v - 1 for -D
    at a closed upper corner.  Each axis's candidates are {0, D_i} and its
    numerators; the extras never win (+D at w = D_i is at most its value at
    the largest numerator, -D at 0 is 0).  One axis is swept as a second
    axis of 0s over 1 whose only candidate is 1.
    """
    n = pointset.count
    s = pointset.dim
    if s not in (1, 2):
        raise ValueError(f"star discrepancy implemented for s in {{1,2}}, got {s}")
    cols = pointset.cols if s == 2 else (*pointset.cols, (0,) * n)
    d1, d2 = pointset.dens if s == 2 else (*pointset.dens, 1)
    big = d1 * d2
    pts = sorted(zip(*cols))
    xs = sorted({0, d1, *cols[0]})
    ys = sorted({0, d2, *cols[1]}) if s == 2 else [1]
    best = 0
    for shift, sign in ((0, 1), (1, -1)):
        sbig = sign * big
        cands = [(w - shift, w) for w in ys]
        idx = 0
        ys_seen: list[int] = []
        for v in xs:
            while idx < n and pts[idx][0] <= v - shift:
                insort(ys_seen, pts[idx][1])
                idx += 1
            snv = sign * n * v
            for lim, w in cands:
                val = bisect_right(ys_seen, lim) * sbig - snv * w
                if val > best:
                    best = val
    return DiscrepancyValue(Fraction(best, big), "exact")


# ---------------------------------------------------------------------------
# truncation and the digit-cell decomposition

def truncate_digits(x: Sequence, r: TruncIndex,
                    bases: BasisPair | Sequence[int]) -> tuple[Fraction, ...]:
    """Keep the first r_i base-p_i digits of each coordinate.

    A coordinate equal to 1 is returned unchanged: truncation acts on [0, 1)
    expansions and full-box queries bypass it.  Idempotent.
    """
    bp = BasisPair.of(bases)
    out = []
    for xi, p, ri in zip(_as_fractions(x), bp.as_tuple(), r):
        if not 0 <= xi <= 1:
            raise ValueError(f"coordinate out of [0, 1]: {xi}")
        if ri < 0:
            raise ValueError(f"depth must be nonnegative, got {ri}")
        out.append(Fraction(_leading_digits(xi, p, ri), p ** ri))
    return tuple(out)


def truncated_discrepancy(x: Sequence, q_start: int, n_count: int,
                          bases: BasisPair | Sequence[int]) -> Fraction:
    """Local discrepancy at the corner truncated to depth floor(log2 N) + 1.

    The depth is base-2 regardless of the bases in play.  Exact.
    """
    bp = BasisPair.of(bases)
    _check_window(q_start, n_count)
    depth = n_count.bit_length()
    xt = truncate_digits(x, (depth, depth), bp)
    ps = point_set("halton", bp.as_tuple(), q_start, n_count)
    return Fraction(local_discrepancy(xt, ps).value)


def count_in_class(residue: int, q_start: int, n_count: int, modulus: int) -> int:
    """How many k in [q_start, q_start + n_count) satisfy k = residue mod modulus."""
    return ((q_start + n_count - 1 - residue) // modulus
            - (q_start - 1 - residue) // modulus)


def _cell_class_sum(k1: int, k2: int, r: TruncIndex, rd: ResidueData,
                    q_start: int, n_count: int) -> Fraction:
    """The depth-r layer at a corner whose box-class components are k1, k2.

    k_i is the r_i-digit reversal of the corner's leading digits, so its top
    digit c_i is the last kept digit and the rest the prefix.  The cells
    replace c_i by each b_i < c_i; every cell's class contributes its count
    in the index window minus the expected n_count / P.
    """
    p1, p2 = rd.bases.p1, rd.bases.p2
    g1, g2 = p1 ** (r[0] - 1), p2 ** (r[1] - 1)
    c1, pre1 = divmod(k1, g1)
    c2, pre2 = divmod(k2, g2)
    w1 = rd.M1 * (rd.P // (g1 * p1))
    w2 = rd.M2 * (rd.P // (g2 * p2))
    total = 0
    for b1 in range(c1):
        part1 = w1 * (pre1 + b1 * g1)
        for b2 in range(c2):
            cls = (part1 + w2 * (pre2 + b2 * g2)) % rd.P
            total += count_in_class(cls, q_start, n_count, rd.P)
    return total - Fraction(c1 * c2 * n_count, rd.P)


def decomposition_term(x: Sequence, r: TruncIndex, q_start: int, n_count: int,
                       bases: BasisPair | Sequence[int]) -> Fraction:
    """One depth-(r1, r2) layer of the truncated-discrepancy decomposition.

    The layer sums, over the digit cells below the corner's last kept digits,
    the count of indexes in the cell's residue class minus the expected
    n_count / P.  Exact; zero when either last digit is 0 (empty layer).
    Coordinates must lie in [0, 1).
    """
    bp = BasisPair.of(bases)
    r1, r2 = r
    if r1 < 1 or r2 < 1:
        raise ValueError(f"layer depths must be >= 1, got {r}")
    _check_window(q_start, n_count)
    p1, p2 = bp.as_tuple()
    t1, t2 = _corner_digits(x, (p1, p2), r)
    if t1 % p1 == 0 or t2 % p2 == 0:
        return Fraction(0)
    return _cell_class_sum(_reverse_digits(t1, p1, r1),
                           _reverse_digits(t2, p2, r2), r, crt_inverses(bp, r),
                           q_start, n_count)


def decomposition_layers(x: Sequence, q_start: int, n_count: int,
                         bases: BasisPair | Sequence[int]
                         ) -> dict[TruncIndex, Fraction]:
    """All layers (r1, r2) in [1, n]^2 for n = floor(log2 N) + 1, as exact values."""
    bp = BasisPair.of(bases)
    _check_window(q_start, n_count)
    depth = n_count.bit_length()
    out: dict[TruncIndex, Fraction] = {}
    for r1 in range(1, depth + 1):
        for r2 in range(1, depth + 1):
            out[(r1, r2)] = decomposition_term(x, (r1, r2), q_start, n_count, bp)
    return out
