"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles with naive
algorithms: per-point digit reversal, piecewise integration over grid cells,
direct point counting, exhaustive window searches, and brute-force modular
arithmetic.  None of it shares code paths with the library, so agreement is
evidence rather than tautology.  Only the stdlib and `haltonlab` are
imported, so the file also loads by path with just `src/` importable.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product
from typing import Sequence

from haltonlab import RationalPoint


# ---------------------------------------------------------------------------
# point oracles (one Fraction per coordinate)

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


def halton_point(n: int, bases: Sequence[int]) -> RationalPoint:
    """Point whose i-th coordinate is the base bases[i] radical inverse of n."""
    bs = tuple(int(p) for p in bases)
    for i, p in enumerate(bs):
        for q in bs[i + 1:]:
            if math.gcd(p, q) != 1:
                raise ValueError(f"bases {p} and {q} are not coprime")
    return RationalPoint(tuple(radical_inverse(n, p) for p in bs))


# ---------------------------------------------------------------------------
# discrepancy oracles

def _axis_grid(points: Sequence[Sequence[Fraction]], axis: int) -> list[Fraction]:
    vals = {Fraction(0), Fraction(1)}
    for pt in points:
        vals.add(Fraction(pt[axis]))
    return sorted(vals)


def _cells(grids: list[list[Fraction]]):
    """Yield (lower corner, upper corner, lower corner's grid indices) over
    the product grid."""
    for idx in product(*(range(len(g) - 1) for g in grids)):
        yield (tuple(g[j] for g, j in zip(grids, idx)),
               tuple(g[j + 1] for g, j in zip(grids, idx)), idx)


def _counts_at_most(points, grids: list[list[Fraction]]) -> dict:
    """Number of points <= each grid vertex, keyed by the vertex's indices.

    Each point is tallied at its own vertex, then the tallies are summed
    cumulatively along one axis after another.
    """
    where = [{v: j for j, v in enumerate(g)} for g in grids]
    counts = dict.fromkeys(product(*(range(len(g)) for g in grids)), 0)
    for pt in points:
        counts[tuple(w[c] for w, c in zip(where, pt))] += 1
    # keys run in lexicographic order, so each key's predecessor along an
    # axis already holds its cumulative count when the key is reached
    for axis in range(len(grids)):
        for key in counts:
            if key[axis]:
                counts[key] += counts[
                    key[:axis] + (key[axis] - 1,) + key[axis + 1:]]
    return counts


def piecewise_l2_squared(points: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact integral of the squared local discrepancy by cell decomposition.

    The box count is constant on the interior of every cell of the grid
    induced by the coordinates, so the integral splits into closed-form
    polynomial pieces.
    """
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    n = len(pts)
    s = len(pts[0])
    grids = [_axis_grid(pts, i) for i in range(s)]
    counts = _counts_at_most(pts, grids)
    # per axis and grid interval [a, b]: b - a, (b^2 - a^2)/2, (b^3 - a^3)/3
    pieces = [[(b - a, Fraction(b * b - a * a, 2), Fraction(b ** 3 - a ** 3, 3))
               for a, b in zip(g, g[1:])] for g in grids]
    total = Fraction(0)
    for _, _, idx in _cells(grids):
        c = counts[idx]
        area = Fraction(1)
        first = Fraction(1)
        second = Fraction(1)
        for axis, j in zip(pieces, idx):
            length, lin, cub = axis[j]
            area *= length
            first *= lin
            second *= cub
        total += c * c * area - 2 * c * n * first + n * n * second
    return total


def pair_sum_l2_squared(points: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact L2 discrepancy squared by the quadratic pair-sum identity.

    Every unordered pair is visited once, in rational arithmetic, with the
    off-diagonal pairs counted twice; no sorting, no common denominators.
    """
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    n = len(pts)
    s = len(pts[0])
    t1 = Fraction(0)
    for k in range(n):
        a = pts[k]
        term = Fraction(1)
        for i in range(s):
            term *= 1 - a[i]
        t1 += term  # diagonal
        for l in range(k + 1, n):
            b = pts[l]
            term = Fraction(1)
            for i in range(s):
                term *= 1 - max(a[i], b[i])
            t1 += 2 * term
    t2 = Fraction(0)
    for k in range(n):
        term = Fraction(1)
        for i in range(s):
            term *= 1 - pts[k][i] ** 2
        t2 += term
    return t1 - Fraction(n, 2 ** (s - 1)) * t2 + Fraction(n * n, 3 ** s)


def star_by_cells(points: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact sup of |local discrepancy| via per-cell corner limits."""
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    n = len(pts)
    s = len(pts[0])
    grids = [_axis_grid(pts, i) for i in range(s)]
    counts = _counts_at_most(pts, grids)
    best = Fraction(0)
    for lo, hi, idx in _cells(grids):
        c = counts[idx]
        vol_lo = Fraction(1)
        vol_hi = Fraction(1)
        for a, b in zip(lo, hi):
            vol_lo *= a
            vol_hi *= b
        best = max(best, abs(c - n * vol_lo), abs(c - n * vol_hi))
    return best


def count_below(points, corner) -> int:
    """Strict box count, the raw ingredient of the local discrepancy."""
    return sum(
        1 for pt in points
        if all(Fraction(c) < v for c, v in zip(pt, corner))
    )


# ---------------------------------------------------------------------------
# digit-cell layer oracle (direct counting, no CRT)

def axis_digits(x: Fraction, p: int, r: int) -> list[int]:
    """First r base-p digits of x in [0,1), most significant first."""
    x = Fraction(x)
    out = []
    for _ in range(r):
        x *= p
        d = int(x)
        out.append(d)
        x -= d
    return out


def layer_by_direct_count(x, r, q_start: int, n_count: int, bases) -> Fraction:
    """One decomposition layer by walking the points and testing intervals.

    Sums, over the digit cells strictly below each coordinate's last kept
    digit, the number of sequence members in the cell minus the expected
    share.  Pure interval arithmetic on exact rationals.
    """
    p1, p2 = bases
    r1, r2 = r
    d1 = axis_digits(Fraction(x[0]), p1, r1)
    d2 = axis_digits(Fraction(x[1]), p2, r2)
    c1, c2 = d1[-1], d2[-1]
    pref1 = sum(Fraction(d, p1 ** (j + 1)) for j, d in enumerate(d1[:-1]))
    pref2 = sum(Fraction(d, p2 ** (j + 1)) for j, d in enumerate(d2[:-1]))
    w1, w2 = Fraction(1, p1 ** r1), Fraction(1, p2 ** r2)
    big_p = p1 ** r1 * p2 ** r2
    total = 0
    for k in range(q_start, q_start + n_count):
        y1, y2 = halton_point(k, (p1, p2)).coords
        for b1 in range(c1):
            lo1 = pref1 + b1 * w1
            if not lo1 <= y1 < lo1 + w1:
                continue
            for b2 in range(c2):
                lo2 = pref2 + b2 * w2
                if lo2 <= y2 < lo2 + w2:
                    total += 1
    return total - Fraction(c1 * c2 * n_count, big_p)


def truncated_discrepancy_by_count(x, q_start: int, n_count: int,
                                   bases) -> Fraction:
    """Truncate to depth bit_length(N) per axis, then count points directly."""
    p1, p2 = bases
    depth = n_count.bit_length()
    corner = []
    for xi, p in zip(x, (p1, p2)):
        xi = Fraction(xi)
        if xi == 1:
            corner.append(Fraction(1))
        else:
            digs = axis_digits(xi, p, depth)
            corner.append(sum(Fraction(d, p ** (j + 1))
                              for j, d in enumerate(digs)))
    pts = [halton_point(k, (p1, p2)).coords
           for k in range(q_start, q_start + n_count)]
    cnt = count_below(pts, corner)
    return cnt - n_count * corner[0] * corner[1]


# ---------------------------------------------------------------------------
# Fourier layer oracle (one frequency at a time, exact rational phases)

def _e_frac(t: Fraction) -> complex:
    """exp(2*pi*i*t) for an exact rational t, reduced mod 1 first."""
    t -= math.floor(t)
    arg = 2.0 * math.pi * float(t)
    return complex(math.cos(arg), math.sin(arg))


def _e_frac_minus_1(t: Fraction) -> complex:
    """exp(2*pi*i*t) - 1 without cancellation: 2i*sin(pi*t)*exp(i*pi*t)."""
    t -= math.floor(t)
    half = math.pi * float(t)
    s = math.sin(half)
    return 2.0 * s * complex(-math.sin(half), math.cos(half))


def term_fourier_by_loop(x, r, q_start: int, n_count: int, bases) -> complex:
    """One decomposition layer as its exponential sum, frequency by frequency.

    For each nonzero signed residue m mod P = p1^r1 * p2^r2: the window
    coefficient (1/P) * sum_k e(m*k/P) in closed form, times the digit-cell
    factor of each axis, times the corner phase e(-m*c/P).  Every phase is
    an exact Fraction reduced mod 1 before one cos/sin.  The corner class c
    comes from the digits by brute-force inverses, not from the library.
    """
    p1, p2 = bases
    r1, r2 = r
    q1, q2 = p1 ** r1, p2 ** r2
    big_p = q1 * q2
    dig1 = axis_digits(Fraction(x[0]), p1, r1)
    dig2 = axis_digits(Fraction(x[1]), p2, r2)
    d1, d2 = dig1[-1], dig2[-1]
    if d1 == 0 or d2 == 0:
        return 0j
    inv1, inv2 = brute_inverse(q2 % q1, q1), brute_inverse(q1 % q2, q2)
    rev1 = sum(d * p1 ** j for j, d in enumerate(dig1))
    rev2 = sum(d * p2 ** j for j, d in enumerate(dig2))
    corner = (q2 * inv1 * rev1 + q1 * inv2 * rev2) % big_p

    def cells(p, last):
        return [sum((_e_frac(Fraction((-c * (b - last)) % p, p))
                     for b in range(last)), 0j) for c in range(p)]

    t1, t2 = cells(p1, d1), cells(p2, d2)
    total = 0j
    for m in signed_window(big_p):
        m_n = (m * n_count) % big_p
        if m == 0 or m_n == 0:
            continue
        phi = (_e_frac(Fraction((m * q_start) % big_p, big_p))
               * _e_frac_minus_1(Fraction(m_n, big_p))
               / (big_p * _e_frac_minus_1(Fraction(m % big_p, big_p))))
        psi = t1[(m * inv1) % p1] * t2[(m * inv2) % p2]
        total += phi * psi * _e_frac(Fraction((-m * corner) % big_p, big_p))
    return total


# ---------------------------------------------------------------------------
# modular oracles

def brute_inverse(a: int, m: int) -> int:
    """Modular inverse by exhaustive search; 0 for the degenerate modulus 1."""
    if m == 1:
        return 0
    for x in range(m):
        if (a * x) % m == 1:
            return x
    raise ValueError(f"{a} not invertible mod {m}")


def signed_window(m: int) -> range:
    """The complete residue system [-floor((m-1)/2), floor(m/2)]."""
    return range(-((m - 1) // 2), m // 2 + 1)


def window_split_search(mhat: int, p: int, rplus: int, rminus: int
                        ) -> tuple[int, int]:
    """All (low, high) window pairs with low*gap + high = mhat mod p^rplus.

    Asserts uniqueness and returns the single solution.
    """
    q = p ** rplus
    sgap = p ** (rplus - rminus)
    found = [
        (lo, hi)
        for lo in signed_window(p ** rminus)
        for hi in signed_window(sgap)
        if (lo * sgap + hi - mhat) % q == 0
    ]
    assert len(found) == 1, f"split of {mhat} mod {p}^{rplus} not unique: {found}"
    return found[0]


def _pair_axis_geometry(bases, br_1, br_2, axis: int):
    """Fold modulus, window gap, and per-member fold multipliers for one axis.

    The multipliers come from brute-force modular inverses, keeping this
    independent of the library's CRT code.
    """
    p = bases[axis]
    other = bases[1 - axis]
    t = (br_1[axis], br_2[axis])
    rplus, rminus = max(t), min(t)
    q = p ** rplus
    mults = []
    for j, br in enumerate((br_1, br_2)):
        q_axis = p ** br[axis]
        q_other = other ** br[1 - axis]
        inv = brute_inverse(q_other % q_axis, q_axis)
        mults.append(inv * p ** (rplus - t[j]))
    return q, rplus, rminus, mults


def fold_axis(m1: int, m2: int, q: int, mults) -> int:
    return (-(m1 * mults[0] + m2 * mults[1])) % q


def naive_pair_majorant(bases, br_1, br_2) -> float:
    """Quadruple harmonic sum for one depth pair by direct enumeration.

    Frequencies sweep the full signed windows of the two layer moduli; each
    term weighs in with the reciprocal magnitudes of the frequencies and of
    the per-axis window-split coefficients found by exhaustive search.
    """
    p1, p2 = bases
    big = [p1 ** br[0] * p2 ** br[1] for br in (br_1, br_2)]
    geo = []
    for axis in range(2):
        p = bases[axis]
        q, rplus, rminus, mults = _pair_axis_geometry(bases, br_1, br_2, axis)
        geo.append((p, q, rplus, rminus, mults))
    total = 0.0
    for m1 in signed_window(big[0]):
        if m1 == 0:
            continue
        for m2 in signed_window(big[1]):
            if m2 == 0:
                continue
            term = 1.0 / (abs(m1) * abs(m2))
            for p, q, rplus, rminus, mults in geo:
                mhat = fold_axis(m1, m2, q, mults)
                lo, hi = window_split_search(mhat, p, rplus, rminus)
                term /= max(1, abs(lo)) * max(1, abs(hi))
            total += term
    return total


def naive_resonance(bases, pairs, m_cap: int) -> tuple[float, float]:
    """Windowed and unconstrained resonance sums by six nested loops.

    For each frequency pair the windowed sum takes the unique signed-window
    solution per axis (zeroed when it leaves the box) and the unconstrained
    sum enumerates every coefficient pair in the box satisfying the fold
    congruence.
    """
    star = 0.0
    sharp = 0.0
    box = [v for v in range(-m_cap, m_cap + 1)]
    nz = [v for v in box if v != 0]
    for br_1, br_2 in pairs:
        geo = []
        for axis in range(2):
            p = bases[axis]
            q, rplus, rminus, mults = _pair_axis_geometry(
                bases, br_1, br_2, axis)
            geo.append((p, q, rplus, rminus, mults))
        for m1 in nz:
            for m2 in nz:
                w = 1.0 / (abs(m1) * abs(m2))
                star_term = w
                sharp_term = w
                star_ok = True
                for p, q, rplus, rminus, mults in geo:
                    mhat = fold_axis(m1, m2, q, mults)
                    lo, hi = window_split_search(mhat, p, rplus, rminus)
                    if abs(lo) > m_cap or abs(hi) > m_cap:
                        star_ok = False
                    else:
                        star_term /= max(1, abs(lo)) * max(1, abs(hi))
                    sgap = p ** (rplus - rminus)
                    acc = 0.0
                    for u in box:
                        for v in box:
                            if (u * sgap + v - mhat) % q == 0:
                                acc += 1.0 / (max(1, abs(u)) * max(1, abs(v)))
                    sharp_term *= acc
                if star_ok:
                    star += star_term
                sharp += sharp_term
    return star, sharp


# ---------------------------------------------------------------------------
# number-theory oracles

def brute_power_valuation(p: int, a: int, k: int) -> int:
    """Exponent of p in a**k - 1 by direct factorization of the big integer."""
    x = a ** k - 1
    if x == 0:
        raise ValueError("a**k - 1 is zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def unit_circle_sum(terms) -> complex:
    """Plain sum of e(t) over rational arguments t, for kernel identities."""
    return sum(cmath.exp(2j * cmath.pi * float(t)) for t in terms)
