"""p-adic valuations, exponent lifting, and desk-scale valuation scans.

The scan measures how large ord_p(l1 * p_other**b - l2) can get relative to
the logarithmic sizes of the coefficients and the exponent.  Each reported
ratio divides the valuation by log2 of the larger of |l1| and |l2| and
log2 of the exponent (both clamped below at 3 so tiny instances cannot
blow up the quotient), giving a scale-free empirical constant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .radical import is_prime


class ZeroFormError(ValueError):
    """Raised when the linear form collapses to exactly zero."""


def valuation(x: int, p: int) -> int | float:
    """Exponent of p in the integer x, or math.inf when x is 0."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not hasattr(x, "__index__"):
        raise ValueError(f"valuation takes an integer, got {x!r}")
    # numpy integers become ints, so x % p cannot overflow or wrap.
    x, p = x.__index__(), p.__index__()
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class LinearFormInstance:
    """One valuation query: ord_p of l1 * p_other**b - l2.

    Requires distinct primes, nonzero coefficients with equal p-valuations
    (so the difference is not forced large by a lone power of p), and a
    nonnegative exponent.
    """

    p: int
    p_other: int
    l1: int
    l2: int
    b: int

    def __post_init__(self) -> None:
        for q in (self.p, self.p_other):
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
        if self.p == self.p_other:
            raise ValueError("the two primes must be distinct")
        if self.l1 == 0 or self.l2 == 0:
            raise ValueError("coefficients must be nonzero")
        if valuation(self.l1, self.p) != valuation(self.l2, self.p):
            raise ValueError(
                "coefficients must carry the same power of p "
                f"(got ord_{self.p}({self.l1}) != ord_{self.p}({self.l2}))"
            )
        if not hasattr(self.b, "__index__") or self.b < 0:
            raise ValueError(f"exponent must be an integer >= 0, got {self.b}")
        # numpy integers become ints, so l1 * p_other**b cannot wrap.
        for name in ("p", "p_other", "l1", "l2", "b"):
            object.__setattr__(self, name, getattr(self, name).__index__())


def linear_form_valuation(inst: LinearFormInstance) -> int:
    """Exact ord_p of l1 * p_other**b - l2; raises ZeroFormError on 0."""
    xi = inst.l1 * inst.p_other ** inst.b - inst.l2
    if xi == 0:
        raise ZeroFormError(
            f"{inst.l1} * {inst.p_other}^{inst.b} - {inst.l2} is zero"
        )
    return valuation(xi, inst.p)


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in the unit group mod p, for prime p not dividing a."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not hasattr(a, "__index__"):
        raise ValueError(f"a must be an integer, got {a!r}")
    # numpy integers become ints, so a % p cannot overflow.
    p, a = p.__index__(), a.__index__()
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    a %= p
    acc = a
    d = 1
    while acc != 1:
        acc = acc * a % p
        d += 1
    return d


def lte_valuation(p: int, a: int, k: int) -> int:
    """ord_p(a**k - 1) by exponent lifting, for prime p coprime to a, k >= 1.

    An independent route to the same quantity as the direct factorization:
    for odd p with d the order of a mod p, the answer is 0 unless d divides
    k, and then ord_p(a**d - 1) + ord_p(k/d); the p = 2 case splits on the
    parity of k.  Raises ZeroFormError when a**k - 1 is zero.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not (hasattr(a, "__index__") and hasattr(k, "__index__")):
        raise ValueError(f"a and k must be integers, got {a!r} and {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # numpy integers become ints, so a ** d cannot wrap.
    p, a, k = p.__index__(), a.__index__(), k.__index__()
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    if a == 1 or (a == -1 and k % 2 == 0):
        raise ZeroFormError(f"({a})^{k} - 1 is zero")
    if p == 2:
        if k % 2 == 1:
            return int(valuation(a - 1, p))
        return int(valuation(a - 1, p) + valuation(a + 1, p)
                   + valuation(k, p) - 1)
    d = multiplicative_order(a, p)
    if k % d != 0:
        return 0
    return int(valuation(a ** d - 1, p) + valuation(k // d, p))


def _ratio(v: int, l1: int, l2: int, b: int) -> float:
    return v / (math.log2(max(abs(l1), abs(l2), 3)) * math.log2(max(abs(b), 3)))


@dataclass(frozen=True)
class ScanReport:
    """Aggregate results of a coefficient/exponent sweep."""

    p: int
    p_other: int
    l_max: int
    b_max: int
    examined: int
    skipped_mismatched: int
    skipped_zero: int
    max_ord: int
    max_ord_at: tuple[int, int, int]
    max_ratio: float
    max_ratio_at: tuple[int, int, int]
    csv_path: str | None = None


def linear_form_scan(p: int, p_other: int, l_max: int, b_max: int,
                     csv_path: str | None = None) -> ScanReport:
    """Sweep ord_p(l1 * p_other**b - l2) over 0 < |l1|, l2 <= l_max, b <= b_max.

    Negative l2 are omitted: negating both coefficients flips the sign of the
    form and leaves the valuation unchanged, so the (l1, l2) half-plane with
    l2 > 0 already covers every distinct instance.  Pairs with mismatched
    p-valuations and exact zeros are counted and skipped.  When csv_path is
    given, a row (l1, l2, b, ord, ratio) is written for every instance of
    ord >= 1.
    """
    for q in (p, p_other):
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
    if p == p_other:
        raise ValueError("the two primes must be distinct")
    if l_max < 1 or b_max < 1:
        raise ValueError("l_max and b_max must be >= 1")
    # numpy integers become ints, so p_other ** b cannot wrap.
    p, p_other = p.__index__(), p_other.__index__()

    vals = {l: valuation(l, p) for l in range(1, l_max + 1)}
    coeff1 = sorted(
        [l for l in range(-l_max, l_max + 1) if l != 0],
        key=lambda l: (abs(l), l < 0),
    )

    examined = 0
    skipped_mismatched = 0
    skipped_zero = 0
    max_ord = -1
    max_ord_at = (0, 0, 0)
    max_ratio = -1.0
    max_ratio_at = (0, 0, 0)

    writer = None
    handle = None
    if csv_path is not None:
        handle = open(csv_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(handle)
        writer.writerow(["l1", "l2", "b", "ord", "ratio"])

    try:
        power = 1
        for b in range(1, b_max + 1):
            power *= p_other
            for l1 in coeff1:
                v1 = vals[abs(l1)]
                lead = l1 * power
                for l2 in range(1, l_max + 1):
                    if vals[l2] != v1:
                        skipped_mismatched += 1
                        continue
                    xi = lead - l2
                    if xi == 0:
                        skipped_zero += 1
                        continue
                    examined += 1
                    v = 0
                    while xi % p == 0:
                        xi //= p
                        v += 1
                    if v > max_ord:
                        max_ord = v
                        max_ord_at = (l1, l2, b)
                    if v > 0:
                        ratio = _ratio(v, l1, l2, b)
                        if ratio > max_ratio:
                            max_ratio = ratio
                            max_ratio_at = (l1, l2, b)
                        if writer is not None:
                            writer.writerow([l1, l2, b, v, repr(ratio)])
    finally:
        if handle is not None:
            handle.close()

    if max_ratio < 0.0:
        max_ratio = 0.0
        max_ratio_at = max_ord_at
    return ScanReport(
        p=p, p_other=p_other, l_max=l_max, b_max=b_max,
        examined=examined, skipped_mismatched=skipped_mismatched,
        skipped_zero=skipped_zero, max_ord=max_ord, max_ord_at=max_ord_at,
        max_ratio=max_ratio, max_ratio_at=max_ratio_at, csv_path=csv_path,
    )
