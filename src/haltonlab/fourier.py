"""Exponential-sum route to the decomposition terms and its tiny-scale audits.

Each decomposition layer equals a finite Fourier sum over the nonzero signed
residues m mod P: a window coefficient (normalized geometric sum over the
index range), a per-axis digit-cell factor, and a corner phase.  On top of
that sit the digit-split of a frequency into signed windows, the spread-cell
label lam of a pair of depth pairs, the exact second-moment block integral with
its harmonic majorant, and the windowed/unconstrained resonance sums.

Phases are reduced exactly, in integers mod P, and then evaluated with one
vectorised trigonometric pass per frequency array: a layer sums its P - 1
frequencies over int64 and float64 arrays of up to 4096 entries.  Residue
products stay inside int64 for P < 2^31; larger moduli raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .radical import BasisPair
from .residue import (
    TruncIndex,
    _box_class,
    _check_corner,
    _check_window,
    _corner_digits,
    crt_inverses,
    signed_rep,
    signed_residues,
)
from .discrepancy import _cell_class_sum

TINY_SCALE_CAP = 4

# Frequency arrays hold residues below P and multipliers |m| <= P/2, so every
# product stays below P^2 < 2^62, inside int64, for P below this cap.
PHASE_MODULUS_CAP = 1 << 31
# Frequencies per array in a layer sum, so temporaries stay small at any P.
FREQUENCY_BLOCK = 1 << 12

DepthPair = tuple[TruncIndex, TruncIndex]


def _check_phase_modulus(P: int) -> None:
    if P >= PHASE_MODULUS_CAP:
        raise ValueError(f"modulus {P} is not below 2^31: residue products "
                         f"would overflow int64")


def _half_turns(k: np.ndarray, P: int) -> np.ndarray:
    """exp(i*pi*k/P) for integers k already reduced exactly."""
    return np.exp(1j * np.pi * (k / P))


def _window_terms(P: int, q_start: int, n_count: int, m: np.ndarray,
                  shift: int = 0) -> np.ndarray:
    """phi(m) * e(-m*shift/P) for an int64 array of nonzero signed residues m.

    phi(m) = e(m*q/P) * (e(m*N/P) - 1) / (P * (e(m/P) - 1)) and
    e(a/P) - 1 = 2i*sin(pi*a/P)*exp(i*pi*a/P) for every representative a,
    so the term is sin(pi*a/P) / (P*sin(pi*m/P)) * exp(i*pi*k/P) with a the
    signed residue of m*N mod P and k = 2*m*(q - shift) + a - m mod 2P.
    """
    a = signed_rep(m * (n_count % P), P)
    k = (2 * (m * ((q_start - shift) % P) % P) + a - m) % (2 * P)
    return (np.sin(np.pi * (a / P)) / (P * np.sin(np.pi * (m / P)))
            * _half_turns(k, P))


def window_fourier_coefficient(r: TruncIndex, q_start: int, n_count: int,
                               m: int, bases: BasisPair | Sequence[int]
                               ) -> complex:
    """(1/P) * sum over k in [q_start, q_start + n_count) of e(m*k/P).

    Evaluated by the closed-form geometric sum with exact phase reduction.
    The magnitude never exceeds 1/max(1, |m|) for m in the signed window.
    """
    rd = crt_inverses(BasisPair.of(bases), r)
    if m == 0 or m not in signed_residues(rd.P):
        raise ValueError(f"m must be a nonzero signed residue mod {rd.P}, got {m}")
    _check_window(q_start, n_count)
    _check_phase_modulus(rd.P)
    return complex(_window_terms(rd.P, q_start, n_count,
                                 np.array([m], dtype=np.int64))[0])


@lru_cache(maxsize=256)
def _axis_cell_table(p: int, last_digit: int) -> np.ndarray:
    """Digit-cell factor per class c of (m * M) mod p, for one axis.

    Entry c holds sum over b < last_digit of e(c * (last_digit - b) / p).
    The array is shared by every caller, so it is read-only.
    """
    c = np.arange(p, dtype=np.int64)[:, None]
    j = np.arange(1, last_digit + 1, dtype=np.int64)[None, :]
    table = _half_turns(2 * c * j % (2 * p), p).sum(axis=1)
    table.setflags(write=False)
    return table


def cell_fourier_factor(r: TruncIndex, m: int, x: Sequence,
                        bases: BasisPair | Sequence[int]) -> complex:
    """Product over axes of the digit-cell factor at the corner's last digits.

    Magnitude is at most p1*p2; it vanishes when either last digit is 0.
    """
    bp = BasisPair.of(bases)
    _check_corner(x, r)
    rd = crt_inverses(bp, r)
    if m not in signed_residues(rd.P):
        raise ValueError(f"m must be a signed residue mod {rd.P}, got {m}")
    t1, t2 = _corner_digits(x, bp.as_tuple(), r)
    f1 = _axis_cell_table(bp.p1, t1 % bp.p1)[(m * rd.M1) % bp.p1]
    f2 = _axis_cell_table(bp.p2, t2 % bp.p2)[(m * rd.M2) % bp.p2]
    return complex(f1 * f2)


def decomposition_term_fourier(x: Sequence, r: TruncIndex, q_start: int,
                               n_count: int,
                               bases: BasisPair | Sequence[int]) -> complex:
    """Fourier evaluation of one decomposition layer.

    Sums the P - 1 frequencies in one pass over int64 and float arrays,
    a block of them at a time; needs P < 2^31.  Agrees with the direct
    counting route up to floating round-off; the imaginary part is
    round-off only.
    """
    bp = BasisPair.of(bases)
    _check_corner(x, r)
    r1, r2 = r
    if r1 < 1 or r2 < 1:
        raise ValueError(f"layer depths must be >= 1, got {r}")
    _check_window(q_start, n_count)
    rd = crt_inverses(bp, r)
    _check_phase_modulus(rd.P)
    lead1, lead2 = _corner_digits(x, bp.as_tuple(), r)
    d1, d2 = lead1 % bp.p1, lead2 % bp.p2
    if d1 == 0 or d2 == 0:
        return 0j
    P = rd.P
    t1, t2 = _axis_cell_table(bp.p1, d1), _axis_cell_table(bp.p2, d2)
    corner = _box_class(lead1, lead2, rd)
    window = signed_residues(P)
    total = 0j
    for lo in range(window.start, window.stop, FREQUENCY_BLOCK):
        m = np.arange(lo, min(lo + FREQUENCY_BLOCK, window.stop), dtype=np.int64)
        m = m[m != 0]
        psi = (t1[m * (rd.M1 % bp.p1) % bp.p1]
               * t2[m * (rd.M2 % bp.p2) % bp.p2])
        total += complex((_window_terms(P, q_start, n_count, m, corner)
                          * psi).sum())
    return total


# ---------------------------------------------------------------------------
# digit split of a frequency pair into signed windows

@dataclass(frozen=True)
class DigitSplit:
    """Unique signed-window decomposition of the folded frequencies.

    hat_m[i] is the folded frequency of axis i in [0, p_i^t_i) where t_i is
    the larger of the two depths on that axis.  mm[i][j] is the coefficient
    attached to pair member j (0-based); windows[i][j] is the modulus of its
    signed window.  order[i] = (k1, k2) gives the members holding the smaller
    and larger depth (ties resolved to (0, 1)).
    """

    hat_m: tuple[int, int]
    mm: tuple[tuple[int, int], tuple[int, int]]
    windows: tuple[tuple[int, int], tuple[int, int]]
    order: tuple[tuple[int, int], tuple[int, int]]


def _split_axis(mhat, p: int, rplus: int, rminus: int):
    """Split mhat mod p^rplus as low*p^(rplus-rminus) + high.

    high lies in the signed window mod p^(rplus-rminus) and low in the signed
    window mod p^rminus; the pair is unique.  Returns (low, high): low is the
    coefficient of the smaller-depth member, high of the larger-depth member.
    mhat may be an int or an integer numpy array.
    """
    sgap = p ** (rplus - rminus)
    high = signed_rep(mhat, sgap)
    low = signed_rep((mhat - high) // sgap, p ** rminus)
    return low, high


@lru_cache(maxsize=4096)
def _fold_plan(p1: int, p2: int, r_pair: DepthPair):
    """Moduli P_j and per-axis fold constants of a depth pair.

    Axis i gets (p, rplus, rminus, k1, k2, weights) with
    weights[j] = M_j * p^(rplus - r_j): the fold of (m1, m2) on that axis is
    m1*weights[0] + m2*weights[1].
    """
    rds = (crt_inverses((p1, p2), r_pair[0]), crt_inverses((p1, p2), r_pair[1]))
    axes = []
    for i, p in enumerate((p1, p2)):
        t = (r_pair[0][i], r_pair[1][i])
        rplus, rminus = max(t), min(t)
        k2 = 0 if t[0] > t[1] else 1
        inv = ((rds[0].M1, rds[1].M1) if i == 0 else (rds[0].M2, rds[1].M2))
        weights = (inv[0] * p ** (rplus - t[0]), inv[1] * p ** (rplus - t[1]))
        axes.append((p, rplus, rminus, 1 - k2, k2, weights))
    return (rds[0].P, rds[1].P), tuple(axes)


def _plan_of(bases: BasisPair | Sequence[int], r_pair: DepthPair):
    bp = BasisPair.of(bases)
    return _fold_plan(bp.p1, bp.p2, (tuple(r_pair[0]), tuple(r_pair[1])))


def digit_split(m1: int, m2: int, r_pair: DepthPair,
                bases: BasisPair | Sequence[int]) -> DigitSplit:
    """Fold (m1, m2) per axis and split each fold into its signed windows."""
    moduli, axes = _plan_of(bases, r_pair)
    for m, P in zip((m1, m2), moduli):
        if m == 0 or m not in signed_residues(P):
            raise ValueError(
                f"frequency {m} outside the nonzero signed window mod {P}"
            )
    hat_list, mm_list, win_list, order_list = [], [], [], []
    for p, rplus, rminus, k1, k2, weights in axes:
        q = p ** rplus
        mhat = (-(m1 * weights[0] + m2 * weights[1])) % q
        low, high = _split_axis(mhat, p, rplus, rminus)
        mm = [0, 0]
        win = [0, 0]
        mm[k1], mm[k2] = low, high
        win[k1], win[k2] = p ** rminus, p ** (rplus - rminus)
        hat_list.append(mhat)
        mm_list.append(tuple(mm))
        win_list.append(tuple(win))
        order_list.append((k1, k2))
    return DigitSplit(
        hat_m=tuple(hat_list),
        mm=tuple(mm_list),
        windows=tuple(win_list),
        order=tuple(order_list),
    )


def combined_frequency(m1: int, m2: int, mm_pair: tuple[int, int],
                       r_pair: DepthPair, bases: BasisPair | Sequence[int],
                       axis: int) -> int:
    """Fold mm and (m1, m2) on one axis: sum of (mm_j + m_j*M_j)*p^(t - r_j).

    When mm comes from digit_split of (m1, m2), the result is divisible by
    p^t where t is the axis's larger depth.
    """
    p, rplus, _, _, _, weights = _plan_of(bases, r_pair)[1][axis]
    t = (r_pair[0][axis], r_pair[1][axis])
    return (mm_pair[0] * p ** (rplus - t[0]) + m1 * weights[0]
            + mm_pair[1] * p ** (rplus - t[1]) + m2 * weights[1])


# ---------------------------------------------------------------------------
# depth-pair partitions

def partition_label(br_1: TruncIndex, br_2: TruncIndex, v_threshold: int,
                    vv_threshold: int) -> tuple[int, int] | None:
    """The spread cell lam of a pair of depth pairs, or None when either lies
    in the cut box."""
    for br in (br_1, br_2):
        if max(br) <= v_threshold:
            return None
    return tuple(1 if abs(br_1[i] - br_2[i]) > vv_threshold else 0
                 for i in range(2))


def _partition_pairs(lam: tuple[int, int], n: int, v_threshold: int,
                     vv_threshold: int) -> list[DepthPair]:
    if n > TINY_SCALE_CAP:
        raise ValueError(f"n = {n} exceeds the tiny-scale cap {TINY_SCALE_CAP}")
    depths = list(product(range(1, n + 1), repeat=2))
    return [(br_1, br_2) for br_1, br_2 in product(depths, repeat=2)
            if partition_label(br_1, br_2, v_threshold, vv_threshold) == lam]


# ---------------------------------------------------------------------------
# tiny-scale audits: exact block integral vs harmonic majorant

def _layer_table(br: TruncIndex, q_start: int, n_count: int,
                 bp: BasisPair) -> dict[tuple[int, int], Fraction]:
    """Exact layer value per digit prefix, indexed by per-axis digit codes."""
    rd = crt_inverses(bp, br)
    return {(code1, code2): _cell_class_sum(code1, code2, rd, q_start, n_count)
            for code1 in range(bp.p1 ** br[0])
            for code2 in range(bp.p2 ** br[1])}


def second_moment_block(lam: tuple[int, int], n_count: int, q_start: int,
                        bases: BasisPair | Sequence[int], n: int,
                        v_threshold: int, vv_threshold: int
                        ) -> tuple[float, float]:
    """Exact |block integral| of layer products against its harmonic majorant.

    The left side integrates, over the unit square, the sum of layer products
    across all depth pairs in the lam cell; the integral is a finite average
    over joint digit grids, evaluated exactly.  The right side is the
    quadruple harmonic sum: for each frequency pair, 1/(|m1|*|m2|) times the
    product of reciprocal split-coefficient magnitudes.  Returns (lhs, rhs).
    """
    bp = BasisPair.of(bases)
    _check_window(q_start, n_count)
    pairs = _partition_pairs(tuple(lam), n, v_threshold, vv_threshold)
    if not pairs:
        return (0.0, 0.0)
    p1, p2 = bp.as_tuple()

    tables = {br: _layer_table(br, q_start, n_count, bp)
              for br in {br for pair in pairs for br in pair}}

    lhs = Fraction(0)
    rhs = 0.0
    for br_1, br_2 in pairs:
        g1, g2 = p1 ** max(br_1[0], br_2[0]), p2 ** max(br_1[1], br_2[1])
        tb1, tb2 = tables[br_1], tables[br_2]
        q11, q21 = p1 ** br_1[0], p2 ** br_1[1]
        q12, q22 = p1 ** br_2[0], p2 ** br_2[1]
        acc = Fraction(0)
        for code1 in range(g1):
            for code2 in range(g2):
                acc += (tb1[(code1 % q11, code2 % q21)]
                        * tb2[(code1 % q12, code2 % q22)])
        lhs += Fraction(acc, g1 * g2)
        rhs += _majorant_pair(bp, (br_1, br_2))
    return (abs(float(lhs)), rhs)


def _axis_split_weights(p: int, rplus: int, rminus: int,
                        cap: float = math.inf) -> np.ndarray:
    """Reciprocal split magnitudes per folded frequency class on one axis.

    A class whose split has a coefficient above cap in magnitude gets 0.
    """
    low, high = _split_axis(np.arange(p ** rplus, dtype=np.int64), p, rplus,
                            rminus)
    low, high = np.abs(low), np.abs(high)
    return np.where((low <= cap) & (high <= cap),
                    1.0 / (np.maximum(1, low) * np.maximum(1, high)), 0.0)


def _class_sums(values: np.ndarray, modulus: int) -> np.ndarray:
    """Sum of 1/max(1, |v|) over the values v in each class mod modulus."""
    return np.bincount(values % modulus,
                       weights=1.0 / np.maximum(1, np.abs(values)),
                       minlength=modulus)


def _fold_grid_sums(axes, pplus: int, w0: np.ndarray, w1: np.ndarray,
                    *axis_weights) -> list[float]:
    """Sum of w0[c1]*w1[c2]*s0[fold0]*s1[fold1] over all classes c1, c2 mod
    pplus, once per pair (s0, s1) of per-axis weight arrays.

    fold_i is the folded-frequency class of (c1, c2) on axis i, built once.
    """
    c = np.arange(pplus, dtype=np.int64)
    folds = []
    for p, rplus, _, _, _, weights in axes:
        q = p ** rplus
        folds.append((((-(weights[0] * c)) % q)[:, None]
                      + ((-(weights[1] * c)) % q)[None, :]) % q)
    outer = w0[:, None] * w1[None, :]
    return [float((outer * s0[folds[0]] * s1[folds[1]]).sum())
            for s0, s1 in axis_weights]


def _majorant_pair(bp: BasisPair, pair: DepthPair) -> float:
    moduli, axes = _plan_of(bp, pair)
    pplus = math.prod(p ** rplus for p, rplus, *_ in axes)
    ws = []
    for P in moduli:
        window = signed_residues(P)
        ms = np.arange(window.start, window.stop, dtype=np.int64)
        ws.append(_class_sums(ms[ms != 0], pplus))
    split_w = [_axis_split_weights(p, rplus, rminus)
               for p, rplus, rminus, *_ in axes]
    return _fold_grid_sums(axes, pplus, ws[0], ws[1], split_w)[0]


def resonance_sums(lam: tuple[int, int], bases: BasisPair | Sequence[int],
                   n: int, v_threshold: int, vv_threshold: int,
                   m_cap: int | None = None) -> tuple[float, float]:
    """Windowed and unconstrained harmonic sums over resonant frequencies.

    Both sums run over frequency pairs (m1, m2) with 0 < |m_j| <= m_cap and
    per-axis coefficient pairs whose fold is divisible by the axis modulus
    p_i^t_i, weighting each solution by the reciprocal magnitudes.  The
    windowed sum restricts coefficients to their signed windows (at most one
    solution per axis); the unconstrained sum lets them range over the whole
    +-m_cap box.  Windowed <= unconstrained always.  Returns the pair.
    """
    bp = BasisPair.of(bases)
    if m_cap is None:
        m_cap = min(n ** 10, 10 ** 4)
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    pairs = _partition_pairs(tuple(lam), n, v_threshold, vv_threshold)
    if not pairs:
        return (0.0, 0.0)
    star_total = sharp_total = 0.0
    box = np.arange(-m_cap, m_cap + 1, dtype=np.int64)
    nz = box[box != 0]
    for pair in pairs:
        axes = _plan_of(bp, pair)[1]
        pplus = math.prod(p ** rplus for p, rplus, *_ in axes)
        w_m = _class_sums(nz, pplus)
        s_star, s_sharp = [], []
        for p, rplus, rminus, *_ in axes:
            q = p ** rplus
            g = _class_sums(box, q)
            # sharp[t] = sum over d of g[d] * g[(t - d * p^(rplus-rminus)) % q]
            d = np.arange(q, dtype=np.int64)
            shifted = (d[None, :] - d[:, None] * p ** (rplus - rminus)) % q
            s_sharp.append((g[:, None] * g[shifted]).sum(axis=0))
            s_star.append(_axis_split_weights(p, rplus, rminus, m_cap))
        star, sharp = _fold_grid_sums(axes, pplus, w_m, w_m, s_star, s_sharp)
        star_total, sharp_total = star_total + star, sharp_total + sharp
    return (star_total, sharp_total)
