"""Fourier route for the layers, digit splits, partitions, and tiny-scale audits."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from haltonlab import (
    BasisPair,
    count_in_class,
    crt_inverses,
    decomposition_term,
    decomposition_term_fourier,
    digit_split,
    partition_label,
    resonance_sums,
    second_moment_block,
    signed_residues,
)
from haltonlab import fourier

from oracles import (
    fold_axis,
    naive_pair_majorant,
    naive_resonance,
    term_fourier_by_loop,
    window_split_search,
)
from oracles import _pair_axis_geometry

F = Fraction


def _e(t):
    return cmath.exp(2j * cmath.pi * float(t))


def _nonzero(M):
    """The signed residue window mod M without 0."""
    return [m for m in signed_residues(M) if m]


# ---------------------------------------------------------------------------
# the window coefficient phi, swept over the nonzero signed window

def _phi(r, q_start, n_count, bases=(2, 3)):
    """phi(m) for every nonzero signed residue m mod P, and those m."""
    P = crt_inverses(bases, r).P
    m = np.array(_nonzero(P), dtype=np.int64)
    return fourier._window_terms(P, q_start, n_count, m, 0), m


def test_phi_vanishes_over_full_periods():
    for mult in (1, 2, 5):
        z, _ = _phi((1, 1), 0, 6 * mult)
        assert np.all(z == 0j)


def test_phi_single_point_magnitude():
    z, _ = _phi((2, 1), 9, 1)
    assert np.all(np.abs(np.abs(z) - 1 / 12) < 1e-12)


def test_phi_frozen_half_period_value():
    z, m = _phi((1, 1), 0, 3)
    assert abs(abs(z[m == 1][0]) - F(1, 3)) < 1e-12


def test_phi_magnitude_bound():
    for r, P in (((1, 1), 6), ((2, 1), 12), ((2, 2), 36)):
        for n in (1, 2, 3, 7, P - 1, P + 5, 2 * P - 1):
            for q in (0, 3, 7):
                z, m = _phi(r, q, n)
                assert np.all(np.abs(z) <= 1 / np.abs(m) + 1e-12)


def test_phi_completeness_identity():
    # Indicator of a residue class on [Q, Q+N) recovered from the window sums.
    for r in ((1, 1), (2, 1), (1, 2)):
        P = crt_inverses((2, 3), r).P
        for q, n in ((0, 5), (7, 11), (100, 2 * P + 3)):
            phi, m = _phi(r, q, n)
            for cls in range(0, P, max(1, P // 5)):
                turns = np.array([_e(F((-k * cls) % P, P))
                                  for k in m.tolist()])
                acc = n / P + (phi * turns).real.sum()
                assert abs(acc - count_in_class(cls, q, n, P)) < 1e-10


# ---------------------------------------------------------------------------
# the digit-cell factor psi, swept over the signed window

def _psi(r, x, bases=(2, 3)):
    """psi(m) at corner x for every signed residue m mod P, 0 included."""
    rd = crt_inverses(bases, r)
    m = np.array(signed_residues(rd.P), dtype=np.int64)
    out = 1
    for xi, p, ri, M in zip(x, bases, r, (rd.M1, rd.M2)):
        table = fourier._axis_cell_table(p, int(xi * p ** ri) % p)
        out = out * table[m * M % p]
    return out


def test_psi_zero_when_last_digit_zero():
    assert np.all(_psi((1, 1), (F(1, 4), F(1, 3))) == 0j)


def test_psi_unit_digit_gives_unit_factors():
    z = _psi((1, 1), (F(1, 2), F(1, 3)))
    assert np.all(np.abs(np.abs(z) - 1) < 1e-12)


def test_psi_magnitude_bound_exhaustive():
    for d1 in range(2):
        for d2 in range(3):
            z = _psi((1, 1), (F(d1, 2), F(d2, 3)))
            assert np.all(np.abs(z) <= 6 + 1e-12)


# ---------------------------------------------------------------------------
# layer values by Fourier summation vs direct counting

def _small_depth_pairs(limit, bases=(2, 3)):
    p1, p2 = bases
    out = []
    r1 = 1
    while p1 ** r1 * p2 <= limit:
        r2 = 1
        while p1 ** r1 * p2 ** r2 <= limit:
            out.append((r1, r2))
            r2 += 1
        r1 += 1
    return out


def test_fourier_layer_matches_counting():
    rng = random.Random(60913)
    for r in _small_depth_pairs(200):
        P = 2 ** r[0] * 3 ** r[1]
        for _ in range(5):
            q = rng.randrange(0, 10 ** 6)
            n = rng.randrange(1, 2048)
            den = rng.randrange(1, 10 ** 4)
            x = (F(rng.randrange(0, den), den),
                 F(rng.randrange(0, den), den))
            z = decomposition_term_fourier(x, r, q, n, (2, 3))
            c = decomposition_term(x, r, q, n, (2, 3))
            assert abs(z - float(c)) <= 1e-8 * P


def test_fourier_layer_zero_cases():
    assert decomposition_term_fourier(
        (F(1, 4), F(1, 3)), (1, 1), 0, 10, (2, 3)) == 0j
    # Full periods: every phi vanishes.
    z = decomposition_term_fourier((F(1, 2), F(1, 3)), (1, 1), 0, 12, (2, 3))
    assert abs(z) < 1e-12
    with pytest.raises(ValueError):
        decomposition_term_fourier((F(1, 2), F(1, 3)), (1, 0), 0, 5, (2, 3))


def test_fourier_layer_rejects_empty_and_negative_windows():
    x = (F(1, 2), F(1, 3))
    for q, n in ((0, 0), (0, -5), (-3, 10), (0, 5.5), (0.5, 5), (0, 5.0)):
        with pytest.raises(ValueError):
            decomposition_term_fourier(x, (2, 2), q, n, (2, 3))


def _corner_with_nonzero_last_digits(rng, r, bases):
    """A corner whose last kept digit at depth r_i is nonzero on both axes."""
    x = []
    for p, ri in zip(bases, r):
        lead = rng.randrange(0, p ** (ri - 1)) * p + rng.randrange(1, p)
        den = rng.randrange(1, 10 ** 6)
        x.append(F(lead * den + rng.randrange(0, den), den * p ** ri))
    return tuple(x)


@pytest.mark.parametrize("bases", [(2, 3), (2, 5)])
def test_fourier_layer_matches_loop_oracle(bases):
    # Every depth pair with P <= 10^4, at offsets up to 10^18 and counts
    # 1..1024: the array route against the per-frequency Fraction loop
    # and against direct counting.
    rng = random.Random(1101)
    for i, r in enumerate(_small_depth_pairs(10 ** 4, bases)):
        P = bases[0] ** r[0] * bases[1] ** r[1]
        counts = (1, 1024, rng.randrange(2, 1024), rng.randrange(2, 1024))
        for j, offset in enumerate((0, 10 ** 6, None, 10 ** 18)):
            n = counts[(i + j) % 4]
            q = 10 ** 9 - n if offset is None else offset
            x = _corner_with_nonzero_last_digits(rng, r, bases)
            z = decomposition_term_fourier(x, r, q, n, bases)
            assert abs(z - term_fourier_by_loop(x, r, q, n, bases)) <= 1e-12 * P
            c = decomposition_term(x, r, q, n, bases)
            assert abs(z - float(c)) <= 1e-8 * P


def test_fourier_layer_rejects_moduli_beyond_int64_products(monkeypatch):
    # P = 2^20 * 3^7 > 2^31.  The bound is checked before any array is
    # built, so the call raises even with numpy out of the module's reach.
    monkeypatch.setattr(fourier, "np", None)
    x = (F(1, 2), F(1, 3))
    with pytest.raises(ValueError, match="2\\^31"):
        decomposition_term_fourier(x, (20, 7), 0, 5, (2, 3))


# ---------------------------------------------------------------------------
# digit split of frequency pairs

def _check_split_against_oracle(m1s, m2s, r_pair, bases):
    """Split whole arrays at once; match each pair against the scalar split
    and the exhaustive window search."""
    m1a = np.array(m1s, dtype=np.int64)
    m2a = np.array(m2s, dtype=np.int64)
    hat_m, mm = digit_split(m1a, m2a, r_pair, bases)
    for axis in range(2):
        p = bases[axis]
        q, rplus, rminus, mults = _pair_axis_geometry(
            bases, r_pair[0], r_pair[1], axis)
        k2 = 0 if r_pair[0][axis] > r_pair[1][axis] else 1
        sgap = p ** (rplus - rminus)
        for i, (m1, m2) in enumerate(zip(m1s, m2s)):
            mhat = fold_axis(m1, m2, q, mults)
            lo, hi = window_split_search(mhat, p, rplus, rminus)
            assert hat_m[axis][i] == mhat
            assert (mm[axis][1 - k2][i], mm[axis][k2][i]) == (lo, hi)
            scalar_hat, scalar_mm = digit_split(m1, m2, r_pair, bases)
            assert scalar_hat[axis] == mhat
            assert scalar_mm[axis] == (mm[axis][0][i], mm[axis][1][i])
            # Reconstruction: the split recombines to the fold.
            assert (lo * sgap + hi - mhat) % q == 0


def _window_pairs(r_pair):
    """Every nonzero frequency pair of the two layer moduli, as two lists."""
    P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
    P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
    pairs = list(product(_nonzero(P1), _nonzero(P2)))
    return [m1 for m1, _ in pairs], [m2 for _, m2 in pairs]


def test_digit_split_exhaustive_small_moduli():
    for r_pair in ((((1, 1)), ((1, 1))), (((1, 1)), ((2, 1))),
                   (((2, 1)), ((1, 2))), (((2, 2)), ((1, 1)))):
        _check_split_against_oracle(*_window_pairs(r_pair), r_pair, (2, 3))


def test_digit_split_seeded_larger_moduli():
    rng = random.Random(271828)
    depth_pairs = [((3, 2), (2, 3)), ((4, 1), (2, 2)), ((1, 3), (3, 1)),
                   ((4, 3), (4, 3))]
    for r_pair in depth_pairs:
        P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
        P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
        w1 = _nonzero(P1)
        w2 = _nonzero(P2)
        picks = [(rng.choice(w1), rng.choice(w2)) for _ in range(40)]
        _check_split_against_oracle([m1 for m1, _ in picks],
                                    [m2 for _, m2 in picks], r_pair, (2, 3))


def test_digit_split_equal_pair_fold():
    # Same depths, same frequency: the fold is -2 m M_i per axis, and on a
    # tie member 0 takes the whole split (member 1's window is mod 1).
    r = (2, 1)
    rd = crt_inverses((2, 3), r)
    m = np.array([1, 2, 5, -4], dtype=np.int64)
    hat_m, mm = digit_split(m, m, (r, r), (2, 3))
    assert np.array_equal(hat_m[0], (-2 * m * rd.M1) % 4)
    assert np.array_equal(hat_m[1], (-2 * m * rd.M2) % 3)
    assert not np.any(mm[0][1]) and not np.any(mm[1][1])


def test_digit_split_zero_fold_gives_zero_coefficients():
    assert digit_split(3, 3, ((1, 1), (1, 1)), (2, 3)) == ((0, 0),
                                                           ((0, 0), (0, 0)))


def test_digit_split_window_rejection():
    r_pair = ((1, 1), (1, 1))
    for m1 in (0, 4, np.array([1, 0]), np.array([[1], [-3]])):
        with pytest.raises(ValueError, match="signed window mod 6"):
            digit_split(m1, 1, r_pair, (2, 3))
        with pytest.raises(ValueError, match="signed window mod 6"):
            digit_split(1, m1, r_pair, (2, 3))


def test_digit_split_fold_divisibility():
    # The combined frequency sum_j (mm_j * p^(t - r_j) + m_j * M_j * p^(t - r_j))
    # on an axis of larger depth t is divisible by p^t.  The multipliers come
    # from brute-force inverses, not from the library's CRT code.
    rng = random.Random(1618)
    depth_pairs = [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((3, 2), (2, 2)),
                   ((1, 3), (4, 1))]
    for r_pair in depth_pairs:
        P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
        P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
        w1 = _nonzero(P1)
        w2 = _nonzero(P2)
        picks = [(rng.choice(w1), rng.choice(w2)) for _ in range(25)]
        m1 = np.array([m for m, _ in picks])
        m2 = np.array([m for _, m in picks])
        _, mm = digit_split(m1, m2, r_pair, (2, 3))
        for axis, p in ((0, 2), (1, 3)):
            q, rplus, _, mults = _pair_axis_geometry(
                (2, 3), r_pair[0], r_pair[1], axis)
            scale = [p ** (rplus - r_pair[j][axis]) for j in range(2)]
            total = (mm[axis][0] * scale[0] + m1 * mults[0]
                     + mm[axis][1] * scale[1] + m2 * mults[1])
            assert np.all(total % q == 0)


# ---------------------------------------------------------------------------
# partitions of depth-pair space

def test_partition_label_equal_pairs():
    assert partition_label((3, 2), (3, 2), 1, 0) == (0, 0)


def test_partition_label_cut_box():
    assert partition_label((1, 1), (5, 5), 1, 0) is None
    assert partition_label((5, 5), (1, 1), 1, 0) is None
    assert partition_label((2, 1), (5, 5), 1, 0) is not None


def test_partition_cells_disjoint_and_cover():
    n, v, vv = 3, 1, 0
    depths = [(r1, r2) for r1 in range(1, n + 1) for r2 in range(1, n + 1)]
    live = [br for br in depths if max(br) > v]
    hits = 0
    for br_1 in depths:
        for br_2 in depths:
            lbl = partition_label(br_1, br_2, v, vv)
            if br_1 in live and br_2 in live:
                assert lbl is not None
                hits += 1
            else:
                assert lbl is None
    assert hits == len(live) ** 2


def test_partition_counts_small_enumeration():
    # n = 3, thresholds (0, 1): spreads over {0,1,2}, flagged only at 2.
    counts = {}
    for r11 in range(1, 4):
        for r21 in range(1, 4):
            for r12 in range(1, 4):
                for r22 in range(1, 4):
                    lam = partition_label((r11, r21), (r12, r22), 0, 1)
                    counts[lam] = counts.get(lam, 0) + 1
    assert counts == {(0, 0): 49, (1, 0): 14, (0, 1): 14, (1, 1): 4}


# ---------------------------------------------------------------------------
# tiny-scale second-moment audits

def _cell_pairs(lam, n, v, vv):
    depths = [(r1, r2) for r1 in range(1, n + 1) for r2 in range(1, n + 1)]
    out = []
    for br_1 in depths:
        for br_2 in depths:
            if partition_label(br_1, br_2, v, vv) == lam:
                out.append((br_1, br_2))
    return out


def _grid_lhs(lam, n_count, q_start, bases, n, v, vv):
    """Independent route: average layer products over joint digit grids."""
    total = Fraction(0)
    for br_1, br_2 in _cell_pairs(lam, n, v, vv):
        t1 = max(br_1[0], br_2[0])
        t2 = max(br_1[1], br_2[1])
        g1 = bases[0] ** t1
        g2 = bases[1] ** t2
        acc = Fraction(0)
        for j1 in range(g1):
            for j2 in range(g2):
                x = (F(j1, g1), F(j2, g2))
                acc += (decomposition_term(x, br_1, q_start, n_count, bases)
                        * decomposition_term(x, br_2, q_start, n_count, bases))
        total += Fraction(acc, g1 * g2)
    return abs(float(total))


# The fold weights M_j * p^(t - r_j) depend on the bases, so the naive
# comparisons run at three base pairs, each with its largest depths n.  At
# (3, 5) the oracles' window search spends about 11 s at n = 3, so the
# depth gap 2 that n = 3 brings is covered at (2, 3) and (2, 5) only.
MOMENT_BASES = [((2, 3), (2, 3)), ((2, 5), (2, 3)), ((3, 5), (2,))]
MOMENT_IDS = ["2,3", "2,5", "3,5"]


@pytest.mark.parametrize("q_start", [0, 7, 10 ** 6, 10 ** 12])
@pytest.mark.parametrize("bases, ns", MOMENT_BASES, ids=MOMENT_IDS)
def test_second_moment_lhs_matches_grid_average(bases, ns, q_start):
    # Both sides are abs(float()) of the same exact rational.
    for lam in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for n_count in (1, 2, 3):
            lhs, _ = second_moment_block(lam, n_count, q_start, bases, 2, 0, 0)
            assert lhs == _grid_lhs(lam, n_count, q_start, bases, 2, 0, 0)


@pytest.mark.parametrize("bases, ns", MOMENT_BASES, ids=MOMENT_IDS)
def test_second_moment_rhs_matches_naive_majorant(bases, ns):
    for lam in ((0, 0), (1, 1)):
        _, rhs = second_moment_block(lam, 2, 0, bases, 2, 0, 0)
        want = sum(naive_pair_majorant(bases, br_1, br_2)
                   for br_1, br_2 in _cell_pairs(lam, 2, 0, 0))
        assert math.isclose(rhs, want, rel_tol=1e-9)
    # At n = 3 the depth gap on an axis reaches 2.
    for pair in (((3, 1), (1, 3)), ((3, 3), (1, 1))) if 3 in ns else ():
        got = fourier._majorant_pair(BasisPair.of(bases), pair)
        assert math.isclose(got, naive_pair_majorant(bases, *pair),
                            rel_tol=1e-9)


def test_second_moment_one_depth_case():
    lhs, rhs = second_moment_block((0, 0), 1, 5, (2, 3), 1, 0, 0)
    want = _grid_lhs((0, 0), 1, 5, (2, 3), 1, 0, 0)
    assert math.isclose(lhs, want, rel_tol=1e-12, abs_tol=1e-15)
    want_rhs = naive_pair_majorant((2, 3), (1, 1), (1, 1))
    assert math.isclose(rhs, want_rhs, rel_tol=1e-9)


def test_second_moment_empty_cell():
    v, vv = 1296, 1  # every depth pair at n = 2 lies in the cut box
    assert second_moment_block((0, 0), 3, 0, (2, 3), 2, v, vv) == (0.0, 0.0)


def test_second_moment_guards():
    with pytest.raises(ValueError):
        second_moment_block((0, 0), 2, 0, (2, 3), 5, 0, 0)
    with pytest.raises(ValueError):
        second_moment_block((0, 0), 0, 0, (2, 3), 2, 0, 0)
    with pytest.raises(ValueError):
        second_moment_block((0, 0), 2, -1, (2, 3), 2, 0, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            second_moment_block((0, 0), 1, 0, (2, 3), n, 0, 0)
    # Any other lam matched no depth pair and gave (0.0, 0.0).
    for lam in ((2, 0), (0, -1), (1, 1, 0)):
        with pytest.raises(ValueError, match="lam must be"):
            second_moment_block(lam, 2, 0, (2, 3), 2, 0, 0)


# ---------------------------------------------------------------------------
# resonance sums

@pytest.mark.parametrize("bases, ns", MOMENT_BASES, ids=MOMENT_IDS)
def test_resonance_matches_naive_enumeration(bases, ns):
    # At n = 3 the depth gap rplus - rminus reaches 2, so the unconstrained
    # sum's dilation by p^(rplus - rminus) also takes the value p^2.
    for n in ns:
        for lam in ((0, 0), (1, 0), (0, 1), (1, 1)):
            star, sharp = resonance_sums(lam, bases, n, 0, 0, m_cap=4)
            pairs = _cell_pairs(lam, n, 0, 0)
            want_star, want_sharp = naive_resonance(bases, pairs, 4)
            assert math.isclose(star, want_star, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(sharp, want_sharp, rel_tol=1e-9,
                                abs_tol=1e-12)
            assert star <= sharp * (1 + 1e-12)


def test_resonance_empty_cell_and_guards():
    v, vv = 1296, 1  # every depth pair at n = 2 lies in the cut box
    assert resonance_sums((0, 0), (2, 3), 2, v, vv) == (0.0, 0.0)
    with pytest.raises(ValueError):
        resonance_sums((0, 0), (2, 3), 5, 0, 0)
    with pytest.raises(ValueError):
        resonance_sums((0, 0), (2, 3), 2, 0, 0, m_cap=0)
    # n = 0 is refused as such, not through the m_cap it implies.
    with pytest.raises(ValueError, match="n must be >= 1"):
        resonance_sums((0, 0), (2, 3), 0, 0, 0)
    # A fractional cap would sum over the asymmetric box -2..3.
    with pytest.raises(ValueError, match="m_cap must be an integer"):
        resonance_sums((0, 0), (2, 3), 2, 0, 0, m_cap=2.5)
    for lam in ((2, 0), (0, -1), (1, 1, 0)):
        with pytest.raises(ValueError, match="lam must be"):
            resonance_sums(lam, (2, 3), 2, 0, 0)
