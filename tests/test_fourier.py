"""Fourier route for the layers, digit splits, partitions, and tiny-scale audits."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from haltonlab import (
    BasisPair,
    cell_fourier_factor,
    combined_frequency,
    count_in_class,
    crt_inverses,
    decomposition_term,
    decomposition_term_fourier,
    digit_split,
    partition_label,
    resonance_sums,
    second_moment_block,
    signed_residues,
    window_fourier_coefficient,
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
# the window coefficient phi

def test_phi_vanishes_over_full_periods():
    for mult in (1, 2, 5):
        for m in _nonzero(6):
            assert window_fourier_coefficient(
                (1, 1), 0, 6 * mult, m, (2, 3)) == 0j


def test_phi_single_point_magnitude():
    for m in _nonzero(12):
        z = window_fourier_coefficient((2, 1), 9, 1, m, (2, 3))
        assert abs(abs(z) - 1 / 12) < 1e-12


def test_phi_frozen_half_period_value():
    z = window_fourier_coefficient((1, 1), 0, 3, 1, (2, 3))
    assert abs(abs(z) - F(1, 3)) < 1e-12


def test_phi_magnitude_bound():
    for r, P in (((1, 1), 6), ((2, 1), 12), ((2, 2), 36)):
        for n in (1, 2, 3, 7, P - 1, P + 5, 2 * P - 1):
            for q in (0, 3, 7):
                for m in _nonzero(P):
                    z = window_fourier_coefficient(r, q, n, m, (2, 3))
                    assert abs(z) <= 1 / max(1, abs(m)) + 1e-12


def test_phi_completeness_identity():
    # Indicator of a residue class on [Q, Q+N) recovered from the window sums.
    for r in ((1, 1), (2, 1), (1, 2)):
        rd = crt_inverses((2, 3), r)
        P = rd.P
        for q, n in ((0, 5), (7, 11), (100, 2 * P + 3)):
            for cls in range(0, P, max(1, P // 5)):
                acc = n / P
                for m in _nonzero(P):
                    phi = window_fourier_coefficient(r, q, n, m, (2, 3))
                    acc += (phi * _e(F((-m * cls) % P, P))).real
                assert abs(acc - count_in_class(cls, q, n, P)) < 1e-10


def test_phi_rejections():
    with pytest.raises(ValueError):
        window_fourier_coefficient((1, 1), 0, 5, 0, (2, 3))
    with pytest.raises(ValueError):
        window_fourier_coefficient((1, 1), 0, 5, 4, (2, 3))
    with pytest.raises(ValueError):
        window_fourier_coefficient((1, 1), 0, 0, 1, (2, 3))
    with pytest.raises(ValueError):
        window_fourier_coefficient((1, 1), -1, 5, 1, (2, 3))


# ---------------------------------------------------------------------------
# the digit-cell factor psi

def test_psi_zero_when_last_digit_zero():
    for m in signed_residues(6):
        assert cell_fourier_factor((1, 1), m, (F(1, 4), F(1, 3)), (2, 3)) == 0j


def test_psi_unit_digit_gives_unit_factors():
    for m in signed_residues(6):
        z = cell_fourier_factor((1, 1), m, (F(1, 2), F(1, 3)), (2, 3))
        assert abs(abs(z) - 1) < 1e-12


def test_psi_magnitude_bound_exhaustive():
    for d1 in range(2):
        for d2 in range(3):
            x = (F(d1, 2), F(d2, 3))
            for m in signed_residues(6):
                z = cell_fourier_factor((1, 1), m, x, (2, 3))
                assert abs(z) <= 6 + 1e-12


def test_psi_window_rejection():
    with pytest.raises(ValueError):
        cell_fourier_factor((1, 1), 4, (F(1, 2), F(1, 3)), (2, 3))


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
    for q, n in ((0, 0), (0, -5), (-3, 10)):
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
    with pytest.raises(ValueError, match="2\\^31"):
        window_fourier_coefficient((20, 7), 0, 5, 1, (2, 3))


# ---------------------------------------------------------------------------
# digit split of frequency pairs

def _check_split_against_oracle(m1, m2, r_pair, bases):
    ds = digit_split(m1, m2, r_pair, bases)
    for axis in range(2):
        p = bases[axis]
        q, rplus, rminus, mults = _pair_axis_geometry(
            bases, r_pair[0], r_pair[1], axis)
        mhat = fold_axis(m1, m2, q, [(m * 1) % q for m in mults])
        assert ds.hat_m[axis] == mhat
        lo, hi = window_split_search(mhat, p, rplus, rminus)
        k1, k2 = ds.order[axis]
        assert ds.mm[axis][k1] == lo
        assert ds.mm[axis][k2] == hi
        assert ds.windows[axis][k1] == p ** rminus
        assert ds.windows[axis][k2] == p ** (rplus - rminus)
        # Reconstruction: the split recombines to the fold.
        sgap = p ** (rplus - rminus)
        assert (lo * sgap + hi - mhat) % (p ** rplus) == 0


def test_digit_split_exhaustive_small_moduli():
    for r_pair in ((((1, 1)), ((1, 1))), (((1, 1)), ((2, 1))),
                   (((2, 1)), ((1, 2))), (((2, 2)), ((1, 1)))):
        P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
        P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
        for m1 in _nonzero(P1):
            for m2 in _nonzero(P2):
                _check_split_against_oracle(m1, m2, r_pair, (2, 3))


def test_digit_split_seeded_larger_moduli():
    rng = random.Random(271828)
    depth_pairs = [((3, 2), (2, 3)), ((4, 1), (2, 2)), ((1, 3), (3, 1)),
                   ((4, 3), (4, 3))]
    for r_pair in depth_pairs:
        P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
        P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
        w1 = _nonzero(P1)
        w2 = _nonzero(P2)
        for _ in range(40):
            _check_split_against_oracle(
                rng.choice(w1), rng.choice(w2), r_pair, (2, 3))


def test_digit_split_equal_pair_fold():
    # Same depths, same frequency: the fold is -2 m M_i per axis.
    r = (2, 1)
    rd = crt_inverses((2, 3), r)
    for m in (1, 2, 5, -4):
        ds = digit_split(m, m, (r, r), (2, 3))
        assert ds.hat_m[0] == (-2 * m * rd.M1) % 4
        assert ds.hat_m[1] == (-2 * m * rd.M2) % 3
        assert ds.order == (((0, 1)), ((0, 1)))


def test_digit_split_zero_fold_gives_zero_coefficients():
    ds = digit_split(3, 3, ((1, 1), (1, 1)), (2, 3))
    assert ds.hat_m == (0, 0)
    assert ds.mm == (((0, 0)), ((0, 0)))


def test_digit_split_window_rejection():
    with pytest.raises(ValueError):
        digit_split(0, 1, ((1, 1), (1, 1)), (2, 3))
    with pytest.raises(ValueError):
        digit_split(4, 1, ((1, 1), (1, 1)), (2, 3))


def test_combined_frequency_divisibility():
    rng = random.Random(1618)
    depth_pairs = [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((3, 2), (2, 2)),
                   ((1, 3), (4, 1))]
    for r_pair in depth_pairs:
        P1 = 2 ** r_pair[0][0] * 3 ** r_pair[0][1]
        P2 = 2 ** r_pair[1][0] * 3 ** r_pair[1][1]
        w1 = _nonzero(P1)
        w2 = _nonzero(P2)
        for _ in range(25):
            m1, m2 = rng.choice(w1), rng.choice(w2)
            ds = digit_split(m1, m2, r_pair, (2, 3))
            for axis, p in ((0, 2), (1, 3)):
                rplus = max(r_pair[0][axis], r_pair[1][axis])
                total = combined_frequency(
                    m1, m2, ds.mm[axis], r_pair, (2, 3), axis)
                assert total % p ** rplus == 0


def test_combined_frequency_trivial_and_perturbed():
    r_pair = ((1, 1), (1, 1))
    assert combined_frequency(0, 0, (0, 0), r_pair, (2, 3), 0) == 0
    assert combined_frequency(0, 0, (0, 0), r_pair, (2, 3), 1) == 0
    # Wrong coefficients break divisibility in this case.
    ds = digit_split(1, 1, r_pair, (2, 3))
    bad = (ds.mm[0][0] + 1, ds.mm[0][1])
    assert combined_frequency(1, 1, bad, r_pair, (2, 3), 0) % 2 != 0


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


def test_second_moment_lhs_matches_grid_average():
    for lam in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for n_count in (1, 2, 3):
            lhs, _ = second_moment_block(lam, n_count, 0, (2, 3), 2, 0, 0)
            want = _grid_lhs(lam, n_count, 0, (2, 3), 2, 0, 0)
            assert math.isclose(lhs, want, rel_tol=1e-12, abs_tol=1e-15)


def test_second_moment_rhs_matches_naive_majorant():
    for lam in ((0, 0), (1, 1)):
        _, rhs = second_moment_block(lam, 2, 0, (2, 3), 2, 0, 0)
        want = sum(naive_pair_majorant((2, 3), br_1, br_2)
                   for br_1, br_2 in _cell_pairs(lam, 2, 0, 0))
        assert math.isclose(rhs, want, rel_tol=1e-9)
    # At n = 3 the depth gap on an axis reaches 2.
    for pair in (((3, 1), (1, 3)), ((3, 3), (1, 1))):
        got = fourier._majorant_pair(BasisPair.of((2, 3)), pair)
        assert math.isclose(got, naive_pair_majorant((2, 3), *pair),
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


# ---------------------------------------------------------------------------
# resonance sums

def test_resonance_matches_naive_enumeration():
    # At n = 3 the depth gap rplus - rminus reaches 2, so the unconstrained
    # sum's dilation by p^(rplus - rminus) also takes the value p^2.
    for n in (2, 3):
        for lam in ((0, 0), (1, 0), (0, 1), (1, 1)):
            star, sharp = resonance_sums(lam, (2, 3), n, 0, 0, m_cap=4)
            pairs = _cell_pairs(lam, n, 0, 0)
            want_star, want_sharp = naive_resonance((2, 3), pairs, 4)
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
