"""Local, L2, and star discrepancy, plus the residue-layer decomposition."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from haltonlab import (
    count_in_class,
    decomposition_layers,
    decomposition_term,
    l2_discrepancy_squared,
    local_discrepancy,
    point_set,
    star_discrepancy,
    truncate_digits,
    truncated_discrepancy,
)

from oracles import (
    axis_digits,
    count_below,
    halton_point,
    layer_by_direct_count,
    pair_sum_l2_squared,
    piecewise_l2_squared,
    star_by_cells,
    truncated_discrepancy_by_count,
)

F = Fraction


def _halton(n, bases=(2, 3), start=0):
    return point_set("halton", bases, start, n)


# ---------------------------------------------------------------------------
# local discrepancy

def test_local_full_box_is_zero():
    ps = _halton(16)
    assert local_discrepancy((1, 1), ps).value == 0


def test_local_half_box_cancels_exactly():
    ps = _halton(2)
    assert local_discrepancy((F(1, 2), 1), ps).value == 0


def test_local_single_origin_point():
    ps = point_set("explicit", (2, 3), points=[(0, 0)])
    assert local_discrepancy((F(1, 2), F(1, 2)), ps).value == F(3, 4)


def test_local_counts_strictly():
    ps = point_set("explicit", (2, 3), points=[(F(1, 2), F(1, 3))])
    # The point sits on the corner: strict comparison excludes it.
    assert local_discrepancy((F(1, 2), F(1, 3)), ps).value == -F(1, 6)


def test_local_matches_oracle_counts():
    rng = random.Random(20260819)
    ps = _halton(64, start=9)
    pts = [pt.coords for pt in ps.points]
    for _ in range(60):
        x = tuple(F(rng.randrange(0, 1001), 1000) for _ in range(2))
        d = local_discrepancy(x, ps).value
        assert d == count_below(pts, x) - 64 * x[0] * x[1]
        assert abs(d) <= 64


def test_local_rejections_and_modes():
    ps = _halton(4)
    with pytest.raises(ValueError):
        local_discrepancy((F(1, 2),), ps)
    with pytest.raises(ValueError):
        local_discrepancy((F(3, 2), F(1, 2)), ps)


# ---------------------------------------------------------------------------
# L2 discrepancy

def test_l2_single_origin_point():
    ps = point_set("explicit", (2, 3), points=[(0, 0)])
    assert l2_discrepancy_squared(ps).value == F(11, 18)


def test_l2_single_center_point():
    ps = point_set("explicit", (2, 3), points=[(F(1, 2), F(1, 2))])
    assert l2_discrepancy_squared(ps).value == F(23, 288)


def test_l2_matches_piecewise_integration():
    rng = random.Random(7)
    pools = []
    for n in (1, 2, 3, 5, 8):
        pools.append([halton_point(k, (2, 3)).coords for k in range(n)])
    # Duplicates, zeros, and a 1- and 3-dimensional case.
    pools.append([(F(0), F(0)), (F(0), F(0)), (F(1, 2), F(2, 3))])
    pools.append([(F(1, 4),), (F(1, 4),), (F(7, 8),)])
    pools.append([(F(1, 2), F(1, 3), F(1, 5)), (F(0), F(0), F(0))])
    for _ in range(10):
        n = rng.randrange(1, 7)
        pools.append([tuple(F(rng.randrange(0, 64), 64) for _ in range(2))
                      for _ in range(n)])
    for pts in pools:
        ps = point_set("explicit", (2, 3), points=pts)
        got = l2_discrepancy_squared(ps, mode="exact").value
        assert got == piecewise_l2_squared(pts)


def test_l2_float_tracks_exact_closely():
    sets = [_halton(n) for n in (256, 1024, 2048, 4096, 8192)]
    sets.append(point_set("hammersley", (2, 3, 5), 0, 4096))
    for ps in sets:
        exact = l2_discrepancy_squared(ps, mode="exact").value
        approx = l2_discrepancy_squared(ps, mode="float").value
        assert abs(approx - float(exact)) <= 1e-10 * float(exact)


def test_l2_default_mode_switches_on_size():
    assert l2_discrepancy_squared(_halton(8)).mode == "exact"
    big = point_set("halton", (2, 3), 0, 4100)
    assert l2_discrepancy_squared(big).mode == "float"


def test_l2_mode_rejection():
    with pytest.raises(ValueError):
        l2_discrepancy_squared(_halton(4), mode="bogus")


def test_l2_exact_three_dimensional_fraction_path():
    ps = point_set("halton", (2, 3, 5), 0, 40)
    got = l2_discrepancy_squared(ps, mode="exact").value
    assert got == piecewise_l2_squared([pt.coords for pt in ps.points])


def test_l2_exact_matches_pair_sum_on_tied_sets():
    # Coordinates k/8 and k/9 on few values: many ties and duplicates, so
    # equal coordinates straddle every halving split of the exact kernel.
    rng = random.Random(11)
    for dens, n in (((8,), 300), ((9,), 100), ((8, 9), 250), ((9, 9), 120),
                    ((8, 9, 8), 150), ((9, 8, 9), 100), ((8, 9, 8, 9), 40)):
        pts = [tuple(F(rng.randrange(d), d) for d in dens) for _ in range(n)]
        ps = point_set("explicit", (2, 3), points=pts)
        got = l2_discrepancy_squared(ps, mode="exact").value
        assert got == pair_sum_l2_squared(pts)


@pytest.mark.parametrize("bases, start, n", [
    ((2, 3, 5), 5 ** 9, 4096),
    ((2, 3), 10 ** 9 - 3000, 3000),
])
def test_l2_exact_answers_large_sets_at_large_offsets(bases, start, n):
    ps = point_set("halton", bases, start, n)
    exact = l2_discrepancy_squared(ps, mode="exact")
    approx = l2_discrepancy_squared(ps, mode="float").value
    assert exact.mode == "exact"
    assert abs(approx - float(exact.value)) <= 1e-10 * float(exact.value)


# ---------------------------------------------------------------------------
# star discrepancy

def test_star_frozen_values():
    one = point_set("explicit", (2, 3), points=[(F(1, 2), F(1, 2))])
    assert star_discrepancy(one).value == F(3, 4)
    origin = point_set("explicit", (2,), points=[(F(0),)])
    assert star_discrepancy(origin).value == 1
    center = point_set("explicit", (2,), points=[(F(1, 2),)])
    assert star_discrepancy(center).value == F(1, 2)


def test_star_matches_cell_oracle():
    rng = random.Random(99)
    cases = [
        [pt.coords for pt in _halton(n, start=start).points]
        for n, start in ((1, 0), (2, 0), (3, 0), (6, 0), (12, 0),
                         (32, 10 ** 9 - 32))
    ]
    cases += [[pt.coords for pt in
               point_set("van_der_corput", (2,), start, n).points]
              for n in (1, 2, 5, 16, 40) for start in (0, 10 ** 9 - n)]
    cases.append([(F(0), F(0)), (F(0), F(0))])
    for _ in range(15):
        n = rng.randrange(1, 8)
        cases.append([tuple(F(rng.randrange(0, 32), 32) for _ in range(2))
                      for _ in range(n)])
    for _ in range(15):
        # one axis on the 1/16 grid, with a repeated point and one at 0
        pts = [(F(rng.randrange(0, 16), 16),)
               for _ in range(rng.randrange(1, 8))]
        cases.append(pts + [pts[0], (F(0),)])
    for zero_axis in (0, 1):
        for _ in range(10):
            # two axes with a duplicated point and points at 0 on one axis
            pts = [[F(rng.randrange(0, 32), 32) for _ in range(2)]
                   for _ in range(rng.randrange(2, 8))]
            for pt in pts[::2]:
                pt[zero_axis] = F(0)
            cases.append([tuple(pt) for pt in pts + pts[-1:]])
    for pts in cases:
        ps = point_set("explicit", (2, 3)[:len(pts[0])], points=pts)
        assert star_discrepancy(ps).value == star_by_cells(pts)


def test_star_rejects_higher_dimensions():
    ps = point_set("halton", (2, 3, 5), 0, 4)
    with pytest.raises(ValueError):
        star_discrepancy(ps)


def test_l2_below_star_squared():
    for n in (1, 4, 16, 50):
        ps = _halton(n)
        l2 = l2_discrepancy_squared(ps, mode="exact").value
        st = star_discrepancy(ps).value
        assert l2 <= st * st


# ---------------------------------------------------------------------------
# digit truncation and the truncated discrepancy

def test_truncate_digits_examples():
    assert truncate_digits((0, 0), (3, 3), (2, 3)) == (F(0), F(0))
    assert truncate_digits((F(5, 8), F(7, 9)), (1, 1), (2, 3)) == (
        F(1, 2), F(2, 3))
    assert truncate_digits((F(5, 8), F(7, 9)), (3, 2), (2, 3)) == (
        F(5, 8), F(7, 9))


def test_truncate_digits_keeps_ones_and_idempotence():
    assert truncate_digits((1, F(1, 3)), (2, 2), (2, 3)) == (F(1), F(1, 3))
    x = (F(13, 16), F(5, 27))
    once = truncate_digits(x, (2, 1), (2, 3))
    assert truncate_digits(once, (2, 1), (2, 3)) == once


def test_truncate_digits_on_digit_boundaries():
    # a/p^r is kept whole at depth >= r; 10^-6 below it the floor drops.
    for p, r in ((2, 6), (3, 4), (5, 4)):
        q = p ** r
        for a in (0, 1, q // 2, q - 1):
            x = F(a, q)
            bases = (p, 7)
            for depth in (r, r + 2):
                assert truncate_digits((x, 0), (depth, 1), bases) == (x, 0)
            if a:
                below = x - F(1, 10 ** 6)
                digs = axis_digits(below, p, r)
                assert sum(d * p ** (r - 1 - j) for j, d in enumerate(digs)) \
                    == a - 1
                assert truncate_digits((below, 0), (r, 1), bases) == (
                    F(a - 1, q), 0)


def test_truncated_discrepancy_full_box():
    assert truncated_discrepancy((1, 1), 0, 2, (2, 3)) == 0


def test_truncated_discrepancy_against_direct_count():
    assert truncated_discrepancy((F(1, 2), F(1, 3)), 0, 6, (2, 3)) == \
        truncated_discrepancy_by_count((F(1, 2), F(1, 3)), 0, 6, (2, 3))
    rng = random.Random(424242)
    for _ in range(40):
        q = rng.randrange(0, 500)
        n = rng.randrange(1, 120)
        x = tuple(F(rng.randrange(0, 256), 256) for _ in range(2))
        assert truncated_discrepancy(x, q, n, (2, 3)) == \
            truncated_discrepancy_by_count(x, q, n, (2, 3))


def test_truncation_error_within_two():
    rng = random.Random(5150)
    for _ in range(40):
        q = rng.randrange(0, 10 ** 6)
        n = rng.randrange(1, 1024)
        x = tuple(F(rng.randrange(0, 10 ** 4), 10 ** 4) for _ in range(2))
        sd = truncated_discrepancy(x, q, n, (2, 3))
        ps = point_set("halton", (2, 3), q, n)
        d = Fraction(local_discrepancy(x, ps).value)
        assert abs(sd - d) <= 2


# ---------------------------------------------------------------------------
# residue-class counting and the layer decomposition

def test_count_in_class_brute():
    for q, n, P in ((0, 10, 3), (5, 17, 6), (1000, 1, 12), (7, 36, 36)):
        for a in range(P):
            brute = sum(1 for k in range(q, q + n) if k % P == a)
            assert count_in_class(a, q, n, P) == brute


def test_decomposition_term_frozen_case():
    x = (F(1, 2), F(1, 3))
    got = decomposition_term(x, (1, 1), 0, 6, (2, 3))
    assert got == layer_by_direct_count(x, (1, 1), 0, 6, (2, 3))


def test_decomposition_term_matches_direct_count():
    rng = random.Random(314159)
    for _ in range(30):
        q = rng.randrange(0, 300)
        n = rng.randrange(1, 200)
        r = (rng.randrange(1, 4), rng.randrange(1, 4))
        x = tuple(F(rng.randrange(0, 729), 729) for _ in range(2))
        assert decomposition_term(x, r, q, n, (2, 3)) == \
            layer_by_direct_count(x, r, q, n, (2, 3))


def _depth_pairs(bases, p_cap):
    return [(r1, r2) for r1 in range(1, 14) for r2 in range(1, 9)
            if bases[0] ** r1 * bases[1] ** r2 <= p_cap]


def test_decomposition_term_matches_direct_count_at_workload_scale():
    # Denominators up to 10^6, every depth pair with P <= 10^4, offsets up
    # to 10^6; three corners in four have both last kept digits nonzero.
    rng = random.Random(271828)
    for bases in ((2, 3), (2, 5)):
        for i, r in enumerate(_depth_pairs(bases, 10 ** 4)):
            q = rng.randrange(0, 10 ** 6 + 1)
            n = rng.randrange(1, 160)
            while True:
                x = tuple(F(rng.randrange(0, d), d) for d in
                          (rng.randrange(2, 10 ** 6 + 1) for _ in range(2)))
                last = [axis_digits(xi, p, ri)[-1]
                        for xi, p, ri in zip(x, bases, r)]
                if all(last) == (i % 4 != 0):
                    break
            assert decomposition_term(x, r, q, n, bases) == \
                layer_by_direct_count(x, r, q, n, bases)


def test_decomposition_term_on_digit_boundaries():
    # Corners on the grid of depth r, on coarser grids, at 0 and 10^-6 below
    # a grid line.
    for bases, r in (((2, 3), (3, 2)), ((2, 5), (4, 2)), ((2, 3), (1, 1))):
        q1, q2 = bases[0] ** r[0], bases[1] ** r[1]
        eps = F(1, 10 ** 6)
        for x in ((F(0), F(0)), (F(q1 - 1, q1), F(q2 - 1, q2)),
                  (F(1, 2), F(1, bases[1])), (F(q1 // 2, q1), F(q2 // 2, q2)),
                  (F(q1 - 1, q1) - eps, F(q2 - 1, q2) - eps),
                  (F(0), F(q2 - 1, q2))):
            for q in (0, 10 ** 6):
                assert decomposition_term(x, r, q, 97, bases) == \
                    layer_by_direct_count(x, r, q, 97, bases)


def test_decomposition_term_zero_on_zero_digit():
    # x1 = 1/4 has first base-2 digit 0, so the (1, r2) layers vanish.
    x = (F(1, 4), F(1, 3))
    assert decomposition_term(x, (1, 1), 0, 10, (2, 3)) == 0
    assert decomposition_term(x, (1, 2), 0, 10, (2, 3)) == 0


def test_decomposition_term_depth_rejection():
    with pytest.raises(ValueError):
        decomposition_term((F(1, 2), F(1, 3)), (0, 1), 0, 4, (2, 3))


def test_decomposition_term_rejects_empty_and_negative_windows():
    x = (F(1, 2), F(1, 3))
    for q, n in ((0, 0), (0, -5), (-3, 10), (0.5, 5), (0, 5.0), (0, F(5))):
        with pytest.raises(ValueError):
            decomposition_term(x, (2, 2), q, n, (2, 3))


def test_decomposition_layers_rejects_empty_and_negative_windows():
    x = (F(3, 4), F(5, 9))
    for q, n in ((0, 0), (0, -5), (-3, 10), (0.5, 5), (0, 5.0), (0, F(5))):
        with pytest.raises(ValueError):
            decomposition_layers(x, q, n, (2, 3))


def test_depth_from_count_entries_take_numpy_counts():
    # Both entries read the depth floor(log2 N) + 1 off the count, and a
    # numpy count had no bit_length.
    x = (F(3, 4), F(5, 9))
    q, n = np.int64(7), np.int64(6)
    assert decomposition_layers(x, q, n, (2, 3)) == \
        decomposition_layers(x, 7, 6, (2, 3))
    assert truncated_discrepancy(x, q, n, (2, 3)) == \
        truncated_discrepancy(x, 7, 6, (2, 3))
    for q, n in ((0, 0), (-3, 10), (0.5, 5), (0, 5.0), (0, F(5))):
        with pytest.raises(ValueError):
            truncated_discrepancy(x, q, n, (2, 3))


def test_layers_sum_to_truncated_discrepancy():
    rng = random.Random(8128)
    for _ in range(25):
        q = rng.randrange(0, 10 ** 4)
        n = rng.randrange(1, 257)
        x = tuple(F(rng.randrange(0, 6 ** 6), 6 ** 6) for _ in range(2))
        layers = decomposition_layers(x, q, n, (2, 3))
        depth = n.bit_length()
        assert set(layers) == {(r1, r2)
                               for r1 in range(1, depth + 1)
                               for r2 in range(1, depth + 1)}
        assert sum(layers.values()) == truncated_discrepancy(x, q, n, (2, 3))
        assert all(abs(v) < 6 for v in layers.values())


@pytest.mark.parametrize("bases", [(2, 3), (2, 5)])
@pytest.mark.parametrize("q", [0, 10 ** 6])
def test_every_layer_matches_direct_count(bases, q):
    # Layer by layer, not only their sum: corners on digit boundaries of
    # several depths, at 0, and 10^-6 below a grid line, where every digit
    # past the line is p - 1.
    p1, p2 = bases
    eps = F(1, 10 ** 6)
    corners = ((F(0), F(0)), (F(1, 2), F(1, p2)), (F(5, 8), F(7, p2 ** 2)),
               (F(3, 4) - eps, F(2, p2) - eps), (F(1, 3), F(5, 7)),
               (F(1, p1 ** 5) - eps, F(p2 ** 3 - 1, p2 ** 3)))
    for n in (40, 100):
        depth = n.bit_length()
        for x in corners:
            layers = decomposition_layers(x, q, n, bases)
            assert list(layers) == [(r1, r2) for r1 in range(1, depth + 1)
                                    for r2 in range(1, depth + 1)]
            for r, value in layers.items():
                assert value == layer_by_direct_count(x, r, q, n, bases), r
