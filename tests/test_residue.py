"""Chinese-remainder residue classes and elementary-interval membership."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from haltonlab import (
    crt_inverses,
    decomposition_layers,
    decomposition_term,
    decomposition_term_fourier,
    in_elementary_interval,
    signed_rep,
    signed_residues,
    truncate_digits,
    truncated_discrepancy,
)

from oracles import brute_inverse, halton_point, unit_circle_sum

F = Fraction


def test_crt_inverses_frozen_values():
    rd = crt_inverses((2, 3), (1, 1))
    assert (rd.P, rd.M1, rd.M2) == (6, 1, 2)
    rd = crt_inverses((2, 3), (2, 1))
    assert (rd.P, rd.M1, rd.M2) == (12, 3, 1)
    rd = crt_inverses((2, 3), (1, 0))
    assert (rd.P, rd.M1, rd.M2) == (2, 1, 0)


def test_crt_inverses_defining_congruences():
    for bases in ((2, 3), (3, 5), (2, 7), (5, 4)):
        for r1 in range(0, 4):
            for r2 in range(0, 4):
                if r1 == 0 and r2 == 0:
                    continue
                rd = crt_inverses(bases, (r1, r2))
                q1 = bases[0] ** r1
                q2 = bases[1] ** r2
                assert rd.P == q1 * q2
                assert rd.M1 == brute_inverse(q2, q1)
                assert rd.M2 == brute_inverse(q1, q2)
                if q1 > 1:
                    assert (q2 * rd.M1) % q1 == 1
                if q2 > 1:
                    assert (q1 * rd.M2) % q2 == 1


def test_crt_inverses_rejections():
    with pytest.raises(ValueError):
        crt_inverses((2, 3), (-1, 0))
    with pytest.raises(ValueError):
        crt_inverses((2, 3), (0, 0))


def _congruence_indices(x, r, bases):
    """The indices in [0, P) that the congruence test puts in the depth-r box
    at the truncated corner of x."""
    corner = truncate_digits(x, r, bases)
    P = bases[0] ** r[0] * bases[1] ** r[1]
    return [k for k in range(P)
            if in_elementary_interval(k, corner, r, bases)]


def test_corner_residue_frozen_values():
    assert _congruence_indices((F(1, 2), F(1, 3)), (1, 1), (2, 3)) == [1]
    assert _congruence_indices((F(0), F(0)), (1, 1), (2, 3)) == [0]
    # digit values 1 and 2: (3*1*1 + 2*2*2) mod 6 = 11 mod 6 = 5
    assert _congruence_indices((F(1, 2), F(2, 3)), (1, 1), (2, 3)) == [5]


def test_corner_residue_locates_halton_indices():
    # The k-th point's truncated corner must sit in class k mod P.
    for r in ((1, 1), (2, 1), (1, 2), (3, 2)):
        P = 2 ** r[0] * 3 ** r[1]
        for k in range(3 * P):
            pt = halton_point(k, (2, 3))
            assert _congruence_indices(pt.coords, r, (2, 3)) == [k % P]


def test_corner_residue_rejections():
    # Coordinates outside [0, 1) have no corner digits: the layer routes,
    # which read them, and the congruence test of the truncated corner
    # reject them.
    for x in ((F(1), F(1, 3)), (F(1, 2), F(1)), (F(-1, 2), F(0)),
              (F(0), F(4, 3))):
        with pytest.raises(ValueError):
            decomposition_term(x, (1, 1), 0, 6, (2, 3))
        with pytest.raises(ValueError):
            decomposition_term_fourier(x, (1, 1), 0, 6, (2, 3))
        with pytest.raises(ValueError):
            _congruence_indices(x, (1, 1), (2, 3))
    # a corner of a finer grid than the box depths
    with pytest.raises(ValueError):
        in_elementary_interval(0, (F(3, 4), F(1, 3)), (1, 1), (2, 3))


# Every public entry that reads a 2-axis corner x, with depth pair r where
# it takes one, over bases (2, 3).
CORNER_ENTRIES = {
    "decomposition_term":
        lambda x, r: decomposition_term(x, r, 0, 6, (2, 3)),
    "decomposition_layers":
        lambda x, r: decomposition_layers(x, 0, 6, (2, 3)),
    "truncated_discrepancy":
        lambda x, r: truncated_discrepancy(x, 0, 6, (2, 3)),
    "in_elementary_interval":
        lambda x, r: in_elementary_interval(1, x, r, (2, 3)),
    "decomposition_term_fourier":
        lambda x, r: decomposition_term_fourier(x, r, 0, 6, (2, 3)),
    "truncate_digits":
        lambda x, r: truncate_digits(x, r, (2, 3)),
}
PICK_OWN_DEPTHS = ("decomposition_layers", "truncated_discrepancy")
BAD_SHAPES = (
    [(name, x, (1, 1)) for name in CORNER_ENTRIES
     for x in ((F(1, 2),), (F(1, 2), F(1, 3), F(1, 5)))]
    + [(name, (F(1, 2), F(1, 3)), (2,)) for name in CORNER_ENTRIES
       if name not in PICK_OWN_DEPTHS])


@pytest.mark.parametrize("name, x, r", BAD_SHAPES, ids=[
    f"{name}-{len(x)}coords-{len(r)}depths" for name, x, r in BAD_SHAPES])
def test_corner_entries_reject_other_than_two_coordinates_and_depths(name, x, r):
    # zip over the axes would drop a third coordinate or depth silently,
    # and indexing a single one would raise IndexError.
    with pytest.raises(ValueError, match="coordinates and .* depths, expected 2"):
        CORNER_ENTRIES[name](x, r)


def _box_indices(corner, r, bases):
    """The indices in [0, P) whose point lies in the depth-r box at corner."""
    widths = [F(1, p ** ri) for p, ri in zip(bases, r)]
    P = bases[0] ** r[0] * bases[1] ** r[1]
    return [k for k in range(P)
            if all(c <= y < c + w for c, y, w in
                   zip(corner, halton_point(k, bases).coords, widths))]


def test_corner_residue_on_digit_boundaries():
    # Corners on the grid of depth r, on coarser grids, at 0, and one 10^-6
    # below a grid line (where the floor drops to the previous cell).
    for bases, r in (((2, 3), (3, 2)), ((2, 5), (2, 2)), ((2, 3), (1, 3))):
        q1, q2 = bases[0] ** r[0], bases[1] ** r[1]
        for a1, a2 in ((0, 0), (1, 1), (q1 - 1, q2 - 1), (q1 // 2, q2 // 3)):
            corner = (F(a1, q1), F(a2, q2))
            assert _congruence_indices(corner, r, bases) == \
                _box_indices(corner, r, bases)
            if a1 and a2:
                below = (corner[0] - F(1, 10 ** 6), corner[1] - F(1, 10 ** 6))
                prev = (F(a1 - 1, q1), F(a2 - 1, q2))
                assert _congruence_indices(below, r, bases) == \
                    _box_indices(prev, r, bases)
        for coarse in ((F(1, 2), F(0)), (F(0), F(1, bases[1]))):
            assert _congruence_indices(coarse, r, bases) == \
                _box_indices(coarse, r, bases)


def test_membership_matches_geometry_at_workload_depths():
    # Depths up to (6, 4) and indices from 10^6: the box around each point,
    # the boxes on either side of it, and the first and last boxes.
    for bases in ((2, 3), (2, 5)):
        for s in ((6, 4), (6, 0), (0, 4), (3, 2), (1, 1)):
            q = [p ** si for p, si in zip(bases, s)]
            for k in range(10 ** 6, 10 ** 6 + 40):
                pt = halton_point(k, bases).coords
                own = [int(c * qi) for c, qi in zip(pt, q)]
                for shift in (0, -1, 1):
                    for cell in ((own[0] + shift, own[1]),
                                 (own[0], own[1] - shift), (0, 0),
                                 (q[0] - 1, q[1] - 1)):
                        cell = [c % qi for c, qi in zip(cell, q)]
                        y = (F(cell[0], q[0]), F(cell[1], q[1]))
                        geo = all(yi <= c < yi + F(1, qi)
                                  for yi, c, qi in zip(y, pt, q))
                        assert geo == (cell == own)
                        assert in_elementary_interval(k, y, s, bases) == geo


def test_membership_frozen_cases():
    assert in_elementary_interval(1, (F(1, 2), F(1, 3)), (1, 1), (2, 3))
    assert not in_elementary_interval(0, (F(1, 2), F(1, 3)), (1, 1), (2, 3))


def test_membership_full_period_hits_every_cell_once():
    # Over one full period each cell at depth (2, 2) is hit exactly once.
    s = (2, 2)
    P = 4 * 9
    for c1 in range(4):
        for c2 in range(9):
            y = (F(c1, 4), F(c2, 9))
            hits = [k for k in range(P)
                    if in_elementary_interval(k, y, s, (2, 3))]
            assert len(hits) == 1
            pt = halton_point(hits[0], (2, 3))
            assert y[0] <= pt.coords[0] < y[0] + F(1, 4)
            assert y[1] <= pt.coords[1] < y[1] + F(1, 9)


def test_membership_matches_geometry_everywhere():
    # Congruence test vs direct interval check, five periods deep.
    s = (1, 2)
    P = 2 * 9
    for k in range(5 * P):
        pt = halton_point(k, (2, 3))
        for c1 in range(2):
            for c2 in range(9):
                y = (F(c1, 2), F(c2, 9))
                geo = (y[0] <= pt.coords[0] < y[0] + F(1, 2)
                       and y[1] <= pt.coords[1] < y[1] + F(1, 9))
                assert in_elementary_interval(k, y, s, (2, 3)) == geo


def test_membership_one_dimensional_degenerate_axis():
    # Depth 0 on one axis reduces to the single-base statement.
    for p, s1 in ((2, 3), (3, 4), (5, 3), (7, 3)):
        q = p ** s1
        assert q <= 10 ** 3
        for k in range(0, 5 * q, max(1, q // 17)):
            pt = halton_point(k, (p, _coprime_partner(p)))
            for c in range(0, q, max(1, q // 9)):
                y = (F(c, q), F(0))
                geo = y[0] <= pt.coords[0] < y[0] + F(1, q)
                got = in_elementary_interval(
                    k, y, (s1, 0), (p, _coprime_partner(p)))
                assert got == geo


def _coprime_partner(p: int) -> int:
    return 3 if p == 2 else 2


def test_membership_alignment_rejection():
    with pytest.raises(ValueError):
        in_elementary_interval(0, (F(1, 3), F(0)), (1, 0), (2, 3))
    with pytest.raises(ValueError):
        in_elementary_interval(0, (F(1, 4), F(0)), (1, 1), (2, 3))
    with pytest.raises(ValueError):
        in_elementary_interval(0, (F(0), F(1, 2)), (1, 1), (2, 3))


def test_membership_trivial_box():
    assert in_elementary_interval(123, (F(0), F(0)), (0, 0), (2, 3))


def test_crt_bijection_small_moduli():
    # (k mod q1, k mod q2) -> k mod P is a bijection for many depth pairs.
    for bases, r in (((2, 3), (5, 3)), ((2, 3), (3, 5)), ((3, 5), (3, 2)),
                     ((2, 7), (4, 2))):
        rd = crt_inverses(bases, r)
        if rd.P > 10 ** 4:
            continue
        q1 = bases[0] ** r[0]
        q2 = bases[1] ** r[1]
        seen = set()
        for a1 in range(q1):
            for a2 in range(q2):
                k = (q2 * rd.M1 * a1 + q1 * rd.M2 * a2) % rd.P
                assert k % q1 == a1
                assert k % q2 == a2
                seen.add(k)
        assert len(seen) == rd.P


def test_signed_residues_frozen_sets():
    assert set(signed_residues(4)) == {-1, 0, 1, 2}
    assert set(signed_residues(1)) == {0}
    assert set(signed_residues(5)) == {-2, -1, 0, 1, 2}
    w = signed_residues(6)
    assert (w.start, w[-1]) == (-2, 3)
    assert len(w) == 6
    assert 3 in w and -3 not in w
    assert {m for m in w if m} == {-2, -1, 1, 2, 3}
    with pytest.raises(ValueError):
        signed_residues(0)


def test_signed_rep_round_trip():
    for M in (1, 2, 3, 4, 7, 12):
        w = signed_residues(M)
        for a in range(-3 * M, 3 * M):
            r = signed_rep(a, M)
            assert r in w
            assert (r - a) % M == 0


def test_signed_rep_maps_int_arrays_elementwise():
    for M in range(1, 13):
        a = np.arange(-3 * M, 3 * M + 1, dtype=np.int64)
        got = signed_rep(a, M)
        assert got.dtype == np.int64
        assert got.tolist() == [signed_rep(int(v), M) for v in a]


def test_delta_equals_averaged_exponential_sum():
    # (1/M) sum over the signed window of e(a k / M) is 1 on multiples of M
    # and 0 elsewhere.
    for M in (1, 2, 3, 5, 8, 37, 100):
        for a in range(-2 * M, 2 * M + 1, max(1, M // 3)):
            s = unit_circle_sum(F(a * k, M) for k in signed_residues(M)) / M
            assert abs(s - (a % M == 0)) < 1e-10
