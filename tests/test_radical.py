"""Radical inverses, point-set generation, and serialization."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from haltonlab import (
    EAGER_CAP,
    BasisPair,
    RationalPoint,
    decomposition_term,
    first_primes,
    is_prime,
    load_csv,
    point_set,
    save_csv,
)

from oracles import axis_digits, halton_point, radical_inverse

F = Fraction


def test_radical_inverse_frozen_values():
    assert radical_inverse(0, 2) == 0
    assert radical_inverse(5, 2) == F(5, 8)
    assert radical_inverse(5, 3) == F(7, 9)


def test_radical_inverse_matches_digit_reversal():
    # Cross-route: the digits of the inverse, read back least significant
    # first, rebuild n.
    for p in (2, 3, 7):
        for n in range(300):
            width = 0
            while p ** width <= n:
                width += 1
            got = radical_inverse(n, p)
            digs = axis_digits(got, p, width)
            assert sum(d * p ** j for j, d in enumerate(digs)) == n
            assert 0 <= got < 1
            assert (got * p ** width).denominator == 1
            assert digs[-1] != 0 if n else got == 0


def test_radical_inverse_bijection_onto_grid():
    # For each level m, the first p^m inverses hit each multiple of p^-m once.
    for p, m in ((2, 10), (3, 7), (5, 5), (10, 3)):
        q = p ** m
        assert q <= 10 ** 4
        seen = {radical_inverse(k, p) for k in range(q)}
        assert seen == {F(j, q) for j in range(q)}


def test_radical_inverse_prefix_stability():
    # Adding p^m changes nothing in the first m digits.
    for p, m in ((2, 6), (3, 4)):
        q = p ** m
        for k in range(q):
            a = axis_digits(radical_inverse(k, p), p, m)
            b = axis_digits(radical_inverse(k + q, p), p, m)
            assert a == b


def test_halton_point_frozen_values():
    assert halton_point(0, (2, 3)).coords == (F(0), F(0))
    assert halton_point(1, (2, 3)).coords == (F(1, 2), F(1, 3))
    assert halton_point(5, (2, 3)).coords == (F(5, 8), F(7, 9))


def test_halton_point_rejects_non_coprime():
    with pytest.raises(ValueError):
        halton_point(3, (2, 4))
    with pytest.raises(ValueError):
        point_set("halton", (6, 9), 0, 2)


def test_non_integer_bases_are_rejected_not_truncated():
    for bases in ((2.7, 3), (2, 3.9), (F(5, 2), 3)):
        with pytest.raises(ValueError, match="integers"):
            BasisPair.of(bases)
        with pytest.raises(ValueError, match="integers"):
            point_set("halton", bases, 0, 4)
    for lone in ((2.5,), 2.5):
        with pytest.raises(ValueError, match="integers"):
            point_set("van_der_corput", lone, 0, 4)
    with pytest.raises(ValueError, match="integers"):
        decomposition_term((F(1, 2), F(1, 3)), (1, 1), 0, 6, (2.9, 3))
    # integral values of other types stay accepted
    assert BasisPair.of((np.int64(2), np.int64(3))) == BasisPair(2, 3)
    assert BasisPair.of((F(2), 3.0)) == BasisPair(2, 3)
    assert point_set("halton", (np.int64(2), 3), 0, 4) == \
        point_set("halton", (2, 3), 0, 4)
    assert point_set("van_der_corput", np.int64(3), 0, 4) == \
        point_set("van_der_corput", 3, 0, 4)


def test_point_set_van_der_corput_first_four():
    ps = point_set("van_der_corput", (2,), 0, 4)
    got = [pt.coords[0] for pt in ps.points]
    assert got == [F(0), F(1, 2), F(1, 4), F(3, 4)]


def test_point_set_halton_first_two():
    ps = point_set("halton", (2, 3), 0, 2)
    assert [pt.coords for pt in ps.points] == [
        (F(0), F(0)), (F(1, 2), F(1, 3))]


def test_point_set_hammersley_appends_index_fraction():
    ps = point_set("hammersley", (2,), 0, 2)
    assert [pt.coords for pt in ps.points] == [
        (F(0), F(0)), (F(1, 2), F(1, 2))]
    with pytest.raises(ValueError):
        point_set("hammersley", (2,), 1, 2)


def test_point_set_halton_offset_indexing():
    ps = point_set("halton", (2, 3), 5, 3)
    for k, pt in enumerate(ps.points):
        assert pt.coords == halton_point(5 + k, (2, 3)).coords


def test_point_set_rejects_bad_counts():
    with pytest.raises(ValueError):
        point_set("halton", (2, 3), 0, 0)
    with pytest.raises(ValueError):
        point_set("halton", (2, 3), -1, 1)
    with pytest.raises(ValueError):
        point_set("halton", (2, 3), 0, EAGER_CAP + 1)
    with pytest.raises(ValueError):
        point_set("van_der_corput", (2, 3), 0, 1)
    with pytest.raises(ValueError):
        point_set("nonesuch", (2, 3), 0, 1)


def test_point_set_explicit_wraps_raw_tuples():
    ps = point_set("explicit", (2, 3),
                   points=[(F(1, 2), F(1, 3)), (0, 0)])
    assert ps.count == 2
    assert all(isinstance(pt, RationalPoint) for pt in ps.points)
    assert ps.points[1].coords == (F(0), F(0))


GEN_N = 200
GEN_BASES = ((2, 3), (2, 3, 5))
GEN_STARTS = (0, 5 ** 9, 10 ** 9 - GEN_N)
GENERATED = (
    [("halton", bases, start) for bases in GEN_BASES for start in GEN_STARTS]
    + [("van_der_corput", (p,), start) for p in (2, 3, 5)
       for start in GEN_STARTS]
    + [("hammersley", bases, 0) for bases in GEN_BASES])


@pytest.mark.parametrize("kind, bases, start", GENERATED)
def test_generated_columns_match_halton_point(kind, bases, start, tmp_path):
    ps = point_set(kind, bases, start, GEN_N)
    # The digit-reversal columns against the independent per-point route.
    for k, pt in enumerate(ps.points):
        expect = halton_point(start + k, bases).coords
        if kind == "hammersley":
            expect += (F(k, GEN_N),)
        assert pt.coords == expect
    # One representation, whichever way the same points arrive.
    explicit = point_set("explicit", bases,
                         points=[pt.coords for pt in ps.points])
    assert (explicit.dens, explicit.cols) == (ps.dens, ps.cols)
    path = tmp_path / "pts.csv"
    save_csv(ps, str(path))
    assert load_csv(str(path)) == ps


def test_float_view_is_correctly_rounded():
    # Numerators far beyond 2^53: one rounding, as float(Fraction) does.
    big = 3 ** 40
    pts = [(F(k, big), F(k % 7, 7)) for k in (0, 1, 2 ** 53 + 1, big // 2,
                                             big - 1, 5 ** 25)]
    for ps in (point_set("explicit", (2, 3), points=pts),
               point_set("halton", (2, 3), 10 ** 9 - 50, 50)):
        got = ps.float_matrix()
        assert got.shape == (ps.count, 2)
        for row, pt in zip(got.tolist(), ps.points):
            assert row == [float(c) for c in pt.coords]


def test_explicit_rejects_out_of_range_and_ragged_points():
    with pytest.raises(ValueError):
        point_set("explicit", (2, 3), points=[(F(1, 2), F(1))])
    with pytest.raises(ValueError):
        point_set("explicit", (2, 3), points=[(F(1, 2), F(1, 3)), (F(1, 2),)])


def test_rational_point_rejects_out_of_range():
    with pytest.raises(ValueError):
        RationalPoint((F(1), F(1, 2)))
    with pytest.raises(ValueError):
        RationalPoint((F(-1, 2),))


def test_rational_point_rejects_non_fraction_coordinates():
    for coords in ((0.5,), (F(1, 2), 0.25), (0,)):
        with pytest.raises(ValueError):
            RationalPoint(coords)
    assert RationalPoint((F(0), F(1, 2))).dim == 2


def test_explicit_rejects_an_empty_set():
    with pytest.raises(ValueError):
        point_set("explicit", (2, 3), points=[])


def test_basis_pair_validation_and_primality():
    bp = BasisPair(2, 3)
    assert bp.primality == (True, True)
    assert BasisPair(4, 9).primality == (False, False)
    with pytest.raises(ValueError):
        BasisPair(2, 4)
    assert BasisPair.of((5, 7)) == BasisPair(5, 7)
    assert BasisPair.of(bp) is bp


def test_csv_round_trip(tmp_path):
    for kind, bases, start, count in (
        ("halton", (2, 3), 11, 17),
        ("van_der_corput", (5,), 0, 9),
        ("hammersley", (2, 3), 0, 8),
    ):
        ps = point_set(kind, bases, start, count)
        path = tmp_path / f"{kind}.csv"
        save_csv(ps, str(path))
        back = load_csv(str(path))
        assert back == ps
    header = (tmp_path / "halton.csv").read_text().splitlines()
    assert header[1] == "x1,x2"
    assert header[2] == "0/1,0/1" or header[2].count("/") == 2


def test_csv_round_trip_without_bases(tmp_path):
    # An explicit set may carry no bases; its metadata line reads "bases=".
    ps = point_set("explicit", (), points=[(F(1, 2),)])
    path = tmp_path / "nobases.csv"
    save_csv(ps, str(path))
    assert " bases= " in path.read_text().splitlines()[0]
    assert load_csv(str(path)) == ps


def test_generated_kinds_need_a_base():
    for kind in ("halton", "hammersley", "van_der_corput"):
        with pytest.raises(ValueError, match="at least one base"):
            point_set(kind, (), 0, 4)


def test_load_csv_rejects_a_file_without_points(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# kind=explicit bases=2,3 start=0 count=0\nx1,x2\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def test_save_csv_writes_reduced_fractions_from_columns(tmp_path):
    # k/12 reduces for most k, so every coordinate goes through a gcd.
    ps = point_set("hammersley", (2, 3), 0, 12)
    path = tmp_path / "ham.csv"
    save_csv(ps, str(path))
    assert "points" not in vars(ps)  # the Fraction view stays unbuilt
    rows = path.read_text(encoding="utf-8").splitlines()
    assert rows[:2] == ["# kind=hammersley bases=2,3 start=0 count=12",
                        "x1,x2,x3"]
    expect = [",".join(f"{c.numerator}/{c.denominator}" for c in pt.coords)
              for pt in ps.points]
    assert rows[2:] == expect
    assert rows[5] == "3/4,1/9,1/4"


def test_float_view_preserves_grid_membership():
    # Denominators far below 2^50: float comparisons agree with exact ones.
    pts = [pt.coords[0] for pt in point_set("van_der_corput", (3,), 0, 200).points]
    depth = 3
    width = F(1, 3 ** depth)
    for cell in range(3 ** depth):
        lo = cell * width
        for c in pts:
            exact = lo <= c < lo + width
            approx = float(lo) <= float(c) < float(lo + width)
            assert exact == approx


def test_first_primes():
    assert first_primes(1) == (2,)
    assert first_primes(5) == (2, 3, 5, 7, 11)
    with pytest.raises(ValueError):
        first_primes(0)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_is_prime_refuses_non_integers():
    for n in (2.0, 3.0, 7.0, F(3), np.float64(5.0)):
        assert not is_prime(n)
    assert is_prime(np.int64(7)) and not is_prime(np.int64(9))
