"""Valuations, the linear-form valuation, and coefficient scans."""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

import pytest

from haltonlab import (
    LinearFormInstance,
    ScanReport,
    ZeroFormError,
    linear_form_scan,
    linear_form_valuation,
    lte_valuation,
    multiplicative_order,
    valuation,
)

from oracles import brute_power_valuation

F = Fraction


def test_valuation_frozen_values():
    assert valuation(12, 2) == 2
    for p in (2, 3, 5, 97):
        assert valuation(1, p) == 0
    assert valuation(0, 5) == math.inf


def test_valuation_negatives_and_rejection():
    assert valuation(-12, 2) == 2
    with pytest.raises(ValueError):
        valuation(12, 4)
    with pytest.raises(ValueError):
        valuation(12, 1)
    # integers only: the forms l1 * p_other**b - l2 are integers
    for x in (F(2, 9), F(4), 4.0):
        with pytest.raises(ValueError):
            valuation(x, 2)


def test_valuation_multiplicative():
    rng = random.Random(1729)
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        x = rng.randrange(-500, 500) or 1
        y = rng.randrange(-500, 500) or 1
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_linear_form_instance_validation():
    LinearFormInstance(2, 3, 2, 6, 4)
    with pytest.raises(ValueError):
        LinearFormInstance(4, 3, 1, 1, 2)
    with pytest.raises(ValueError):
        LinearFormInstance(3, 3, 1, 1, 2)
    with pytest.raises(ValueError):
        LinearFormInstance(2, 3, 0, 1, 2)
    with pytest.raises(ValueError):
        LinearFormInstance(2, 3, 2, 1, 2)
    with pytest.raises(ValueError):
        LinearFormInstance(2, 3, 1, 1, -1)


def test_linear_form_valuation_frozen_values():
    assert linear_form_valuation(LinearFormInstance(2, 3, 1, 1, 2)) == 3
    assert linear_form_valuation(LinearFormInstance(2, 3, 1, 1, 1)) == 1
    assert linear_form_valuation(LinearFormInstance(3, 2, 1, 1, 6)) == 2


def test_linear_form_valuation_zero_form():
    with pytest.raises(ZeroFormError):
        linear_form_valuation(LinearFormInstance(2, 3, 1, 9, 2))


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(8, 7) == 1
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)
    with pytest.raises(ValueError):
        multiplicative_order(3, 8)


def test_lte_valuation_matches_direct_factorization():
    for p in (2, 3, 5, 7):
        for a in (2, 3, 4, 5, 6, 9, 10, 17, 26, 31):
            if a % p == 0:
                continue
            for k in range(1, 61):
                assert lte_valuation(p, a, k) == brute_power_valuation(p, a, k)


def test_lte_valuation_guards():
    with pytest.raises(ValueError):
        lte_valuation(3, 6, 2)
    with pytest.raises(ValueError):
        lte_valuation(3, 2, 0)


def test_scan_monotone_under_enlargement():
    small = linear_form_scan(2, 3, 5, 30)
    large = linear_form_scan(2, 3, 10, 50)
    assert isinstance(small, ScanReport)
    assert large.max_ord >= small.max_ord
    assert large.max_ratio >= small.max_ratio


def test_scan_counts_skips():
    rep = linear_form_scan(2, 3, 10, 2)
    # Exact zeros at (1,3,b=1), (2,6,b=1), (3,9,b=1), (1,9,b=2).
    assert rep.skipped_zero == 4
    assert rep.skipped_mismatched > 0
    per_b = rep.examined + rep.skipped_mismatched + rep.skipped_zero
    assert per_b == 2 * (2 * 10) * 10


def test_scan_agrees_with_exponent_lifting():
    # Equal coefficients factor the form as l * (p_other**b - 1).
    for p, p_other in ((2, 3), (3, 2)):
        for l in range(1, 11):
            for b in range(1, 51):
                inst = LinearFormInstance(p, p_other, l, l, b)
                got = linear_form_valuation(inst)
                want = int(valuation(l, p)) + lte_valuation(p, p_other, b)
                assert got == want


def test_scan_report_fields_and_csv(tmp_path):
    path = tmp_path / "scan.csv"
    rep = linear_form_scan(2, 3, 6, 20, csv_path=str(path))
    assert rep.p == 2 and rep.p_other == 3
    assert rep.csv_path == str(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["l1", "l2", "b", "ord", "ratio"]
    assert len(rows) > 1
    best = 0.0
    for l1, l2, b, v, ratio in rows[1:]:
        inst = LinearFormInstance(2, 3, int(l1), int(l2), int(b))
        assert linear_form_valuation(inst) == int(v)
        assert int(v) >= 1
        best = max(best, float(ratio))
    assert best == rep.max_ratio
    # one row for each instance of order >= 1, and no other
    hits = [(l1, l2, b) for b in range(1, 21) for l1 in range(-6, 7)
            for l2 in range(1, 7)
            if l1 and valuation(l1, 2) == valuation(l2, 2)
            and l1 * 3 ** b != l2 and valuation(l1 * 3 ** b - l2, 2) >= 1]
    assert sorted(tuple(map(int, row[:3])) for row in rows[1:]) == sorted(hits)


def test_scan_max_ratio_is_attained():
    rep = linear_form_scan(2, 3, 8, 25)
    l1, l2, b = rep.max_ratio_at
    v = linear_form_valuation(LinearFormInstance(2, 3, l1, l2, b))
    denom = (math.log2(max(abs(l1), abs(l2), 3))
             * math.log2(max(abs(b), 3)))
    assert math.isclose(v / denom, rep.max_ratio, rel_tol=1e-12)


def test_scan_rejections():
    with pytest.raises(ValueError):
        linear_form_scan(2, 2, 5, 5)
    with pytest.raises(ValueError):
        linear_form_scan(4, 3, 5, 5)
    with pytest.raises(ValueError):
        linear_form_scan(2, 3, 0, 5)
