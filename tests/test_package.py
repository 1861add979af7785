"""The package's public names."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import haltonlab


def test_star_import_and_every_public_name_resolves():
    namespace: dict = {}
    exec("from haltonlab import *", namespace)
    missing = [name for name in haltonlab.__all__
               if not hasattr(haltonlab, name)]
    assert missing == []
    assert set(haltonlab.__all__) <= set(namespace)


def test_oracles_load_by_file_path():
    # The benchmark loads tests/oracles.py this way, with only the package
    # importable, for its reference checks.
    spec = importlib.util.spec_from_file_location(
        "oracles_by_path", Path(__file__).with_name("oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    ps = haltonlab.point_set("halton", (2, 3), 0, 6)
    pts = [pt.coords for pt in ps.points]
    exact = haltonlab.l2_discrepancy_squared(ps, mode="exact").value
    assert oracles.piecewise_l2_squared(pts) == exact
    assert oracles.halton_point(5, (2, 3)).coords == (Fraction(5, 8),
                                                      Fraction(7, 9))
