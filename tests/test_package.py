"""The package's public names."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
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


# Every module that importing the package and its CLI loads once numpy is
# in: the package's own seven and fifteen from the standard library.  A new
# import lengthens every CLI start-up, so it has to be added here on purpose.
IMPORTS_AFTER_NUMPY = {
    "haltonlab", "haltonlab.cli", "haltonlab.discrepancy",
    "haltonlab.fourier", "haltonlab.padic", "haltonlab.radical",
    "haltonlab.residue",
    "__future__", "_csv", "_decimal", "_json", "argparse", "copy", "csv",
    "dataclasses", "decimal", "fractions", "gettext", "json",
    "json.decoder", "json.encoder", "json.scanner",
}


def test_imports_after_numpy_are_the_known_ones():
    probe = ("import sys, numpy; before = set(sys.modules); "
             "import haltonlab, haltonlab.cli; "
             "print('\\n'.join(sorted(set(sys.modules) - before)))")
    src = str(Path(haltonlab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(out.split())
    assert "haltonlab.cli" in loaded
    assert loaded - IMPORTS_AFTER_NUMPY == set()


# The package's 37 public names; a new one has to be added here on purpose.
PUBLIC_NAMES = [
    "BasisPair", "DiscrepancyValue", "EAGER_CAP", "KINDS",
    "LinearFormInstance", "PointSet", "RationalPoint", "ResidueData",
    "ScanReport", "ZeroFormError", "count_in_class", "crt_inverses",
    "decomposition_layers", "decomposition_term", "decomposition_term_fourier",
    "digit_split", "first_primes", "in_elementary_interval", "is_prime",
    "l2_discrepancy_squared", "linear_form_scan", "linear_form_valuation",
    "load_csv", "local_discrepancy", "lte_valuation", "multiplicative_order",
    "partition_label", "point_set", "resonance_sums", "save_csv",
    "second_moment_block", "signed_rep", "signed_residues", "star_discrepancy",
    "truncate_digits", "truncated_discrepancy", "valuation",
]


def test_public_names_are_the_known_ones():
    assert sorted(haltonlab.__all__) == PUBLIC_NAMES
