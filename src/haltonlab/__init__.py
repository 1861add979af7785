"""Exact low-discrepancy point sets and their discrepancy decompositions.

Generation with rational coordinates, exact local/L2/star discrepancy,
residue-class decompositions of the discrepancy function with an
exponential-sum cross-check, and p-adic valuation scans.
"""

from .radical import (
    EAGER_CAP,
    KINDS,
    BasisPair,
    PointSet,
    RationalPoint,
    first_primes,
    is_prime,
    load_csv,
    point_set,
    save_csv,
)
from .residue import (
    ResidueData,
    crt_inverses,
    in_elementary_interval,
    signed_rep,
    signed_residues,
)
from .discrepancy import (
    DiscrepancyValue,
    count_in_class,
    decomposition_layers,
    decomposition_term,
    l2_discrepancy_squared,
    local_discrepancy,
    star_discrepancy,
    truncate_digits,
    truncated_discrepancy,
)
from .fourier import (
    decomposition_term_fourier,
    digit_split,
    partition_label,
    resonance_sums,
    second_moment_block,
)
from .padic import (
    LinearFormInstance,
    ScanReport,
    ZeroFormError,
    linear_form_scan,
    linear_form_valuation,
    lte_valuation,
    multiplicative_order,
    valuation,
)

__version__ = "0.1.0"

__all__ = [
    "EAGER_CAP",
    "KINDS",
    "BasisPair",
    "DiscrepancyValue",
    "LinearFormInstance",
    "PointSet",
    "RationalPoint",
    "ResidueData",
    "ScanReport",
    "ZeroFormError",
    "count_in_class",
    "crt_inverses",
    "decomposition_layers",
    "decomposition_term",
    "decomposition_term_fourier",
    "digit_split",
    "first_primes",
    "in_elementary_interval",
    "is_prime",
    "l2_discrepancy_squared",
    "linear_form_scan",
    "linear_form_valuation",
    "load_csv",
    "local_discrepancy",
    "lte_valuation",
    "multiplicative_order",
    "partition_label",
    "point_set",
    "resonance_sums",
    "save_csv",
    "second_moment_block",
    "signed_rep",
    "signed_residues",
    "star_discrepancy",
    "truncate_digits",
    "truncated_discrepancy",
    "valuation",
]
