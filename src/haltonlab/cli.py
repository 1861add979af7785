"""Command-line harness: generation, discrepancy, scaling, audits, scans.

Verbs: generate | discrepancy | scaling | verify | clt | padic-scan.
Reports go to stdout as single-line JSON with a schema_version field; bulk
tables go to --out as CSV with a header row.  Identical flags and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .radical import BasisPair, first_primes, point_set, save_csv
from .residue import in_elementary_interval
from .discrepancy import (
    decomposition_layers,
    decomposition_term,
    l2_discrepancy_squared,
    local_discrepancy,
    star_discrepancy,
    truncated_discrepancy,
)
from .fourier import (
    decomposition_term_fourier,
    resonance_sums,
    second_moment_block,
)
from .padic import (
    LinearFormInstance,
    linear_form_scan,
    linear_form_valuation,
    lte_valuation,
    valuation,
)

SCHEMA_VERSION = "1"

# Committed audit constants.  The moment-block ratio bound was calibrated
# from the audit run at n = 2, bases (2,3), zero thresholds, N in {1,2,3},
# Q in {0, 1, 7, 123, 10^6}: observed max lhs/rhs = 0.0064, so the committed
# bound 1.0 holds with two orders of magnitude to spare.
MOMENT_RATIO_BOUND = 1.0
# clt's D2 route: the float pair sum up to PAIRSUM_MAX points, above that
# NORM_DRAWS Monte Carlo draws in blocks of 1024.
PAIRSUM_MAX = 1 << 12
NORM_DRAWS = 1 << 16


@dataclass(frozen=True)
class ScalingRow:
    n: int
    q: int
    d2: float
    d2_over_logn: float
    d2_over_sqrtlogn: float


def _emit(report: dict, out: str | None = None) -> None:
    """Write the report as one sorted-key JSON line to stdout and to `out`."""
    line = json.dumps(report, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(line)
    sys.stdout.write(line)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _parse_fraction_point(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(tok.strip()) for tok in text.split(","))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2 ** 64 - 1), stream])


# ---------------------------------------------------------------------------
# generate / discrepancy

def cmd_generate(args) -> int:
    ps = point_set(args.kind, args.bases, args.q, args.n)
    save_csv(ps, args.out)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "kind": args.kind,
        "bases": list(args.bases),
        "q": args.q,
        "n": args.n,
        "path": args.out,
    })
    return 0


def cmd_discrepancy(args) -> int:
    ps = point_set(args.kind, args.bases, args.q, args.n)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "discrepancy",
        "metric": args.metric,
        "kind": args.kind,
        "bases": list(args.bases),
        "q": args.q,
        "n": args.n,
    }
    if args.metric == "l2sq":
        val = l2_discrepancy_squared(ps, mode=args.mode)
    elif args.metric == "star":
        val = star_discrepancy(ps)
    else:
        if args.x is None:
            raise ValueError("local metric needs --x num/den,num/den")
        val = local_discrepancy(args.x, ps)
    report["mode"] = val.mode
    if isinstance(val.value, Fraction):
        report["value_num"] = val.value.numerator
        report["value_den"] = val.value.denominator
    report["value_f64"] = val.as_float()
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# scaling

def _fit_slope(ys: list[float]) -> float:
    """Least-squares slope of ys against 0..len-1."""
    k = len(ys)
    if k < 2:
        return 0.0
    xs = np.arange(k, dtype=float)
    y = np.asarray(ys)
    xbar = xs.mean()
    den = ((xs - xbar) ** 2).sum()
    return float(((xs - xbar) * (y - y.mean())).sum() / den)


def cmd_scaling(args) -> int:
    grid = tuple(sorted(args.n_grid)) if args.n_grid else tuple(
        2 ** j for j in range(args.j_min, args.j_max + 1))
    if any(n < 2 for n in grid):
        raise ValueError("scaling needs N >= 2 (log N normalization)")
    rows: list[ScalingRow] = []
    for q in args.q_list:
        for n in grid:
            ps = point_set("halton", args.bases, q, n)
            d2 = math.sqrt(l2_discrepancy_squared(ps, mode="exact").as_float())
            ln = math.log(n)
            rows.append(ScalingRow(n=n, q=q, d2=d2, d2_over_logn=d2 / ln,
                                   d2_over_sqrtlogn=d2 / math.sqrt(ln)))
    rows.sort(key=lambda r: (r.q, r.n))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("n,q,d2,d2_over_logn,d2_over_sqrtlogn\n")
            for r in rows:
                fh.write(f"{r.n},{r.q},{r.d2!r},{r.d2_over_logn!r},"
                         f"{r.d2_over_sqrtlogn!r}\n")

    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "scaling",
        "bases": list(args.bases),
        "mode": "exact",
        "log_base": "e",
        "rows": len(rows),
        "series": {},
    }
    for q in args.q_list:
        ratios = [r.d2_over_logn for r in rows if r.q == q]
        if not ratios:
            continue
        summary["series"][str(q)] = {
            "count": len(ratios),
            "slope": _fit_slope(ratios),
            "mean_ratio": float(np.mean(ratios)),
            "min_sqrt_ratio": min(r.d2_over_sqrtlogn for r in rows if r.q == q),
        }
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _suite_report(name: str, cases: int, violations: int,
                  max_deviation: float, **extra) -> dict:
    """One suite's entry in the verify report; it passes with no violation."""
    return {"suite": name, "cases": cases, "violations": violations,
            "max_deviation": max_deviation, "pass": violations == 0, **extra}


def _suite_membership(args, bp: BasisPair) -> dict:
    s = (2, 2)
    q1, q2 = bp.p1 ** 2, bp.p2 ** 2
    cells = [((a1, a2), (Fraction(a1, q1), Fraction(a2, q2)))
             for a1 in range(q1) for a2 in range(q2)]
    ps = point_set("halton", bp.as_tuple(), 0, 5 * q1 * q2)
    d1, d2 = ps.dens
    violations = 0
    for k, (a1, a2) in enumerate(zip(*ps.cols)):
        # floor(x_i q_i) in integers: the point's depth-(2, 2) cell
        home = (a1 * q1 // d1, a2 * q2 // d2)
        for cell, y in cells:
            if (cell == home) != in_elementary_interval(k, y, s, bp):
                violations += 1
    return _suite_report("membership", ps.count * len(cells), violations,
                         float(violations > 0))


def _suite_decomposition(args, bp: BasisPair, cases: int = 25) -> dict:
    rng = _rng(args.seed, 2)
    violations = 0
    max_err = Fraction(0)
    bound = bp.p1 * bp.p2
    for _ in range(cases):
        q = int(rng.integers(0, 10 ** 6 + 1))
        n = int(rng.integers(1, 1025))
        den1 = int(rng.integers(2, 10 ** 6))
        den2 = int(rng.integers(2, 10 ** 6))
        x = (Fraction(int(rng.integers(0, den1)), den1),
             Fraction(int(rng.integers(0, den2)), den2))
        layers = decomposition_layers(x, q, n, bp)
        total = sum(layers.values(), Fraction(0))
        trunc = truncated_discrepancy(x, q, n, bp)
        ps = point_set("halton", bp.as_tuple(), q, n)
        d = local_discrepancy(x, ps).value
        err = abs(trunc - d)
        max_err = max(max_err, err)
        if total != trunc or err > 2:
            violations += 1
        if any(abs(v) >= bound for v in layers.values()):
            violations += 1
    return _suite_report("decomposition", cases, violations, float(max_err))


def _depth_pairs_within(bp: BasisPair, p_cap: int) -> list[tuple[int, int]]:
    out = []
    r1 = 1
    while bp.p1 ** r1 * bp.p2 <= p_cap:
        r2 = 1
        while bp.p1 ** r1 * bp.p2 ** r2 <= p_cap:
            out.append((r1, r2))
            r2 += 1
        r1 += 1
    return out


def _suite_fourier(args, bp: BasisPair, cases_per_depth: int = 5,
                   p_cap: int = 200) -> dict:
    rng = _rng(args.seed, 3)
    violations = 0
    max_rel = 0.0
    depths = _depth_pairs_within(bp, p_cap)
    for r in depths:
        p_br = bp.p1 ** r[0] * bp.p2 ** r[1]
        for _ in range(cases_per_depth):
            q = int(rng.integers(0, 10 ** 6 + 1))
            n = int(rng.integers(1, 1025))
            den1 = int(rng.integers(2, 10 ** 4))
            den2 = int(rng.integers(2, 10 ** 4))
            x = (Fraction(int(rng.integers(0, den1)), den1),
                 Fraction(int(rng.integers(0, den2)), den2))
            exact = decomposition_term(x, r, q, n, bp)
            alt = decomposition_term_fourier(x, r, q, n, bp)
            dev = abs(alt - float(exact))
            max_rel = max(max_rel, dev / p_br)
            if dev > 1e-8 * p_br:
                violations += 1
    return _suite_report("fourier", len(depths) * cases_per_depth, violations,
                         max_rel)


def _suite_moments(args, bp: BasisPair) -> dict:
    violations = 0
    max_ratio = 0.0
    cases = 0
    # Zero thresholds, the setting MOMENT_RATIO_BOUND was calibrated at.
    for n_count in (1, 2, 3):
        for lam in ((0, 0), (0, 1), (1, 0), (1, 1)):
            lhs, rhs = second_moment_block(lam, n_count, args.q, bp, 2, 0, 0)
            if rhs == 0.0:
                if lhs > 1e-12:
                    violations += 1
            else:
                max_ratio = max(max_ratio, lhs / rhs)
                if lhs > MOMENT_RATIO_BOUND * rhs:
                    violations += 1
            d_star, d_sharp = resonance_sums(lam, bp, 2, 0, 0, m_cap=500)
            if d_star > d_sharp * (1 + 1e-12):
                violations += 1
            cases += 1
    return _suite_report("moments", cases, violations, max_ratio,
                         ratio_bound=MOMENT_RATIO_BOUND)


def _suite_padic(args, bp: BasisPair, l_max: int = 10, b_max: int = 50
                 ) -> dict:
    violations = 0
    max_ord = 0
    cases = 0
    for p, p_other in ((bp.p1, bp.p2), (bp.p2, bp.p1)):
        report = linear_form_scan(p, p_other, l_max, b_max)
        max_ord = max(max_ord, report.max_ord)
        cases += report.examined
        for l in range(1, l_max + 1):
            for b in range(1, b_max + 1):
                inst = LinearFormInstance(p=p, p_other=p_other, l1=l, l2=l, b=b)
                got = linear_form_valuation(inst)
                expect = valuation(l, p) + lte_valuation(p, p_other, b)
                if got != expect:
                    violations += 1
                cases += 1
    return _suite_report("padic", cases, violations, float(max_ord))


_SUITES = {
    "membership": _suite_membership,
    "decomposition": _suite_decomposition,
    "fourier": _suite_fourier,
    "moments": _suite_moments,
    "padic": _suite_padic,
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(args) -> int:
    if len(args.bases) != 2:
        raise ValueError(f"verify needs exactly two bases, got {len(args.bases)}")
    if args.q < 0:
        raise ValueError(f"--q must be >= 0, got {args.q}")
    bp = BasisPair.of(args.bases)
    names = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    if "padic" in names and not all(bp.primality):
        raise ValueError("padic suite needs prime bases")
    reports = [_SUITES[name](args, bp) for name in names]
    ok = all(rep["pass"] for rep in reports)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": args.seed,
        "bases": list(args.bases),
        "suites": reports,
        "pass": ok,
    }, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# clt

def _counts_below(pts: np.ndarray, xs: np.ndarray, block: int = 256
                  ) -> np.ndarray:
    out = np.empty(len(xs))
    for i in range(0, len(xs), block):
        xb = xs[i:i + block]
        out[i:i + block] = (
            pts[None, :, :] < xb[:, None, :]
        ).all(axis=2).sum(axis=1)
    return out


def _ks_to_normal(sample: np.ndarray) -> float:
    ordered = np.sort(sample)
    k = len(ordered)
    worst = 0.0
    for i, t in enumerate(ordered):
        cdf = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        worst = max(worst, abs((i + 1) / k - cdf), abs(i / k - cdf))
    return worst


def cmd_clt(args) -> int:
    if args.s < 1:
        raise ValueError(f"--s must be >= 1, got {args.s}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    s = args.s
    n = args.n
    dim = s + 1
    bases = first_primes(s)
    ps = point_set("hammersley", bases, 0, n)
    pts = ps.float_matrix()

    if n <= PAIRSUM_MAX:
        d2sq = l2_discrepancy_squared(ps, mode="float").as_float()
        d2_mode_used = "pairsum"
        norm_draws = 0
    else:
        rng = _rng(args.seed, 1)
        norm_draws = NORM_DRAWS
        acc = 0.0
        for _ in range(NORM_DRAWS // 1024):
            xs = rng.random((1024, dim))
            d = _counts_below(pts, xs) - n * xs.prod(axis=1)
            acc += float((d * d).sum())
        d2sq = acc / NORM_DRAWS
        d2_mode_used = "mc"
    d2 = math.sqrt(d2sq)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "clt",
        "s": s,
        "dim": dim,
        "bases": list(bases),
        "n": n,
        "samples": args.samples,
        "seed": args.seed,
        "d2_mode": d2_mode_used,
        "norm_draws": norm_draws,
        "d2": d2,
        "outside_claim": s < 3,
    }
    if args.samples == 0:
        report["ks_defined"] = False
        report["histogram"] = {"edges": [], "counts": []}
    else:
        rng = _rng(args.seed, 2)
        xs = rng.random((args.samples, dim))
        d = _counts_below(pts, xs) - n * xs.prod(axis=1)
        t = d / d2
        edges = np.linspace(-5.0, 5.0, 41)
        counts, _ = np.histogram(t, bins=edges)
        report.update({
            "ks_defined": True,
            "ks": _ks_to_normal(t),
            "mean": float(t.mean()),
            "sd": float(t.std()),
            "kappa1_ratio": float(np.abs(t).mean() / math.sqrt(2.0 / math.pi)),
            "kappa4_ratio": float((t ** 4).mean() / 3.0),
            "histogram": {
                "edges": [float(e) for e in edges],
                "counts": [int(c) for c in counts],
            },
        })
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# padic-scan

def cmd_padic_scan(args) -> int:
    report = linear_form_scan(args.p, args.p_other, args.l_max, args.b_max,
                              csv_path=args.out)
    payload = {"schema_version": SCHEMA_VERSION, "command": "padic-scan"}
    payload.update(asdict(report))
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_point_set(sp) -> None:
    """The flags that pick the point set of generate and discrepancy."""
    sp.add_argument("--bases", type=_parse_int_list, default=(2, 3))
    sp.add_argument("--q", type=int, default=0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=("halton", "hammersley", "van_der_corput"),
                    default="halton")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltonlab",
        description="Low-discrepancy point sets and their exact discrepancy "
                    "decompositions.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a point set as exact CSV",
                       allow_abbrev=False)
    _add_point_set(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("discrepancy", help="compute one discrepancy metric",
                       allow_abbrev=False)
    _add_point_set(d)
    d.add_argument("--mode", choices=("exact", "float"), default="exact")
    d.add_argument("--out", default=None)
    d.add_argument("--metric", choices=("l2sq", "star", "local"), default="l2sq")
    d.add_argument("--x", type=_parse_fraction_point, default=None,
                   help="box corner for --metric local, e.g. 1/2,2/3")
    d.set_defaults(func=cmd_discrepancy)

    sc = sub.add_parser("scaling", help="D2 against log N over a grid",
                        allow_abbrev=False)
    sc.add_argument("--bases", type=_parse_int_list, default=(2, 3))
    sc.add_argument("--out", default=None)
    sc.add_argument("--n-grid", type=_parse_int_list, default=None)
    sc.add_argument("--j-min", type=int, default=4)
    sc.add_argument("--j-max", type=int, default=12)
    sc.add_argument("--q-list", type=_parse_int_list, default=(0,))
    sc.set_defaults(func=cmd_scaling)

    v = sub.add_parser("verify", help="run identity audit suites",
                       allow_abbrev=False)
    v.add_argument("--bases", type=_parse_int_list, default=(2, 3))
    v.add_argument("--q", type=int, default=0)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.add_argument("--suite", choices=VERIFY_SUITES + ("all",), default="all")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("clt", help="normalized local-discrepancy sampling",
                       allow_abbrev=False)
    c.add_argument("--s", type=int, default=3,
                   help="Halton dimension; the sampled set has s+1 axes")
    c.add_argument("--n", type=int, default=1 << 12)
    c.add_argument("--samples", type=int, default=10 ** 4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_clt)

    p = sub.add_parser("padic-scan", help="valuation sweep of two-prime forms",
                       allow_abbrev=False)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--p-other", type=int, default=3)
    p.add_argument("--l-max", type=int, default=10)
    p.add_argument("--b-max", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_padic_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
