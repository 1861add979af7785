"""Metric arithmetic shared by the worker and the launcher."""

from __future__ import annotations

import math


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; +inf entries (failed queries) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, result: dict, cache_before, cache_after) -> dict:
    """Per-layer metrics of a traced pass, keyed as in BENCHMARK.json."""
    t = tracer
    c = t.counts
    stats = result["stats"]
    m: dict[str, float] = {}

    points = c["radical.points"]
    generated = t.calls["radical.halton_point"]
    distinct = sum(len(s) for s in t.requested.values())
    m["radical.point_set.calls"] = t.calls["radical.point_set"]
    m["radical.point_set.busy_s"] = t.group_busy_s("radical.point_set")
    m["radical.points"] = points
    m["radical.points_per_s"] = _per_s(points, m["radical.point_set.busy_s"])
    m["radical.halton_point.calls"] = generated
    m["radical.reuse_ratio"] = distinct / generated if generated else 0.0

    m["residue.crt_inverses.calls"] = t.calls["residue.crt_inverses"]
    hit_ratio = 0.0
    if cache_before is not None and cache_after is not None:
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    m["residue.crt_cache.hit_ratio"] = hit_ratio
    m["residue.corner_residue.calls"] = t.calls["residue.corner_residue"]
    m["residue.in_elementary_interval.calls"] = t.calls["residue.in_elementary_interval"]
    m["residue.in_elementary_interval.busy_s"] = \
        t.group_busy_s("residue.in_elementary_interval")

    l2_busy = t.group_busy_s("discrepancy.l2")
    m["discrepancy.l2.calls"] = t.calls["discrepancy.l2_discrepancy_squared"]
    m["discrepancy.l2.busy_s"] = l2_busy
    m["discrepancy.l2.pairs"] = c["discrepancy.l2.pairs"]
    m["discrepancy.l2.pairs_per_s"] = _per_s(c["discrepancy.l2.pairs"], l2_busy)
    m["discrepancy.l2.errors"] = c["discrepancy.l2.errors"]
    for route in ("exact2", "exactN", "float"):
        m[f"discrepancy.l2.{route}.busy_s"] = c[f"discrepancy.l2.{route}.busy_ns"] / 1e9
    m["discrepancy.star.calls"] = t.calls["discrepancy.star_discrepancy"]
    m["discrepancy.star.busy_s"] = t.group_busy_s("discrepancy.star")
    m["discrepancy.star.corners"] = c["discrepancy.star.corners"]
    m["discrepancy.local.calls"] = t.calls["discrepancy.local_discrepancy"]
    m["discrepancy.local.busy_s"] = t.group_busy_s("discrepancy.local")
    m["discrepancy.local.point_tests"] = c["discrepancy.local.point_tests"]
    m["discrepancy.decomposition.calls"] = t.calls["discrepancy.decomposition_term"]
    m["discrepancy.decomposition.busy_s"] = t.group_busy_s("discrepancy.decomposition")

    f_busy = t.group_busy_s("fourier.term")
    m["fourier.term.calls"] = t.calls["fourier.decomposition_term_fourier"]
    m["fourier.term.busy_s"] = f_busy
    m["fourier.term.frequencies"] = c["fourier.term.frequencies"]
    m["fourier.term.frequencies_per_s"] = _per_s(c["fourier.term.frequencies"], f_busy)
    m["fourier.term.max_dev_over_P"] = stats.get("fourier_max_dev_over_P", 0.0)

    scan_busy = t.group_busy_s("padic.scan")
    m["padic.scan.calls"] = t.calls["padic.linear_form_scan"]
    m["padic.scan.busy_s"] = scan_busy
    m["padic.scan.instances"] = c["padic.scan.instances"]
    m["padic.scan.instances_per_s"] = _per_s(c["padic.scan.instances"], scan_busy)
    m["padic.lte.calls"] = t.calls["padic.lte_valuation"]
    m["padic.lte.busy_s"] = t.group_busy_s("padic.lte")
    m["padic.csv.bytes"] = stats.get("csv_bytes", 0)

    main_key = "cli.main"
    layer_self = t.layer_self_s()
    m["cli.main.calls"] = t.calls[main_key]
    m["cli.main.busy_s"] = t.incl_ns[main_key] / 1e9
    m["cli.self_s"] = layer_self["cli"]
    m["cli.stdout_bytes"] = stats.get("stdout_bytes", 0)

    for layer, secs in layer_self.items():
        if layer != "cli":
            m[f"{layer}.self_s"] = secs
    wall = result["timed_s"]
    m["trace.wall_s"] = wall
    m["trace.coverage_frac"] = sum(layer_self.values()) / wall if wall else 0.0
    m["trace.spans"] = len(t.spans)
    return m
