"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import haltonlab as hl  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _make(name: str, tmp_path: Path):
    return workloads.make(name, True, tmp_path)


def _one_round(name: str, seed: int, tmp_path: Path) -> dict:
    return run_pass(_make(name, tmp_path), seed, 0.0, time.monotonic() + 60,
                    max_rounds=1)


def test_workload_names_match_spec():
    assert NAMES == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_queries_and_digest(name, tmp_path):
    a, b = _make(name, tmp_path), _make(name, tmp_path)
    assert a.round(7, 0) == b.round(7, 0)
    assert a.round(7, 1) == b.round(7, 1)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _one_round(name, 7, tmp_path / "a")
    second = _one_round(name, 7, tmp_path / "b")
    assert first["digest"] == second["digest"]
    assert first["wrong_count"] == 0 and first["unexpected_count"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_queries(name, tmp_path):
    w = _make(name, tmp_path)
    assert w.round(7, 0) != w.round(8, 0)
    assert w.round(7, 0) != w.round(7, 1)


@pytest.mark.parametrize("name", ["set-metrics", "corner-audit"])
def test_sizes_depend_on_round_only(name, tmp_path):
    """The seed draws offsets and corners, not sizes, so a round costs the
    same for every seed."""
    w = _make(name, tmp_path)

    def sizes(q):
        return q[4] if name == "set-metrics" else (q[3], q[4])

    for index in (0, 3):
        assert [sizes(q) for q in w.round(7, index)] == \
            [sizes(q) for q in w.round(8, index)]
    assert [sizes(q) for q in w.round(7, 0)] != [sizes(q) for q in w.round(7, 1)]


def test_known_defect_is_counted_as_failed(tmp_path):
    res = _one_round("set-metrics", 3, tmp_path)
    assert res["attempted"] - res["passed"] == 3
    assert res["unexpected_count"] == 0
    assert res["stats"]["oracle_checked"] >= 1


def test_float_answer_to_known_defect_is_checked(tmp_path):
    """A library that answers the known-defect queries on the float kernel,
    as the README's numerical policy says, passes the check; a wrong value
    does not."""
    w = _make("set-metrics", tmp_path)
    defects = [q for q in w.round(3, 0) if w.known_defect(q)]
    assert {q[2] for q in defects} == {(2, 3), (2, 3, 5)}
    for q in defects:
        ps = hl.point_set(q[1], q[2], q[3], q[4])
        value = hl.l2_discrepancy_squared(ps, mode="float").value
        w.check(q, (ps, hl.DiscrepancyValue(value, "float")))
        with pytest.raises(workloads.Mismatch):
            w.check(q, (ps, hl.DiscrepancyValue(value * (1 + 1e-8), "float")))


def test_exact_l2_int_matches_library_across_limb_paths():
    for bases, start, n in (((2, 3), 0, 40), ((2, 3), 10 ** 9 - 40, 40),
                            ((2, 3, 5), 1 << 21, 30)):
        ps = hl.point_set("halton", bases, start, n)
        assert workloads.exact_l2_int([pt.coords for pt in ps.points]) == \
            hl.l2_discrepancy_squared(ps, mode="exact").value


def test_raising_check_counts_as_wrong(tmp_path):
    class Broken(workloads.PadicScan):
        def check(self, q, ans):
            raise RuntimeError("reference route failed")

    res = run_pass(Broken(True, tmp_path), 7, 0.0, time.monotonic() + 60,
                   max_rounds=1)
    assert res["passed"] == 0 and res["wrong_count"] == res["attempted"]


def _run(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(name, trace):
    proc = _run(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "padic-scan":
            assert values["fourier.term.calls"] == 0
            assert values["discrepancy.l2.calls"] == 0
        if name == "corner-audit":
            assert values["discrepancy.l2.calls"] == 0
        assert 0.9 < values["trace.coverage_frac"] <= 1.0
    else:
        summary = json.loads(proc.stdout.strip().splitlines()[-2])
        assert summary["samples"] >= 100


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("padic-scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
