"""haltonlab benchmark: one closed-loop client, one workload, one seed.

    python3 perfbench/run.py --workload set-metrics --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is used straight from `src/`.
Each pass runs in a fresh interpreter (`worker.py`) with the NumPy/BLAS/OpenMP
thread counts pinned to 1.  With `--trace 0` the last stdout line carries the
end-to-end metrics of an untraced pass; with `--trace 1` it carries the
per-layer metrics of a traced pass, plus the tracing overhead measured
against an untraced pass of the same queries.  The line before it is a
summary with the sample count, failure share and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only interpreters before and again after the pass
PASS_TIMEOUT_S = 170
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from report import percentile  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    for var in PIN_THREADS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(common: list[str]) -> list[float]:
    return [_worker(common + ["--setup-only"], 60)["setup_s"]
            for _ in range(SETUP_PROBES)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import importlib.metadata
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed, "clients": 1, "loop": "closed"}


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    lat = result["latencies_ms"]
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "throughput_qps": {"value": result["passed"] / result["timed_s"],
                           "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(lat, 50), "unit": "ms"},
        "latency_p90_ms": {"value": percentile(lat, 90), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("set-metrics", "corner-audit", "padic-scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small query sizes, for the smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "haltonlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no haltonlab sources under {ROOT / 'src'}\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)] + \
        (["--tiny"] if args.tiny else [])
    budget = ["--budget", str(min(PASS_TIMEOUT_S - 20, 3 * args.seconds + 20))]
    if not args.trace:
        setup = _setup_probes(common)
        untraced = _worker(common + budget + ["--seconds", str(args.seconds)],
                           PASS_TIMEOUT_S)
        setup += [untraced["setup_s"]] + _setup_probes(common)
        metrics = end_to_end(untraced, setup)
        shown = untraced
    else:
        # Two passes over the same rounds, untraced then traced, each about
        # half the run, so a traced run costs about as much as an untraced one.
        half = ["--budget", str(PASS_TIMEOUT_S / 2 - 10)]
        untraced = _worker(common + half + ["--seconds", str(args.seconds / 2),
                                            "--min-queries", "0"], PASS_TIMEOUT_S)
        traced = _worker(common + half + ["--rounds", str(untraced["rounds"]),
                                          "--traced"], PASS_TIMEOUT_S)
        setup = [untraced["setup_s"], traced["setup_s"]]
        base_qps = untraced["passed"] / untraced["timed_s"]
        traced_qps = traced["passed"] / traced["timed_s"]
        units = _layer_units()
        metrics = {name: {"value": value, "unit": units.get(name, "1")}
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_frac"] = {
            "value": (traced_qps - base_qps) / base_qps, "unit": "1"}
        shown = traced

    wrong = shown["wrong_count"] + shown["unexpected_count"]
    if args.trace:
        wrong += untraced["wrong_count"] + untraced["unexpected_count"]
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": shown["attempted"],
        "rounds": shown["rounds"],
        "failed_frac": (shown["attempted"] - shown["passed"]) / shown["attempted"],
        "timed_s": shown["timed_s"],
        "setup_samples_s": setup,
        "digest": shown["digest"],
        "wrong": shown["wrong"] + shown["unexpected"],
        "env": environment(args.seed),
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": shown["attempted"],
        "failed": shown["attempted"] - shown["passed"],
        "metrics": metrics,
    }))
    return 0


def _layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    raise SystemExit(main())
