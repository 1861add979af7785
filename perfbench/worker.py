"""One benchmark pass of one workload, in a fresh interpreter.

Prints one JSON object on its last stdout line.  `run.py` starts this file
with the thread counts pinned; run it directly only to debug a pass:

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \
        python3 perfbench/worker.py --workload set-metrics --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
MIN_QUERIES = 100


def _setup(workload_name: str, tiny: bool, out_dir: Path):
    """Import the library and run the workload's warm-up queries.

    Only the library's part is timed: the import of `haltonlab` and
    `haltonlab.cli`, and the warm-up calls.  The benchmark's own module and
    the checks of the warm-up answers run outside the timer.
    """
    t0 = time.perf_counter()
    import haltonlab  # noqa: F401  (timed: import is part of set-up)
    import haltonlab.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    workload = workloads.make(workload_name, tiny, out_dir)
    warm = workload.warmup()
    t0 = time.perf_counter()
    answers = [workload.run(q) for q in warm]
    warm_s = time.perf_counter() - t0
    for q, ans in zip(warm, answers):
        workload.check(q, ans)
    return workload, import_s + warm_s


def run_pass(workload, seed: int, seconds: float, deadline: float,
             tracer=None, max_rounds: int | None = None,
             min_queries: int = MIN_QUERIES) -> dict:
    """Run whole rounds until about `seconds` of timed calls have passed.

    A pass runs at least `min_queries` queries, then stops at the round
    boundary closest to `seconds` of timed time.  With `max_rounds` it runs
    exactly that many rounds instead.  No round starts after `deadline`
    (monotonic clock).
    """
    digest = hashlib.sha256()
    latencies: list[float] = []
    passed = 0
    wrong: list[str] = []
    unexpected: list[str] = []
    timed = 0.0
    rounds = 0
    while True:
        for q in workload.round(seed, rounds):
            if tracer is not None:
                tracer.query_id = len(latencies)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                ans = workload.run(q)
                err = None
            except Exception as exc:  # noqa: BLE001  (counted, reported below)
                ans, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            timed += dt
            if err is not None:
                latencies.append(float("inf"))
                known = workload.known_defect(q) and isinstance(err, ValueError)
                digest.update(repr((q, type(err).__name__)).encode())
                if not known:
                    unexpected.append(f"{q!r}: {type(err).__name__}: {err}")
                continue
            # A check that raises anything, not only Mismatch, marks the
            # answer wrong.
            try:
                workload.check(q, ans)
            except Exception as exc:  # noqa: BLE001
                latencies.append(float("inf"))
                wrong.append(f"{type(exc).__name__}: {exc}")
                continue
            workload.digest(digest, q, ans)
            latencies.append(dt * 1e3)
            passed += 1
        rounds += 1
        if time.monotonic() > deadline:
            break
        if max_rounds is not None:
            if rounds >= max_rounds:
                break
        elif len(latencies) >= min_queries and timed + timed / rounds / 2 >= seconds:
            break
    return {
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "passed": passed,
        "wrong": wrong[:5],
        "wrong_count": len(wrong),
        "unexpected": unexpected[:5],
        "unexpected_count": len(unexpected),
        "timed_s": timed,
        "rounds": rounds,
        "digest": digest.hexdigest(),
        "stats": dict(workload.stats),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--budget", type=float, default=150.0,
                    help="wall seconds after which no new round starts")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the smoke tests")
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds instead of timing")
    ap.add_argument("--min-queries", type=int, default=MIN_QUERIES)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.budget

    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR))
    try:
        workload, setup_s = _setup(args.workload, args.tiny, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.traced:
            from tracing import Tracer
            import haltonlab.residue as residue
            cache = getattr(residue, "_crt_cached", None)
            before = cache.cache_info() if cache else None
            tracer = Tracer()
            tracer.install()
        result = run_pass(workload, args.seed, args.seconds, deadline, tracer,
                          args.rounds, args.min_queries)
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            after = cache.cache_info() if cache else None
            from report import layer_metrics
            result["layers"] = layer_metrics(tracer, result, before, after)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
