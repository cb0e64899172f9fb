"""Benchmark of the plsa command-line pipeline on seeded synthetic corpora.

    python3 perfbench/run.py --workload med-tem --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
./src).  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The program is single-threaded apart from BLAS; pin every BLAS/OpenMP pool
# before numpy loads so that runs on a shared 2-core host stay comparable.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
DEADLINE_S = 170.0


def host_info():
    """Facts that tell a slow host from a slow change; not metrics."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV}}
    try:
        info["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        info["steal_ticks"] = int(cpu[8])
        info["total_ticks"] = sum(int(x) for x in cpu[1:])
    except (OSError, IndexError, ValueError):
        pass
    return info


def library_info():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the smoke-test sizes")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "plsa" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a plsa checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import plsa.cli
    import checks
    import tracing
    import workloads
    from worker import run_pass

    table = workloads.FULL if args.size == "full" else workloads.TOY
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    host_before = host_info()
    run_dir = HERE / "work" / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    data = run_dir / "data"
    try:
        # set-up, several times; the last one's files feed the timed pass
        setup_s, setup_records = [], []
        for _ in range(workloads.SETUP_REPEATS):
            shutil.rmtree(data, ignore_errors=True)
            t0 = time.perf_counter()
            workloads.generate(wl, args.seed, data)
            record = run_pass(plsa.cli.main, workloads.steps(wl, data, args.seed, wl.setup), data)
            setup_s.append(time.perf_counter() - t0)
            if any(rec["rc"] != 0 for rec in record):
                raise RuntimeError(f"a set-up command failed: {record}")
            setup_records.append(record)

        # warm-up inputs for the worker: the toy corpus, never timed
        warm = run_dir / "warmup"
        toy = workloads.TOY["med-query"]
        workloads.generate(toy, 0, warm)
        plan = {
            "src": str(SRC), "work": str(data), "warmup_dir": str(warm),
            "warmup": workloads.steps(toy, warm, 0, toy.setup + toy.once + toy.loop),
            "once": workloads.steps(wl, data, args.seed, wl.once),
            "loop": workloads.steps(wl, data, args.seed, wl.loop),
            "seconds": args.seconds, "min_rounds": wl.min_rounds, "trace": args.trace,
        }
        (run_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        phase = {"setup": time.perf_counter() - started}
        env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
        budget = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(run_dir / "plan.json"),
             str(run_dir / "result.json")],
            env=env, stdout=subprocess.DEVNULL, timeout=budget)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        phase["worker"] = time.perf_counter() - started - phase["setup"]

        # operations: every command, and every query of every query command
        def operations(steps):
            return sum(1 + s.get("queries", 0) for s in steps if "argv" in s)
        attempted = (workloads.SETUP_REPEATS * operations(
            workloads.steps(wl, data, args.seed, wl.setup))
            + operations(plan["once"]) + len(res["rounds"]) * operations(plan["loop"]))
        records = [res["once"]] + res["rounds"]
        failed = sum(r["rc"] != 0 for rec in records for r in rec)
        info = {}
        heldout_ppx = None
        ppx_file = data / "ppx" / "perplexity.txt"
        if ppx_file.exists():
            heldout_ppx = float(ppx_file.read_text().split()[1])
        if failed:
            problems = ["a command of the timed pass failed"]
        else:
            problems, nonfinite = checks.check_all(data, wl, heldout_ppx, info)
            # the program is deterministic: every run of a query command
            # ranks the same way as the last one, whose output was checked
            runs = Counter(r["step"] for rec in setup_records + records for r in rec)
            failed += sum(n * runs[step] for step, n in nonfinite.items())
        phase["checks"] = time.perf_counter() - started - phase["setup"] - phase["worker"]

        if args.trace:
            once = res["once_spans"]
            metrics = tracing.median_metrics(
                [tracing.layer_metrics(once + _shift(rnd, len(once)), res["missing"])
                 for rnd in res["round_spans"]])
            traced = [t for t, tr in zip(res["round_s"], res["round_traced"]) if tr]
            untraced = [t for t, tr in zip(res["round_s"], res["round_traced"]) if not tr]
            metrics["trace.overhead_ratio"] = (
                (_median(traced) or math.nan) / (_median(untraced) or math.nan), "ratio")
            info["missing_targets"] = res["missing"]
        else:
            def occurrences(step):
                """Wall time of each occurrence of the step in the timed
                pass: a run of consecutive commands of that step, summed."""
                out = []
                for rec in records:
                    prev = None
                    for r in rec:
                        if r["step"] != step:
                            prev = None
                        elif prev is None:
                            prev = r
                            out.append(r["seconds"])
                        else:
                            out[-1] += r["seconds"]
                return out
            metrics = {
                "setup_s": (median(setup_s), "s"),
                "ingest_s": (_median(occurrences("ingest")), "s"),
                "train_s": (_median(occurrences("train")), "s"),
                "query_qps": (wl.n_queries / (_median(occurrences("query")) or math.nan),
                              "queries/s"),
                "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
                "heldout_ppx": (heldout_ppx, "perplexity"),
                "avg_precision": (info.get("avg_precision"), "ratio"),
            }

        def step_times(records):
            out = {}
            for st in (st for rec in records for st in rec):
                out.setdefault(st["step"], []).append(round(st["seconds"], 4))
            return out
        info.update(phase_s=phase, once_step_s=step_times([res["once"]]),
                    loop_step_s=step_times(res["rounds"]), rounds=len(res["rounds"]),
                    round_s=res["round_s"], setup_step_s=step_times(setup_records),
                    setup_repeats=workloads.SETUP_REPEATS,
                    setup_s_all=setup_s, problems=problems, host_before=host_before,
                    host_after=host_info(), libraries=library_info())
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        out = HERE / "results"
        out.mkdir(exist_ok=True)
        (out / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"result": result, "info": info}, indent=1), encoding="utf-8")
        print("info " + json.dumps(info))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _median(values):
    """Median, or None when a failed command left no value."""
    return median(values) if values else None


def _shift(spans, offset):
    return [[n, a, b, None if p is None else p + offset, i] for n, a, b, p, i in spans]


if __name__ == "__main__":
    sys.exit(main())
