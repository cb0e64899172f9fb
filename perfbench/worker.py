"""The timed pass, run in a fresh process so that its peak RSS excludes
set-up.  Usage: python3 worker.py PLAN.json RESULT.json

The plan names the program's source directory, the warm-up steps, the
`once` and `loop` steps, the run length, the least number of rounds and
whether to trace.  The worker imports the program and runs the warm-up.
Then it runs the `once` steps, then whole rounds of the `loop` steps (a
closed loop: one command at a time) until the run length is used up and
the least number of rounds has run.  It writes the per-command wall times, the round times, its peak RSS and,
when tracing, the spans.

When tracing, the `once` steps and every second round are traced, the
other rounds are not, and at least one round of each kind runs: their
times give the tracing overhead.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import write_heldout


def run_pass(main, steps, work, tracer=None):
    """Run `steps` in order; returns [{"id", "step", "seconds", "rc"}], one
    entry per command, `id` being the step's index.  A failed command ends
    the pass, and the commands it skips are reported with rc None."""
    record = []
    failed = False
    for i, step in enumerate(steps):
        if "argv" not in step:
            if not failed:
                write_heldout(work)
            continue
        argv = step["argv"]
        if failed:
            record.append({"id": i, "step": step["step"], "seconds": 0.0, "rc": None})
            continue
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(None):
            rc = tracer.span(f"cli.{argv[0]}", main, argv) if tracer else main(argv)
        record.append({"id": i, "step": step["step"],
                       "seconds": time.perf_counter() - t0, "rc": rc})
        failed = rc != 0
    return record


def failed(record):
    return any(r["rc"] != 0 for r in record)


def main_worker(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import plsa.cli
    import tracing

    work = Path(plan["work"])
    run_pass(plsa.cli.main, plan["warmup"], Path(plan["warmup_dir"]))

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("plsa")}
    tracer = tracing.Tracer() if plan["trace"] else None
    min_rounds = max(plan["min_rounds"], 2 if tracer else 1)
    start = time.perf_counter()
    if tracer:
        tracer.install(modules)
    once = run_pass(plsa.cli.main, plan["once"], work, tracer)
    if tracer:
        tracer.uninstall()
    once_spans = list(tracer.spans) if tracer else []
    rounds, round_s, round_traced, round_spans = [], [], [], []
    ok = not failed(once)
    while ok and (len(rounds) < min_rounds or time.perf_counter() - start < plan["seconds"]):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.install(modules)
        t0 = time.perf_counter()
        rounds.append(run_pass(plsa.cli.main, plan["loop"], work, tracer if traced else None))
        round_s.append(time.perf_counter() - t0)
        round_traced.append(traced)
        if traced:
            tracer.uninstall()
            round_spans.append(_rebase(tracer.spans[first:], first))
        ok = not failed(rounds[-1])
    result = {
        "once": once,
        "rounds": rounds,
        "round_s": round_s,
        "round_traced": round_traced,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "once_spans": once_spans,
        "round_spans": round_spans,
        "missing": tracer.missing if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def _rebase(spans, offset):
    """Spans of one round with parent indices relative to the round."""
    return [[n, a, b, None if p is None else p - offset, i] for n, a, b, p, i in spans]


if __name__ == "__main__":
    main_worker(sys.argv[1], sys.argv[2])
