"""The workload process: set up, then time whole rounds of the workload's operations.

Started by run.py, once per workload run, in a fresh interpreter with BLAS
threads pinned to one. Set-up (imports, input generation, warm-up) ends at
the ``ready`` stamp, taken on the system-wide monotonic clock so that the
parent can subtract its own spawn stamp. The result, with every operation's
outputs, goes to the JSON file named by ``--out``; stdout stays free.

Untraced runs repeat rounds until ``--seconds`` have passed. Traced runs
alternate traced and untraced rounds (traced first, at least one of each
unless ``--seconds`` is 0, which asks for a single traced round), then make
one memory round under tracemalloc for the peak figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_round(workload, index: int, tracer) -> dict:
    timed = []
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    for name, call, _ in workload.ops:
        t0, c0 = time.perf_counter(), time.process_time()
        raw = tracer.op(name, call) if tracer is not None else call()
        timed.append((time.perf_counter() - t0, time.process_time() - c0, raw))
    wall, cpu = time.perf_counter() - start_wall, time.process_time() - start_cpu
    ops = []
    for (name, _, digest), (op_wall, op_cpu, raw) in zip(workload.ops, timed):
        out = digest(raw)
        if not workload.in_process:
            child_cpu = out.pop("child_cpu")
            op_cpu += child_cpu
            cpu += child_cpu
        ops.append({"name": name, "wall": op_wall, "cpu": op_cpu, "out": out})
    return {"index": index, "traced": tracer is not None, "wall": wall, "cpu": cpu, "ops": ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import inputs
    import ops as ops_mod

    scratch = Path(tempfile.mkdtemp(prefix="inputs-", dir=Path(args.out).parent))
    try:
        workload = ops_mod.build(args.workload, inputs.MAKERS[args.workload](args.seed),
                                 ROOT, scratch)
        workload.warmup()
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(timed_phase(workload, args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


def timed_phase(workload, args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        if workload.in_process:
            tracing.instrument(tracer)
    rounds = []
    begin = time.perf_counter()
    min_rounds = 2 if args.trace and args.seconds > 0 else 1
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.start_round(index)
        try:
            rec = run_round(workload, index, tracer if traced else None)
        finally:
            if traced:
                tracer.stop_round()
        if traced:
            rec["span_totals"] = tracer.round_totals(index)
        rounds.append(rec)
        if len(rounds) >= min_rounds and time.perf_counter() - begin >= args.seconds:
            break
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {"rounds": rounds, "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if tracer is not None:
        if workload.in_process:
            tracer.start_round(len(rounds), memory=True)
            try:
                for _, call, _ in workload.ops:
                    call()
            finally:
                tracer.stop_round()
        result["peaks_mb"] = tracer.peaks
        result["span_summary"] = tracer.summary()
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
