"""Benchmark for nlcorr: one workload per run, timed in a fresh process, checked here.

    python3 bench/run.py --workload exact-oracle --seed 7 --seconds 20 --trace 0

Workloads: cli-cold, exact-oracle, operators, estimators (see bench/README.md).
This process pins BLAS/OpenMP threads to one, starts the workload process
(bench/worker.py) with ``src`` on the import path, computes the reference
values itself without importing ``nlcorr``, checks every output of every
round, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: median wall and CPU
time of a round, peak resident set, and median set-up time over several
set-ups. With ``--trace 1`` they are the per-layer ones; the selected
workload runs traced for ``--seconds``, and every other workload for one
traced round, so that each layer's figures come from the workload that
exercises it. Details of every run go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# before numpy loads, in this process and so in every process it starts
os.environ.update({key: "1" for key in PINNED})

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-cold", "exact-oracle", "operators", "estimators")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 170

# metric-name prefix -> the workload that exercises that layer; first match wins
OWNERS = [("cli.", "cli-cold"), ("groups.", "exact-oracle"), ("maxcorr.ace_", "estimators"),
          ("maxcorr.", "exact-oracle"), ("additive.", "estimators"),
          ("spectra.", "operators"), ("stationary.", "operators")]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, *,
               setup_only: bool = False) -> tuple[dict, float]:
    """Start one workload process, wait for it, and return (its result, set-up seconds)."""
    out = OUT / f"worker-{workload}-{os.getpid()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker timed out")
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with {code}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, result["ready"] - spawned


def check_rounds(workload: str, seed: int, rounds: list[dict]) -> tuple[int, list[str]]:
    """(attempted, problems per failed operation) over every round of one worker."""
    checkers = checks.CHECKERS[workload](inputs.MAKERS[workload](seed))
    attempted, failures = 0, []
    for rnd in rounds:
        outs = {op["name"]: op["out"] for op in rnd["ops"]}
        for op in rnd["ops"]:
            attempted += 1
            problems = checkers[op["name"]](op["out"], outs)
            if problems:
                failures.append((op["name"], f"round {rnd['index']} {op['name']}: "
                                 + "; ".join(problems)))
    return attempted, failures


def layer_metrics(workload: str, result: dict) -> dict:
    """Per-layer metrics that this workload's traced result provides."""
    traced = [r for r in result["rounds"] if r["traced"]]
    out = {}
    if workload == "cli-cold":
        for i, op in enumerate(traced[0]["ops"]):
            out[f"cli.{op['name']}_ms"] = 1e3 * statistics.median(r["ops"][i]["wall"]
                                                                  for r in traced)
        out["cli.child_peak_rss_mb"] = result["peak_rss_mb"]
        return out
    names = {name for r in traced for name in r["span_totals"] if not name.startswith("op:")}
    for name in names:
        out[f"{name}_s"] = statistics.median(r["span_totals"].get(name, 0.0) for r in traced)
    for name, peak in result["peaks_mb"].items():
        out[f"{name}_peak_mb"] = peak
    outs = {op["name"]: op["out"] for op in traced[0]["ops"]}
    if workload == "exact-oracle":
        joints = [o for o in outs.values() if isinstance(o, dict) and "sizes" in o]
        out["groups.support_points"] = sum(sum(o["sizes"]) for o in joints)
        out["groups.atoms_kept"] = sum(o["atoms"] for o in joints)
        out["maxcorr.h_dim"] = sum(sum(s - 1 for s in o["sizes"])
                                   for o in joints if "rho_max" in o)
    if workload == "estimators":
        out["maxcorr.ace_iterations"] = sum(sum(o["iterations"]) for name, o in outs.items()
                                            if name.startswith("ace-"))
        out["additive.phi_star_directions"] = outs["phi-star"]["n_directions"]
    return out


def owner(metric: str) -> str:
    return next(w for prefix, w in OWNERS if metric.startswith(prefix))


def per_layer(spec: dict, results: dict, selected: str) -> dict:
    """Every per-layer metric, each from the workload that owns its layer."""
    layers = {w: layer_metrics(w, r) for w, r in results.items()}
    found = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if not name.startswith("trace.") and name in layers[owner(name)]:
            found[name] = layers[owner(name)][name]
    rounds = results[selected]["rounds"]
    traced = [r["wall"] for r in rounds if r["traced"]]
    untraced = [r["wall"] for r in rounds if not r["traced"]]
    if traced and untraced:
        found["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return found


def write_trace(results: dict, path: Path) -> None:
    """Spans, per-name summaries and, per traced round, the share of its wall
    time that the top-level operation spans cover."""
    doc = {}
    for workload, result in results.items():
        coverage = [sum(v for k, v in r["span_totals"].items() if k.startswith("op:"))
                    / r["wall"] for r in result["rounds"] if r["traced"]]
        print(f"{workload}: operation spans cover "
              f"{', '.join(f'{c:.4f}' for c in coverage)} of traced round wall time",
              file=sys.stderr)
        doc[workload] = {"coverage": coverage, "span_summary": result["span_summary"],
                         "spans": result["spans"]}
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlcorr" / "__init__.py").is_file():
        print(f"no nlcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    plan = [(args.workload, args.seconds)]
    if args.trace:
        plan += [(w, 0.0) for w in WORKLOADS if w != args.workload]
    # the extra set-ups go half before and half after the timed run, so that
    # they meet the machine at different moments
    extra = 0 if args.trace else SETUPS - 1
    setups = [run_worker(args.workload, args.seed, 0.0, 0, setup_only=True)[1]
              for _ in range(extra // 2)]
    results = {}
    for workload, seconds in plan:
        results[workload], setup = run_worker(workload, args.seed, seconds, args.trace)
        if workload == args.workload:
            setups.append(setup)
    setups += [run_worker(args.workload, args.seed, 0.0, 0, setup_only=True)[1]
               for _ in range(extra - extra // 2)]

    correct, attempted, failed, problems = True, 0, 0, []
    for workload, result in results.items():
        n, failures = check_rounds(workload, args.seed, result["rounds"])
        unexpected = [msg for name, msg in failures
                      if name not in checks.KEPT_FAILURES[workload]]
        correct = correct and not unexpected
        problems += [msg for _, msg in failures]
        if workload == args.workload:
            attempted, failed = n, len(failures)

    main_result = results[args.workload]
    rounds = main_result["rounds"]
    if args.trace:
        found = per_layer(spec, results, args.workload)
        write_trace(results, OUT / f"trace-{args.workload}-s{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        found = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "peak_rss_mb": main_result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setups_s": setups, "problems": problems,
              "rounds": [{k: r[k] for k in ("index", "traced", "wall", "cpu")}
                         | {"ops": [{k: o[k] for k in ("name", "wall", "cpu")}
                                    for o in r["ops"]]} for r in rounds]}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for msg in problems:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
