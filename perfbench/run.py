"""Benchmark of the layerscatter library: time to a field of stated accuracy.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Measures the checkout that holds this file.  Runs fresh worker processes
(``worker.py``) one after another, each with an empty scattering-matrix
cache, until ``--seconds`` have passed, and reports medians over them.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
workers and reports the per-layer metrics of the traced ones, their tracing
overhead and how much of their wall time the top-level spans cover.  The
spans are written to ``.perfbench_out/``.  Workloads and their seeds are
defined in ``workloads.py``; the correctness checks in ``checks.py``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT = 170.0      # a whole run must end within 180 s

# metric name -> unit, from the benchmark definition at the checkout root
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def run_worker(workload, seed, trace, tmp, spans_out, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", str(tmp)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker for {workload} timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {workload} exited with code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(reps):
    """Medians over every sample of every worker in ``reps``."""
    out = {k: statistics.median(t for r in reps for t in r[k])
           for k in ("setup_s", "solve_s", "eval_s")}
    out["total_s"] = out["setup_s"] + out["solve_s"] + out["eval_s"]
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    return out


def per_layer(rep):
    out = dict(rep["layers"])
    out["layers.n_s"] = rep["problem"]["N_S"]
    out["coupling.nufft"] = int(rep["problem"]["path"] == "nufft")
    out["solver.gmres_iters"] = rep["gmres_iters"]
    for name, n in rep["region_pts"].items():
        out[f"solver.eval_{name}_s"] = rep["region_s"][name]
        out[f"solver.eval_{name}_pts"] = n
    out["trace.top_span_share"] = rep["top_span_share"]
    return out


def medians(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "layerscatter" / "__init__.py").is_file():
        print(f"error: no layerscatter source at {ROOT / 'src'}; the "
              "benchmark runs on the checkout that holds it", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT
    tmp_root = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    plain, traced = [], []
    # untraced workers only, or untraced and traced in turn; stop before a
    # round that would not end within --seconds
    kinds = [0, 1] if args.trace else [0]
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            n = len(plain) + len(traced)
            spans = out_dir / (f"spans-{args.workload}-seed{args.seed}"
                               f"-{len(traced)}.json") if kind else None
            rep = run_worker(args.workload, args.seed, kind,
                             tmp_root / f"w{n}", spans, deadline)
            (traced if kind else plain).append(rep)
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break
    try:
        tmp_root.rmdir()
        tmp_root.parent.rmdir()
    except OSError:
        pass

    reps = plain + traced
    attempted = sum(r["checks_attempted"] for r in reps)
    failed = sum(r["checks_failed"] for r in reps)
    info = reps[-1]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"workers {len(plain)} untraced, {len(traced)} traced")
    print("machine " + json.dumps(info["machine"]))
    print("problem " + json.dumps(info["problem"]))
    for r in reps:
        for name, err, bound in r["failed_checks"]:
            print(f"FAILED check {name}: {err:.3e} > {bound:.3e}")
    print(f"  check_fail_frac  {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} checks failed)")
    worst = {}
    for r in reps:
        for kind, ratio in r["worst_check"].items():
            worst[kind] = max(worst.get(kind, 0.0), ratio)
    print("largest error / bound per check kind: " + "  ".join(
        f"{k} {v:.3g}" for k, v in sorted(worst.items())))
    if args.trace:
        metrics = medians([per_layer(r) for r in traced])
        metrics["trace.overhead"] = (end_to_end(traced)["total_s"]
                                     / end_to_end(plain)["total_s"] - 1)
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print("absent entry points (their metrics are left out): "
                  + ", ".join(absent))
        self_s = medians([r["layer_self_s"] for r in traced])
        print("self time per layer: " + "  ".join(
            f"{k} {v:.4g} s" for k, v in sorted(self_s.items())))
        print(f"spans written to {out_dir}")
    else:
        metrics = end_to_end(plain)
        for k in ("setup_s", "solve_s", "eval_s"):
            samples = sorted(t for r in plain for t in r[k])
            print(f"  {k} samples (n={len(samples)}): "
                  + " ".join(f"{t:.4g}" for t in samples))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
