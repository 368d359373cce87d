"""One benchmark run of one workload in a fresh process.

usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
                                   --tmp DIR [--spans-out FILE]

Does cold-cache set-up (``build_scene``), the solve
(``solve_layered_scene``) and field evaluation (``evaluate_grid`` or
``eval_total_field``), then the correctness checks outside the timed
region.  Untraced, it repeats each phase to get several samples (see
``workloads.py``); traced, it does each once and evaluates with one
``eval_total_field`` call per region.  Prints one JSON line with the
timings, the checks, the problem sizes and the machine.  ``run.py`` starts
it with ``src`` on ``PYTHONPATH`` and the BLAS thread cap in the
environment.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer


def machine_info():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _live(module, cls):
    """Live instances of ``module.cls`` (empty if the class is gone)."""
    import importlib

    kind = getattr(importlib.import_module(module), cls, None)
    return [] if kind is None else \
        [o for o in gc.get_objects() if isinstance(o, kind)]


def problem_info(cfg, build):
    grids = _live("layerscatter.coupling", "SommerfeldGridPlan")
    return {"M": len(build.instances), "N_S": len(build.contour), "p": cfg.p,
            "path": "nufft" if build.operator.use_nufft else "direct",
            "grid_boxes": [[g.n1, g.n2] for g in grids],
            "nufft_plans": len(_live("layerscatter.nufft", "Nufft3Plan"))}


def repeat(fn, min_seconds, max_repeats):
    """Call ``fn`` until the calls have taken ``min_seconds`` in total or
    it has run ``max_repeats`` times; return its last result and the
    duration of each call."""
    times = []
    while True:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        if sum(times) >= min_seconds or len(times) >= max_repeats:
            return result, times


def run(workload, seed, tmp, tracer):
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("bench.import"):
        from layerscatter import (build_scene, eval_total_field,
                                  evaluate_grid, solve_layered_scene)
        import checks
        import numpy as np
        from workloads import (EVAL_MIN_S, MAX_REPEATS, REGIONS,
                               SETUP_REPEATS, SOLVE_MIN_S, WORKLOADS,
                               classify, eval_points, scene_config)
        if tracer:
            tracer.install()
    wl = WORKLOADS[workload]
    with span("bench.inputs"):
        cfg = scene_config(wl, seed)

    setup_s = []
    build = None
    for i in range(1 if tracer else SETUP_REPEATS):
        build = None
        gc.collect()
        cache = Path(tmp) / f"cache{i}"
        cache.mkdir(parents=True)
        os.environ["LAYERSCATTER_CACHE_DIR"] = str(cache)
        with span("bench.setup"):
            t0 = time.perf_counter()
            build = build_scene(cfg)
            setup_s.append(time.perf_counter() - t0)
        shutil.rmtree(cache)

    # traced workers do each phase once
    max_repeats = 1 if tracer else MAX_REPEATS
    with span("bench.solve"):
        sol, solve_s = repeat(
            lambda: solve_layered_scene(build.operator, cfg.gmres_config(),
                                        boundary=build.boundary,
                                        mode_densities=build.mode_densities,
                                        fingerprint=cfg.fingerprint()),
            SOLVE_MIN_S, max_repeats)

    with span("bench.inputs"):
        pts = eval_points(wl, seed, build.instances, cfg)
        region = classify(pts, build.instances, cfg)
    region_pts = {name: int((region == r).sum())
                  for r, name in enumerate(REGIONS)}
    region_s = {}

    def evaluate():
        if not tracer:
            if wl.grid is not None:
                return evaluate_grid(sol, wl.extent, *wl.grid).values.ravel()
            return eval_total_field(sol, pts)
        values = np.empty(len(pts), dtype=complex)
        for r, name in enumerate(REGIONS):
            sel = region == r
            with span(f"solver.eval_{name}"):
                t0 = time.perf_counter()
                if sel.any():
                    values[sel] = eval_total_field(sol, pts[sel])
                region_s[name] = time.perf_counter() - t0
        return values

    with span("bench.eval"):
        values, eval_s = repeat(evaluate, EVAL_MIN_S, max_repeats)

    with span("bench.check"):
        results = (checks.gmres_check(sol, cfg.tol)
                   + checks.continuity_checks(sol, eval_total_field, cfg.d,
                                              wl.continuity_x, cfg.tol)
                   + checks.reference_checks(workload, seed, pts, values,
                                             cfg.tol))
        failed = [c for c in results if not checks.passed(c)]
        worst = {}
        for name, err, bound in results:
            kind = name.split()[0]
            if bound > 0 and err / bound > worst.get(kind, -1.0):
                worst[kind] = err / bound
    with span("bench.report"):
        return {"setup_s": setup_s, "solve_s": solve_s, "eval_s": eval_s,
                "gmres_iters": len(sol.history), "region_pts": region_pts,
                "region_s": region_s, "checks_attempted": len(results),
                "checks_failed": len(failed),
                "failed_checks": [list(c) for c in failed[:10]],
                "worst_check": worst,
                "problem": problem_info(cfg, build),
                "machine": machine_info()}


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    out = run(args.workload, args.seed, args.tmp, tracer)
    wall = time.perf_counter() - t_start
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["wall_s"] = wall
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["layer_self_s"] = tracer.layer_self_times()
        out["top_span_share"] = tracer.top_level_seconds() / wall
        out["absent"] = tracer.absent
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "wall_s": wall, "absent": tracer.absent,
                 "self_s": tracer.self_times(),
                 "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
