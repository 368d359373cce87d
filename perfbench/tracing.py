"""In-memory spans around the library's public entry points.

The tracer replaces each entry point named in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent) and, for a few of them, the
tracemalloc peak of the call.  Nothing in the library is changed on disk;
``install`` patches module and class attributes in the running process and
``uninstall`` puts them back.  A target that no longer exists (after a
refactor) is listed in ``absent`` and the metrics that rest only on it are
left out; the run goes on.
"""

import importlib
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module, attribute path, span name, record tracemalloc peak)
TARGETS = (
    ("layerscatter.scene", "precompute_scattering_matrix", "scene.precompute", False),
    ("layerscatter.scene", "scattering_matrix_nystrom", "particle.nystrom", False),
    ("layerscatter.scene", "place_particles", "scene.place", False),
    ("layerscatter.scene", "build_contour_adaptive", "layers.contour", False),
    ("layerscatter.coupling", "SommerfeldGridPlan.__init__", "coupling.plan_build", False),
    ("layerscatter.coupling", "MultipoleToSommerfeldPlan.__init__", "coupling.plan_build", False),
    ("layerscatter.multiscat", "PairCoupling.__init__", "multiscat.pair_build", True),
    # the B and C callables the solver module imports
    ("layerscatter.solver", "multipole_to_sommerfeld_direct", "coupling.b", False),
    ("layerscatter.coupling", "MultipoleToSommerfeldPlan.apply", "coupling.b", False),
    ("layerscatter.solver", "sommerfeld_to_local_direct", "coupling.c", False),
    ("layerscatter.solver", "sommerfeld_to_local_nufft", "coupling.c", False),
    ("layerscatter.coupling", "SommerfeldGridPlan.apply", "coupling.c_grid", False),
    ("layerscatter.nufft", "Nufft3Plan.__init__", "nufft.plan3_build", False),
    ("layerscatter.nufft", "Nufft3Plan.apply", "nufft.apply3", False),
    ("layerscatter.multiscat", "PairCoupling.apply_m2l", "multiscat.m2l", False),
    ("layerscatter.layers", "InterfaceSolver.solve", "layers.interface", False),
    ("layerscatter.solver", "SchurOperator.apply", "solver.schur_apply", False),
    ("layerscatter.solver", "gmres", "solver.gmres", False),
    ("layerscatter.solver", "SchurOperator.recover_densities", "solver.recover", False),
    ("layerscatter.solver", "eval_sommerfeld_field", "layers.sommerfeld_eval", True),
    ("layerscatter.solver", "eval_multipole_field", "multiscat.multipole_eval", False),
)

# per-layer metric -> spans whose summed duration (or count) it reports
SPAN_SECONDS = {
    "scene.precompute_s": ("scene.precompute",),
    "particle.nystrom_s": ("particle.nystrom",),
    "scene.place_s": ("scene.place",),
    "layers.contour_s": ("layers.contour",),
    "coupling.plan_build_s": ("coupling.plan_build",),
    "multiscat.pair_build_s": ("multiscat.pair_build",),
    "coupling.b_s": ("coupling.b",),
    "coupling.c_s": ("coupling.c", "coupling.c_grid"),
    "multiscat.m2l_s": ("multiscat.m2l",),
    "layers.interface_s": ("layers.interface",),
    "solver.schur_apply_s": ("solver.schur_apply",),
    "solver.recover_s": ("solver.recover",),
    "layers.sommerfeld_eval_s": ("layers.sommerfeld_eval",),
    "multiscat.multipole_eval_s": ("multiscat.multipole_eval",),
}
SPAN_COUNTS = {
    "coupling.b_calls": "coupling.b",
    "coupling.c_calls": "coupling.c",
    "nufft.plan3_built": "nufft.plan3_build",
    "nufft.apply3_calls": "nufft.apply3",
    "multiscat.m2l_calls": "multiscat.m2l",
    "layers.interface_calls": "layers.interface",
    "solver.schur_applies": "solver.schur_apply",
}
# Arnoldi work: time inside gmres that is not spent in Schur applies
SPAN_SELF_SECONDS = {"solver.arnoldi_s": "solver.gmres"}
SPAN_PEAK_MB = {
    "multiscat.pair_peak_mb": "multiscat.pair_build",
    "layers.sommerfeld_eval_peak_mb": "layers.sommerfeld_eval",
}


def _resolve(module, path):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # look in the owner's own namespace, so a class inherits no wrapper
    fn = vars(owner).get(attr)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent_index]``."""

    def __init__(self):
        self.spans = []
        self.peak_mb = defaultdict(float)
        self.absent = []
        self._live = set()      # span names of the installed wrappers
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, peak):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                if not peak or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb[name], mb)
        return traced

    def install(self, targets=TARGETS):
        for module, path, name, peak in targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrapper(fn, name, peak))
            self._undo.append((owner, attr, fn))
            self._live.add(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans.  A metric whose spans
        all come from absent targets is left out."""
        live = self._live
        total = defaultdict(float)
        count = defaultdict(int)
        for name, start, end, _ in self.spans:
            total[name] += end - start
            count[name] += 1
        selft = self.self_times()
        out = {}
        for metric, names in SPAN_SECONDS.items():
            if live.intersection(names):
                out[metric] = sum(total[n] for n in names)
        for metric, name in SPAN_COUNTS.items():
            if name in live:
                out[metric] = count[name]
        for metric, name in SPAN_SELF_SECONDS.items():
            if name in live:
                out[metric] = selft[name]
        for metric, name in SPAN_PEAK_MB.items():
            if name in live:
                out[metric] = self.peak_mb[name]
        return out

    def self_times(self):
        """Self time per span name: duration minus the child spans'."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def layer_self_times(self):
        """Self time per layer (the module part of the span name)."""
        out = defaultdict(float)
        for name, t in self.self_times().items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
