"""Per-layer tracing from outside the package.

While a traced pass runs, the package's public layer functions are
replaced, in the module namespaces the package itself looks them up in,
by wrappers that record one span per call (name, start, end, parent) and
the counts the per-layer metrics need. The originals come back when the
pass ends, so untraced passes in the same process run the package as
shipped. A span's self time is its duration minus the time of the spans
it caused.
"""

from __future__ import annotations

import time

import numpy as np

from racedensity import rs_method as rs
from racedensity import transforms as tr
from racedensity import zerodata as zd

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "zerodata.load_ms": "ms",
    "zerodata.zeros_loaded": "count",
    "zerodata.aggregate_stats_ms": "ms",
    "zerodata.aggregate_stats_calls": "count",
    "zerodata.table_zeros": "count",
    "rs_method.choose_params_ms": "ms",
    "rs_method.K_chosen": "count",
    "rs_method.K_tried": "count",
    "rs_method.phat_samples_ms": "ms",
    "rs_method.lattice_terms": "count",
    "rs_method.nonzero_term_ratio": "1",
    "transforms.j0_evals": "count",
    "transforms.prefix_bytes_computed": "bytes",
    "rs_method.compute_E_ms": "ms",
    "rs_method.compute_P_ms": "ms",
    "rs_method.density_grid_ms": "ms",
    "rs_method.lattice_evals": "count",
    "rs_method.refused": "count",
    "transforms.l0_full_ms": "ms",
    "transforms.l0_explicit_zeros": "count",
    "transforms.l0_zeros_per_s": "1/s",
    "rs_method.err_est_exceeded": "count",
    "warnings.UserWarning": "count",
    "warnings.AccuracyWarning": "count",
    "warnings.RuntimeWarning": "count",
    "warnings.other": "count",
    "trace.overhead_s": "s",
}

# span name -> the (module, attribute) pairs it replaces; a function the
# package imports into a second module is replaced in both
SPANS = {
    "zerodata.aggregate_stats": ((zd, "aggregate_stats"),
                                 (rs, "aggregate_stats")),
    "rs_method.choose_params": ((rs, "choose_params"),),
    "rs_method.phat_samples": ((rs, "phat_samples"),),
    "rs_method.compute_E": ((rs, "compute_E"),),
    "rs_method.compute_P": ((rs, "compute_P"),),
    "rs_method.density_grid": ((rs, "density_grid"),),
    "transforms.l0_full": ((tr, "l0_full"),),
}

LATTICE = ("rs_method.compute_E", "rs_method.compute_P",
           "rs_method.density_grid")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []      # (pass, name, start, end, parent index)
        self._stack = []     # [span index, child seconds]
        self._self_s = {}
        self._counts = {}
        self._pass = -1
        self._saved = []
        self.missing = set()

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        self.spans.append([self._pass, name, time.perf_counter(), None,
                           self._stack[-1][0] if self._stack else None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[3] = time.perf_counter()
        duration = span[3] - span[2]
        self._self_s[span[1]] = self._self_s.get(span[1], 0.0) \
            + duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def _in(self, name):
        return bool(self._stack) and self.spans[self._stack[-1][0]][1] == name

    def count(self, key, n=1):
        self._counts[key] = self._counts.get(key, 0) + n

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except rs.ParameterError:
                if name in LATTICE:
                    self.count("rs_method.refused")
                raise
            finally:
                self._exit()
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    # ------------------------------------------------- per-call counters

    def _after_aggregate_stats(self, stats, args, kwargs):
        race = _arg(args, kwargs, 0, "race")
        tables = _arg(args, kwargs, 3, "tables")
        self.count("zerodata.aggregate_stats_calls")
        self.count("zerodata.table_zeros", sum(
            len(zd.resolve_table(e, tables)) for e in race.characters))

    def _after_choose_params(self, params, args, kwargs):
        self.count("choose_params_calls")
        self.count("K_chosen_sum", params.K)

    def _after_phat_samples(self, samples, args, kwargs):
        self.count("rs_method.lattice_terms", len(samples))
        self.count("nonzero_terms", sum(1 for s in samples if s.tail != 0.0))

    def _after_compute_E(self, result, args, kwargs):
        self.count("rs_method.lattice_evals")

    _after_compute_P = _after_compute_E

    def _after_density_grid(self, grid, args, kwargs):
        self.count("rs_method.lattice_evals", int(np.size(grid)))

    def _after_l0_full(self, result, args, kwargs):
        self.count("transforms.l0_explicit_zeros",
                   _arg(args, kwargs, 2, "stats").n_zeros)

    def _j0_counter(self, fn):
        def counted(z):
            out = fn(z)
            self.count("transforms.j0_evals", int(np.size(out)))
            self.count("transforms.prefix_bytes_computed",
                       int(np.asarray(z).nbytes + out.nbytes))
            return out
        return counted

    def _params_counter(self, cls):
        def counted(*args, **kwargs):
            if self._in("rs_method.choose_params"):
                self.count("rs_method.K_tried")
            return cls(*args, **kwargs)
        return counted

    # ------------------------------------------------------ installation

    def install(self, pass_index):
        """Start a traced pass: reset the counters and replace the
        package's functions by their traced wrappers. A hook whose target
        no longer exists is skipped and listed in self.missing."""
        self._pass = pass_index
        self._self_s, self._counts = {}, {}
        hooks = [(mod, attr, lambda fn, name=name: self._wrap(name, fn))
                 for name, pairs in SPANS.items() for mod, attr in pairs]
        hooks += [(tr, "j0_lowbias", self._j0_counter),
                  (rs, "RSParams", self._params_counter)]
        for mod, attr, make in hooks:
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.add(f"{mod.__name__}.{attr}")
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def load_probe(self, keys):
        """Time a cold load of each bundled table the workload reads; the
        package caches tables per process, so its own calls stay warm."""
        for key in keys:
            path = zd.bundled_table(key).source
            self._enter("zerodata.load")
            try:
                table = zd.load_zeros(path, label=key)
            finally:
                self._exit()
            self.count("zerodata.zeros_loaded", len(table))

    def layer_values(self) -> dict:
        """The per-layer metrics of the traced pass just finished (the
        check counts, warnings and overhead are filled in by the caller)."""
        c, ms = self._counts, {k: 1e3 * v for k, v in self._self_s.items()}
        out = {name: 0.0 for name in LAYER_METRICS}
        for name in LAYER_METRICS:
            if name.endswith("_ms"):
                out[name] = ms.get(name[:-3], 0.0)
            elif name in c:
                out[name] = float(c[name])
        calls = c.get("choose_params_calls", 0)
        out["rs_method.K_chosen"] = c.get("K_chosen_sum", 0) / calls \
            if calls else 0.0
        terms = c.get("rs_method.lattice_terms", 0)
        out["rs_method.nonzero_term_ratio"] = c.get("nonzero_terms", 0) / terms \
            if terms else 0.0
        l0_s = self._self_s.get("transforms.l0_full", 0.0)
        out["transforms.l0_zeros_per_s"] = \
            c.get("transforms.l0_explicit_zeros", 0) / l0_s if l0_s else 0.0
        return out
