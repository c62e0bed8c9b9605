"""Spans around the calls into each deeptherm layer, installed from outside.

The package is not instrumented.  `Tracer.install` replaces module attributes
with wrappers that record one span per call: name, parent span, wall start
and end (CLOCK_MONOTONIC) and process CPU start and end (all threads, so CPU
over wall shows what BLAS threading buys).  A name bound with
`from x import y` is looked up in the importing module, so it is wrapped
there.  Wrapping an `lru_cache`d function from outside keeps its cache.

Spans stay in memory; `Tracer.dump` hands them to the caller at the end.
Observers add counts (samples, bytes, computed flops) at the same boundary;
they read the call's arguments by parameter name.  The package has no
queues, so no span ever waits: wait time is zero by construction.

Tracing never breaks a run: an attribute the package no longer has is
skipped and listed in `missing`, and an observer that raises is counted in
`trace.observer_errors`, so the metrics it feeds read 0 instead.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter

_CLOCK = time.CLOCK_MONOTONIC

CPLX = 16  # bytes per complex128


def _accum_observer(counts, route, a, out):
    """moment_accumulate(psi, weights, k): outer-product flops and weights."""
    import numpy as np

    psi, weights, k = a["psi"], a["weights"], a["k"]
    b, da = psi.shape
    dim = da**k
    counts[f"{route}.accum_calls"] += 1
    counts[f"{route}.accum_rows"] += b
    # 8 real flops per complex multiply-add, dim^2 of them per row
    counts[f"{route}.accum_flop"] += 8 * b * dim * dim
    # compulsory traffic: psi and weights read, k-fold rows written and read,
    # the dim x dim accumulator read and written once per call
    counts[f"{route}.accum_byte"] += b * da * CPLX + b * 8 + 2 * b * dim * CPLX + 2 * dim * dim * CPLX
    w = np.asarray(weights, dtype=float)
    counts[f"{route}.weight_sum"] += float(w.sum())
    counts[f"{route}.weight_sq_sum"] += float((w * w).sum())
    counts[f"{route}.null_rows"] += int((w == 0).sum())


def _qr_observer(counts, route, a, out):
    """haar_from_ginibre(z): Householder QR plus forming Q, complex b x d x d."""
    b, d, _ = a["z"].shape
    counts["montecarlo.haar_qr_flop"] += b * (32 * d**3) // 3
    counts["montecarlo.haar_qr_byte"] += 3 * b * d * d * CPLX  # z read, Q and R written


def _haar_batch_observer(counts, route, a, out):
    counts["montecarlo.haar_unitaries"] += a["b"]


def _batch_states_observer(counts, route, a, out):
    """Columns of the sampled unitaries that reach the projected states."""
    cfg, b = a["cfg"], a["b"]
    d = 2**cfg.t
    if cfg.bc == "pbc":
        used, made = b * d, b * d  # the whole unitary is reduced
    else:
        used, made = 2 * b, 2 * b * d  # U'|0> and U|+>: one d-vector of each
    counts["montecarlo.columns_used"] += used
    counts["montecarlo.columns_made"] += made


def _orbit_observer(counts, route, a, out):
    """orbit_aggregate(src, orb, n_orbits): one complex add per source entry."""
    rows, cols = a["src"].shape
    counts["replica.orbit_aggregate_flop"] += 2 * rows * cols
    counts["replica.orbit_aggregate_byte"] += rows * cols * CPLX + rows * 8 + a["n_orbits"] * cols * CPLX


def _floquet_observer(counts, route, a, out):
    counts["kim.floquet_steps"] += 1


def _extrapolate_observer(counts, route, a, out):
    counts["replica.fits"] += 1
    counts["replica.fits_flagged"] += int(bool(out.flagged))


def _write_observer(counts, route, a, out):
    cfg = a["record"].config
    paths = [cfg.out] if cfg.fmt == "json" else [cfg.out, cfg.out + ".meta.json"]
    counts["records.bytes_written"] += sum(os.path.getsize(p) for p in paths)


# (module, attribute, span name, observer).  A span name that is a dict maps
# the layer of the calling span to a name: `_kernels` functions are charged
# to the route that calls them.
WRAPS = [
    ("deeptherm.cli", "deviation_series", "replica.deviation_series", None),
    ("deeptherm.cli", "extrapolate_to_physical", "replica.extrapolate", _extrapolate_observer),
    ("deeptherm.cli", "rate_estimate", "replica.rate_estimate", None),
    ("deeptherm.cli", "mc_moment", "montecarlo.mc_moment", None),
    ("deeptherm.cli", "_checkpoint_stderrs", "montecarlo.jackknife", None),
    ("deeptherm.cli", "build_w", "dual_tensors.build_w", None),
    ("deeptherm.cli", "plus_state", "kim.plus_state", None),
    ("deeptherm.cli", "ising_phase_vector", "kim.phases", None),
    ("deeptherm.cli", "apply_floquet", "kim.floquet", _floquet_observer),
    ("deeptherm.cli", "entanglement_entropy", "kim.entropy", None),
    ("deeptherm.cli", "moment_from_state", "kim.moment", None),
    ("deeptherm.cli", "delta_k", "kim.delta_k", None),
    ("deeptherm.cli", "write_record", "records.write", _write_observer),
    ("deeptherm.replica", "replica_moment", "replica.moment", None),
    ("deeptherm.replica", "class_diagram_terms", "replica.class_diagrams", None),
    ("deeptherm.replica", "_sagg_bundle", "replica.sagg_bundle", None),
    ("deeptherm.replica", "_build_kfold", "replica.kfold", None),
    ("deeptherm.replica", "_orbit_structure", "replica.orbit_structure", None),
    ("deeptherm.replica", "weingarten_table", "permgroup.weingarten", None),
    ("deeptherm.replica", "conjugacy_classes", "permgroup.conjugacy_classes", None),
    ("deeptherm.replica", "digit_permute_codes", "linalg.digit_permute_codes", None),
    ("deeptherm.replica", "trace_norm", "linalg.trace_norm", None),
    ("deeptherm.replica", "haar_moment_operator", "linalg.haar_moment_operator", None),
    ("deeptherm.replica", "build_w", "dual_tensors.build_w", None),
    ("deeptherm.montecarlo", "_batch_states", "montecarlo.batch_states", _batch_states_observer),
    ("deeptherm.montecarlo", "_haar_batch", "montecarlo.rng", _haar_batch_observer),
    ("deeptherm.montecarlo", "_reduce_batch", "montecarlo.reduce", None),
    ("deeptherm.montecarlo", "trace_norm", "linalg.trace_norm", None),
    ("deeptherm.montecarlo", "haar_moment_operator", "linalg.haar_moment_operator", None),
    ("deeptherm.montecarlo", "build_w", "dual_tensors.build_w", None),
    ("deeptherm.kim", "trace_norm", "linalg.trace_norm", None),
    ("deeptherm.kim", "haar_moment_operator", "linalg.haar_moment_operator", None),
    # cli._checkpoint_stderrs imports trace_norm inside the function
    ("deeptherm.linalg", "trace_norm", "linalg.trace_norm", None),
    ("deeptherm._kernels", "moment_accumulate",
     {"montecarlo": "montecarlo.accum", "kim": "kim.moment_accum"}, _accum_observer),
    ("deeptherm._kernels", "orbit_aggregate", "replica.orbit_aggregate", _orbit_observer),
    ("deeptherm._kernels", "haar_from_ginibre", "montecarlo.haar_qr", _qr_observer),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        # [name, parent index or -1, wall0, wall1, cpu0, cpu1, tracing overhead]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.originals: dict = {}
        self.missing: list = []
        self._stack: list = []

    def _wrap(self, fn, name, observer):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if observer is not None else None

        def traced(*args, **kwargs):
            entered = time.clock_gettime(_CLOCK)
            parent = stack[-1] if stack else -1
            span_name = name
            if isinstance(name, dict):
                route = layer_of(spans[parent][0]) if parent >= 0 else "cli"
                span_name = name.get(route, f"{route}.{fn.__name__}")
            rec = [span_name, parent, 0.0, 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = time.process_time()
            rec[2] = time.clock_gettime(_CLOCK)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.clock_gettime(_CLOCK)
                rec[5] = time.process_time()
                stack.pop()
            if observer is not None:
                try:
                    observer(counts, layer_of(span_name), signature.bind(*args, **kwargs).arguments, out)
                except Exception:  # a renamed parameter must not fail the run
                    counts["trace.observer_errors"] += 1
            # the wrapper's own time around the call: what tracing adds
            rec[6] = time.clock_gettime(_CLOCK) - entered - (rec[3] - rec[2])
            return out

        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        for modname, attr, name, observer in WRAPS:
            try:
                mod = importlib.import_module(modname)
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self.originals[(modname, attr)] = fn
            setattr(mod, attr, self._wrap(fn, name, observer))

    def uninstall(self) -> None:
        for (modname, attr), fn in self.originals.items():
            setattr(importlib.import_module(modname), attr, fn)

    def run_root(self, name: str, fn, *args):
        """Run fn under a root span, so every self time sums to its wall time."""
        return self._wrap(fn, name, None)(*args)

    def cache_stats(self) -> dict:
        """Hits and misses of the lru_cached engine pieces."""
        from deeptherm import permgroup

        caches = {
            "sagg_bundle": self.originals.get(("deeptherm.replica", "_sagg_bundle")),
            "class_diagram_terms": self.originals.get(("deeptherm.replica", "class_diagram_terms")),
            "weingarten": getattr(permgroup, "_weingarten_cached", None),
            "product_cycle_counts": getattr(permgroup, "_product_cycle_counts", None),
        }
        out = {}
        for key, fn in caches.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[key] = {"hits": info.hits, "misses": info.misses}
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "caches": self.cache_stats(),
                "missing": self.missing}
