"""Per-layer metrics from one traced repetition.

Timings are self times: a span's duration minus that of its child spans.
Flop and byte totals are computed from array shapes (see tracer.py), not
counted by hardware: cache misses are not in them, so no roofline ratio is
given.  The package has no queues, so `wait_s` is zero by construction.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import layer_of

LAYERS = ("cli", "replica", "permgroup", "montecarlo", "kim", "linalg", "records", "dual_tensors")

# span name -> metric name of its summed self time
SELF_TIME_METRICS = {
    "replica.orbit_aggregate": "replica.orbit_aggregate_s",
    "replica.sagg_bundle": "replica.sagg_bundle_s",
    "replica.kfold": "replica.kfold_s",
    "replica.class_diagrams": "replica.class_diagrams_s",
    "replica.moment": "replica.moment_s",
    "replica.extrapolate": "replica.extrapolate_s",
    "permgroup.weingarten": "permgroup.weingarten_s",
    "montecarlo.rng": "montecarlo.rng_s",
    "montecarlo.haar_qr": "montecarlo.haar_qr_s",
    "montecarlo.reduce": "montecarlo.reduce_s",
    "montecarlo.accum": "montecarlo.accum_s",
    "montecarlo.jackknife": "montecarlo.jackknife_s",
    "kim.moment_accum": "kim.moment_accum_s",
    "kim.floquet": "kim.floquet_s",
    "kim.entropy": "kim.entropy_s",
    "kim.delta_k": "kim.delta_k_s",
    "linalg.trace_norm": "linalg.trace_norm_s",
    "records.write": "records.write_s",
    "dual_tensors.build_w": "dual_tensors.build_w_s",
}

CACHES = ("sagg_bundle", "class_diagram_terms", "weingarten", "product_cycle_counts")

# every per-layer metric with its unit, in report order
UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS.values()},
    "replica.orbit_aggregate_calls": "count",
    "replica.fits_flagged": "count",
    "replica.orbit_aggregate_gflop_computed": "GFLOP",
    "replica.orbit_aggregate_gbyte_computed": "GB",
    **{f"cache.{c}_{k}": "count" for c in CACHES for k in ("hits", "misses")},
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.haar_unitaries": "count",
    "montecarlo.haar_columns_used_frac": "frac",
    "montecarlo.accum_gflops": "GFLOP/s",
    "montecarlo.checkpoint_s": "s",
    "montecarlo.batch_ms_p50": "ms",
    "montecarlo.batch_ms_p99": "ms",
    "montecarlo.batches": "count",
    "montecarlo.weight_ess_frac": "frac",
    "montecarlo.null_samples": "count",
    "montecarlo.stderr_rel": "frac",
    "montecarlo.accum_gflop_computed": "GFLOP",
    "montecarlo.accum_gbyte_computed": "GB",
    "montecarlo.haar_qr_gflop_computed": "GFLOP",
    "montecarlo.haar_qr_gbyte_computed": "GB",
    "kim.accum_gflops": "GFLOP/s",
    "kim.floquet_steps": "count",
    "kim.bath_outcomes": "count",
    "kim.accum_gflop_computed": "GFLOP",
    "kim.accum_gbyte_computed": "GB",
    "linalg.trace_norm_calls": "count",
    "records.bytes_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.cpu_per_wall": "ratio" for layer in LAYERS},
    "wait_s": "s",
    "trace.spans": "count",
    "trace.missing_wraps": "count",
    "trace.observer_errors": "count",
    "trace.unaccounted_frac": "frac",
    "trace_overhead_frac": "frac",
}


def span_table(spans: list) -> dict:
    """name -> {calls, self_s, self_cpu_s, total_s, parents}."""
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for name, parent, w0, w1, c0, c1, _ in spans:
        if parent >= 0:
            child_wall[parent] += w1 - w0
            child_cpu[parent] += c1 - c0
    table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0,
                                       "total_s": 0.0, "parents": set()})
    for i, (name, parent, w0, w1, c0, c1, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (w1 - w0) - child_wall[i]
        row["self_cpu_s"] += (c1 - c0) - child_cpu[i]
        row["total_s"] += w1 - w0
        row["parents"].add(spans[parent][0] if parent >= 0 else None)
    return table


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(trace: dict, traced_wall_s: float, mc_samples: int = 0,
                      stderr_rel: float = 0.0) -> dict:
    """trace_overhead_frac is traced wall over untraced wall, minus 1, where the
    untraced wall is the traced one less the time the wrappers spent on their
    own bookkeeping.  Timing a second, untraced repetition instead would
    measure the host's run-to-run noise (tens of percent on a shared
    machine), not the tracer's cost."""
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]
    table = span_table(spans)
    c = lambda key: counts.get(key, 0)  # noqa: E731
    m = {metric: table[name]["self_s"] if name in table else 0.0
         for name, metric in SELF_TIME_METRICS.items()}
    m["replica.orbit_aggregate_calls"] = table["replica.orbit_aggregate"]["calls"] if "replica.orbit_aggregate" in table else 0
    m["replica.fits_flagged"] = c("replica.fits_flagged")
    m["replica.orbit_aggregate_gflop_computed"] = c("replica.orbit_aggregate_flop") / 1e9
    m["replica.orbit_aggregate_gbyte_computed"] = c("replica.orbit_aggregate_byte") / 1e9
    for key in CACHES:
        info = caches.get(key, {"hits": 0, "misses": 0})
        m[f"cache.{key}_hits"] = info["hits"]
        m[f"cache.{key}_misses"] = info["misses"]

    m["montecarlo.samples_per_s"] = mc_samples / traced_wall_s
    m["montecarlo.haar_unitaries"] = c("montecarlo.haar_unitaries")
    m["montecarlo.haar_columns_used_frac"] = _safe_div(c("montecarlo.columns_used"), c("montecarlo.columns_made"))
    m["montecarlo.accum_gflops"] = _safe_div(c("montecarlo.accum_flop") / 1e9, m["montecarlo.accum_s"])
    m["montecarlo.checkpoint_s"] = sum(
        w1 - w0 for name, parent, w0, w1, *_ in spans
        if name == "linalg.trace_norm" and parent >= 0 and spans[parent][0] == "montecarlo.mc_moment")
    starts = [w0 for name, _, w0, *_ in spans if name == "montecarlo.batch_states"]
    batch_ms = [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
    m["montecarlo.batch_ms_p50"] = statistics.median(batch_ms) if batch_ms else 0.0
    m["montecarlo.batch_ms_p99"] = (statistics.quantiles(batch_ms, n=100)[98]
                                    if len(batch_ms) >= 100 else max(batch_ms, default=0.0))
    m["montecarlo.batches"] = len(starts)
    wsum, wsq, rows = c("montecarlo.weight_sum"), c("montecarlo.weight_sq_sum"), c("montecarlo.accum_rows")
    m["montecarlo.weight_ess_frac"] = _safe_div(_safe_div(wsum * wsum, wsq), rows)
    m["montecarlo.null_samples"] = c("montecarlo.null_rows")
    m["montecarlo.stderr_rel"] = stderr_rel
    m["montecarlo.accum_gflop_computed"] = c("montecarlo.accum_flop") / 1e9
    m["montecarlo.accum_gbyte_computed"] = c("montecarlo.accum_byte") / 1e9
    m["montecarlo.haar_qr_gflop_computed"] = c("montecarlo.haar_qr_flop") / 1e9
    m["montecarlo.haar_qr_gbyte_computed"] = c("montecarlo.haar_qr_byte") / 1e9

    m["kim.accum_gflops"] = _safe_div(c("kim.accum_flop") / 1e9, m["kim.moment_accum_s"])
    m["kim.floquet_steps"] = c("kim.floquet_steps")
    m["kim.bath_outcomes"] = c("kim.accum_rows")
    m["kim.accum_gflop_computed"] = c("kim.accum_flop") / 1e9
    m["kim.accum_gbyte_computed"] = c("kim.accum_byte") / 1e9

    m["linalg.trace_norm_calls"] = table["linalg.trace_norm"]["calls"] if "linalg.trace_norm" in table else 0
    m["records.bytes_written"] = c("records.bytes_written")

    layer_wall = dict.fromkeys(LAYERS, 0.0)
    layer_cpu = dict.fromkeys(LAYERS, 0.0)
    for name, row in table.items():
        layer_wall[layer_of(name)] += row["self_s"]
        layer_cpu[layer_of(name)] += row["self_cpu_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_wall[layer]
        m[f"{layer}.cpu_per_wall"] = _safe_div(layer_cpu[layer], layer_wall[layer])
    m["wait_s"] = 0.0
    m["trace.spans"] = len(spans)
    m["trace.missing_wraps"] = len(trace["missing"])
    m["trace.observer_errors"] = c("trace.observer_errors")
    m["trace.unaccounted_frac"] = 1.0 - sum(layer_wall.values()) / traced_wall_s
    overhead = sum(span[6] for span in spans)
    m["trace_overhead_frac"] = traced_wall_s / (traced_wall_s - overhead) - 1.0
    assert set(m) == set(UNITS), set(m) ^ set(UNITS)
    return m
