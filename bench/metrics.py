"""Turn the workers' raw measurements into the named metrics of BENCHMARK.json.

End-to-end metrics come from the untraced loop; per-layer metrics from
the traced loop's aggregates, normalised per op (counts and ms per op).
"""

import statistics

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "lp_gap_rel": "ratio",
}

PER_LAYER_UNITS = {
    "expansion.feature_calls": "count",
    "expansion.evaluator_ms": "ms",
    "expansion.self_ms": "ms",
    "kernel_core.kernel_evals": "count",
    "kernel_core.gram_calls": "count",
    "kernel_core.gram_entries": "count",
    "kernel_core.gram_ms": "ms",
    "kernel_core.eval_us": "us",
    "kernel_core.self_ms": "ms",
    "gegenbauer.table_calls": "count",
    "gegenbauer.table_points": "count",
    "gegenbauer.self_ms": "ms",
    "gegenbauer.quad_rules": "count",
    "gegenbauer.basis_hit_ratio": "ratio",
    "gegenbauer.basis_hits": "count",
    "gegenbauer.basis_misses": "count",
    "sphere.calls": "count",
    "sphere.self_ms": "ms",
    "addition.self_ms": "ms",
    "addition.fit_calls": "count",
    "addition.accept_ratio": "ratio",
    "lp_bound.solve_ms": "ms",
    "lp_bound.certify_ms": "ms",
    "lp_bound.rounds": "count",
    "lp_bound.refined_points": "count",
    "lp_bound.max_violation": "1",
    "lp_bound.self_ms": "ms",
    "simplex.calls": "count",
    "simplex.iterations": "count",
    "simplex.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "cli.self_ms": "ms",
    "bench.self_ms": "ms",
    "trace.overhead_rel": "ratio",
    "trace.spans": "count",
}

#: Layers whose self time is reported as a share of the traced op time.
SHARE_LAYERS = ("gegenbauer", "sphere", "kernel_core", "expansion", "addition",
                "lp_bound", "simplex", "cli", "bench")


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With 10 or fewer samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_samples: list, loop: dict, peak_rss_mb: float, gap: float,
               attempted: int, failed: int) -> tuple[dict, dict]:
    """(metrics, details): metric name -> value, plus what the metrics leave out."""
    lat = loop["latencies_ms"]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(lat) / loop["elapsed_s"],
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "lp_gap_rel": gap,
    }
    by_kind: dict[str, list] = {}
    for kind, ms in zip(loop["kinds"], lat):
        by_kind.setdefault(kind, []).append(ms)
    details = {
        "op_tail_percentile": tail_pct,
        "op_samples": len(lat),
        "fail_ratio": failed / attempted,
        "setup_samples_s": setup_samples,
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        "ops_by_kind": {k: len(v) for k, v in by_kind.items()},
    }
    return metrics, details


def per_layer(agg: dict, traced: dict, untraced: dict, import_ms: float) -> tuple[dict, dict]:
    """(metrics, details) from the traced loop's aggregates, per traced op."""
    n = len(traced["latencies_ms"])
    calls, total, self_ns = agg["calls"], agg["total_ns"], agg["self_ns"]
    counters, maxima = agg["counters"], agg["maxima"]

    def per_op(x):
        return x / n

    def ms(ns):
        return ns / 1e6 / n

    def ratio(a, b):
        return a / b if b else 0.0

    evals = calls.get("kernel_core.Kernel.__call__", 0)
    hits = counters.get("gegenbauer.basis_hits", 0)
    misses = counters.get("gegenbauer.basis_misses", 0)
    solves = calls.get("lp_bound.delsarte_lp", 0)
    commands = calls.get("cli.main", 0)
    metrics = {
        "expansion.feature_calls": per_op(calls.get("expansion.FeatureMapCoefficient.__call__", 0)),
        "expansion.evaluator_ms": ms(total.get("expansion.evaluator", 0)),
        "expansion.self_ms": ms(self_ns.get("expansion", 0)),
        "kernel_core.kernel_evals": per_op(evals),
        "kernel_core.gram_calls": per_op(calls.get("kernel_core.gram", 0)),
        "kernel_core.gram_entries": per_op(counters.get("kernel_core.gram_entries", 0)),
        "kernel_core.gram_ms": ms(total.get("kernel_core.gram", 0)),
        "kernel_core.eval_us": ratio(total.get("kernel_core.Kernel.__call__", 0) / 1e3, evals),
        "kernel_core.self_ms": ms(self_ns.get("kernel_core", 0)),
        "gegenbauer.table_calls": per_op(calls.get("gegenbauer.gegenbauer_table", 0)),
        "gegenbauer.table_points": per_op(counters.get("gegenbauer.table_points", 0)),
        "gegenbauer.self_ms": ms(self_ns.get("gegenbauer", 0)),
        "gegenbauer.quad_rules": per_op(calls.get("gegenbauer.gauss_gegenbauer_rule", 0)),
        "gegenbauer.basis_hit_ratio": ratio(hits, hits + misses),
        "gegenbauer.basis_hits": per_op(hits),
        "gegenbauer.basis_misses": per_op(misses),
        "sphere.calls": per_op(sum(v for k, v in calls.items() if k.startswith("sphere."))),
        "sphere.self_ms": ms(self_ns.get("sphere", 0)),
        "addition.self_ms": ms(self_ns.get("addition", 0)),
        "addition.fit_calls": per_op(calls.get("addition.addition_constants", 0)),
        "addition.accept_ratio": ratio(counters.get("addition.accepted", 0),
                                       counters.get("addition.drawn", 0)),
        "lp_bound.solve_ms": ms(total.get("lp_bound.delsarte_lp", 0)),
        "lp_bound.certify_ms": ms(total.get("lp_bound.certify", 0)),
        "lp_bound.rounds": ratio(calls.get("lp_bound._solve_on_grid", 0), solves),
        "lp_bound.refined_points": ratio(counters.get("lp_bound.refined_points", 0), solves),
        "lp_bound.max_violation": maxima.get("lp_bound.max_violation", 0.0),
        "lp_bound.self_ms": ms(self_ns.get("lp_bound", 0)),
        "simplex.calls": per_op(calls.get("simplex.simplex_max", 0)),
        "simplex.iterations": per_op(counters.get("simplex.iterations", 0)),
        "simplex.self_ms": ms(self_ns.get("simplex", 0)),
        "cli.import_ms": import_ms,
        "cli.command_ms": ratio(total.get("cli.main", 0) / 1e6, commands),
        "cli.self_ms": ms(self_ns.get("cli", 0)),
        "bench.self_ms": ms(self_ns.get("bench", 0)),
        "trace.overhead_rel": (statistics.median(traced["latencies_ms"])
                               / statistics.median(untraced["latencies_ms"])),
        "trace.spans": per_op(sum(calls.values())),
    }
    op_ns = sum(self_ns.values())
    details = {
        "traced_ops": n,
        "self_share": {layer: ratio(self_ns.get(layer, 0), op_ns) for layer in SHARE_LAYERS},
        "absent": agg["absent"],
    }
    return metrics, details
