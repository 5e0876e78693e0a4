"""The benchmark's metrics: names, units, and how each is computed.

End-to-end metrics come from the untraced run; per-layer metrics from the
traced run.  ``MOVES`` records, for every per-layer metric, which
end-to-end metric on which workload it should move, written down before
anything was measured.  A per-layer metric of a layer that a workload does
not run reads 0 on that workload.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, better, [(end-to-end metric, workload), ...])
MOVES: dict[str, tuple[str, str, list[tuple[str, str]]]] = {
    "cli.self_s": ("s", "lower", [("op_p50_ms", "corpus")]),
    "cli.main.self_s": ("s", "lower", [("op_p50_ms", "corpus"), ("wall_s", "equi")]),
    "cli.read_cycles.self_s": ("s", "lower", [("items_per_s", "corpus")]),
    "cli.table1_rows.self_s": ("s", "lower", [("wall_s", "equi")]),
    "cycles.self_s": ("s", "lower", [("items_per_s", "corpus")]),
    "cycles.validate_cycle.calls": ("count", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "cycles.validate_cycle.self_s": ("s", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "cycles.color.calls_per_cycle": ("count", "lower", [("items_per_s", "corpus")]),
    "cycles.normalize.self_s": ("s", "lower", [("items_per_s", "corpus"), ("op_p50_ms", "corpus")]),
    "cycles.dimension_profile.self_s": ("s", "lower", [("items_per_s", "corpus"), ("op_p50_ms", "corpus")]),
    "cycles.check_balance.self_s": ("s", "lower", [("items_per_s", "corpus"), ("op_p50_ms", "corpus")]),
    "cycles.check_segment_sums.self_s": ("s", "lower", [("items_per_s", "corpus"), ("op_p50_ms", "corpus")]),
    "cycles.chromatic_vector.self_s": ("s", "lower", [("items_per_s", "corpus"), ("op_p50_ms", "corpus")]),
    "squares.self_s": ("s", "lower", [("items_per_s", "corpus")]),
    "squares.find_squares.self_s": ("s", "lower", [("items_per_s", "corpus")]),
    "squares.find_squares.squares_per_cycle": ("count", "higher", [("items_per_s", "corpus")]),
    "squares.check_threshold_implication.self_s": ("s", "lower", [("items_per_s", "corpus")]),
    "squares.has_square.self_s": ("s", "lower", [("items_per_s", "enumerate")]),
    "hypercube.calls_per_cycle": ("count", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "hypercube.edge_dim.calls_per_cycle": ("count", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "hypercube.drop_entry.calls_per_cycle": ("count", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "hypercube.parity_excluding.calls_per_cycle": ("count", "lower", [("items_per_s", "corpus"), ("items_per_s", "enumerate")]),
    "enumeration.self_s": ("s", "lower", [("wall_s", "enumerate"), ("wall_s", "sample")]),
    "enumeration.enumerate_cycles.self_s": ("s", "lower", [("items_per_s", "enumerate")]),
    "enumeration.enumerate_cycles.cycles_per_busy_s": ("1/s", "higher", [("items_per_s", "enumerate")]),
    "enumeration.empty_prefix_share": ("ratio", "lower", [("wall_s", "enumerate"), ("op_p90_ms", "enumerate")]),
    "enumeration.prune_speedup": ("ratio", "higher", [("wall_s", "enumerate")]),
    "enumeration.sample_cycles.s_per_cycle.n7": ("s", "lower", [("items_per_s", "sample"), ("wall_s", "sample")]),
    "enumeration.sample_cycles.s_per_cycle.n8": ("s", "lower", [("items_per_s", "sample"), ("wall_s", "sample")]),
    "enumeration.sample_cycles.slow_draw_share": ("ratio", "lower", [("items_per_s", "sample"), ("wall_s", "sample")]),
    "graphs.self_s": ("s", "lower", [("wall_s", "equi")]),
    "graphs.parse_bipartite.self_s": ("s", "lower", [("wall_s", "equi")]),
    "graphs.hypercube_bipartite.self_s": ("s", "lower", [("wall_s", "equi")]),
    "graphs.witness_check.self_s": ("s", "lower", [("wall_s", "equi")]),
    "independence.self_s": ("s", "lower", [("wall_s", "equi")]),
    "independence.equi_reduction.self_s": ("s", "lower", [("wall_s", "equi")]),
    "independence.equi_reduction.pair_vertices_per_s": ("1/s", "higher", [("wall_s", "equi")]),
    "independence.direct.self_s": ("s", "lower", [("op_p50_ms", "equi"), ("op_p90_ms", "equi"), ("items_per_s", "equi")]),
    "independence.reduction.self_s": ("s", "lower", [("op_p50_ms", "equi"), ("op_p90_ms", "equi"), ("items_per_s", "equi")]),
    "independence.max_independent_set.self_s": ("s", "lower", [("op_p50_ms", "equi"), ("op_p90_ms", "equi"), ("items_per_s", "equi")]),
    "trace.overhead_ratio": ("ratio", "lower", []),
}

PER_LAYER = {name: unit for name, (unit, _, _) in MOVES.items()}

# layers with spans; qube.hypercube is counted, not spanned
SPAN_LAYERS = ("cli", "cycles", "squares", "enumeration", "graphs", "independence")
SLOW_DRAW_S = 0.1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, latencies: list[float], items: int,
               peak_rss_mb: float) -> dict[str, float]:
    wall_s = sum(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": _ratio(items, wall_s),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, ops, cycles: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced run over ``ops``; ``cycles`` is the
    number of cycles the run analysed, emitted or drew (0 if none)."""
    agg = tracer.by_name()

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith(layer + "."))
    for name in MOVES:
        if name.endswith(".self_s") and name.count(".") == 2:
            out[name] = get(name[: -len(".self_s")], "self_s")
    out["cycles.validate_cycle.calls"] = get("cycles.validate_cycle", "calls")
    out["cycles.color.calls_per_cycle"] = _ratio(get("cycles.color", "calls"), cycles)
    out["squares.find_squares.squares_per_cycle"] = _ratio(
        get("squares.find_squares", "items"), get("squares.find_squares", "calls"))
    out["hypercube.calls_per_cycle"] = _ratio(sum(tracer.counts.values()), cycles)
    for prim in ("edge_dim", "drop_entry", "parity_excluding"):
        out[f"hypercube.{prim}.calls_per_cycle"] = _ratio(tracer.counts.get(f"hypercube.{prim}", 0), cycles)

    # enumeration: per-op busy time of the search and of the sampler
    kind = {op.id: op.kind for op in ops}
    search: dict[str, list[float]] = {}
    draws: list[tuple[str, float, int]] = []
    for span in tracer.spans:
        if span[0] == "enumeration.enumerate_cycles":
            acc = search.setdefault(span[4], [0.0, 0])
            acc[0] += tracer.self_seconds(span)
            acc[1] += span[6]
        elif span[0] == "enumeration.sample_cycles":
            draws.append((kind.get(span[4], ""), span[2] - span[1], span[6]))
    out["enumeration.enumerate_cycles.cycles_per_busy_s"] = _ratio(
        get("enumeration.enumerate_cycles", "items"), get("enumeration.enumerate_cycles", "self_s"))
    prefix_ops = [acc for op_id, acc in search.items() if kind.get(op_id) == "prefix"]
    out["enumeration.empty_prefix_share"] = _ratio(
        sum(t for t, found in prefix_ops if found == 0), sum(t for t, _ in prefix_ops))
    out["enumeration.prune_speedup"] = _ratio(
        search.get("n4-prune-none", [0.0])[0], search.get("n4-prune-all", [0.0])[0])
    for n in (7, 8):
        mine = [(t, c) for k, t, c in draws if k == f"n{n}"]
        out[f"enumeration.sample_cycles.s_per_cycle.n{n}"] = _ratio(
            sum(t for t, _ in mine), sum(c for _, c in mine))
    out["enumeration.sample_cycles.slow_draw_share"] = _ratio(
        sum(1 for _, t, _ in draws if t > SLOW_DRAW_S), len(draws))

    out["graphs.witness_check.self_s"] = get("graphs.is_independent", "self_s") + get("graphs.is_balanced", "self_s")
    out["independence.equi_reduction.pair_vertices_per_s"] = _ratio(
        get("independence.equi_reduction", "items"), get("independence.equi_reduction", "self_s"))
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: float(out[name]) for name in MOVES}
