"""Metric values from the records of one benchmark run.

Names and units come from BENCHMARK.json; these functions only compute
values. A per-layer metric whose layer the workload never calls is 0: that
is the prediction for a bypassed layer, and it shows if a change starts
calling the layer there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

LOC_MODULES = ("measures", "numerics", "loewner", "grunsky", "capacity", "cli", "errors", "__init__")
TASKS = ("transform", "invert", "grunsky", "hayman", "evolve")
# workload-level metrics outside the gated end-to-end list (see `tasks`)
TASK_METRICS = ("lanes_per_s", "call_p50_ms", "call_p90_ms", *(f"{t}_s" for t in TASKS))


def op_medians(ops, passes):
    """Median duration of each op across passes."""
    return [statistics.median(p.durations[i] for p in passes) for i in range(len(ops))]


def failure_counts(checks):
    attempted = sum(c.lanes for c in checks)
    failed = sum(c.failed for c in checks)
    return attempted, failed


def unexpected_failures(ops, pass_checks, known):
    """Ops that fail on more lanes, in some pass, than ``known`` allows them.

    ``known`` maps an op name to the lanes it failed on at the seed commit;
    an op not named there must not fail at all. Fixing a known failure is
    never unexpected.
    """
    out = []
    for i, op in enumerate(ops):
        worst = max(pc[i].failed for pc in pass_checks)
        if worst > known.get(op.name, 0):
            out.append(f"{op.name} failed={worst} known={known.get(op.name, 0)}")
    return out


def end_to_end(passes, pass_checks, setup_s, peak_rss_mb):
    # Laplace estimate of one pass's failure probability: never 0, so a
    # first failure on a clean workload reads as a large relative change
    ratios = [(f + 1) / (a + 2) for a, f in map(failure_counts, pass_checks)]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "fail_ratio": statistics.median(ratios),
        "peak_rss_mb": peak_rss_mb,
    }


def tasks(ops, passes):
    """Workload-level metrics from untraced passes that not every workload has.

    Per-task sums (the same task through two interfaces) and lanes per
    second exist only where the workload runs the task. The call latency
    percentiles swing too much with the host to be gated.
    """
    med = op_medians(ops, passes)
    single = [m for op, m in zip(ops, med) if op.single]
    out = defaultdict(float)
    out["call_p50_ms"] = float(np.percentile(single, 50)) * 1e3
    out["call_p90_ms"] = float(np.percentile(single, 90)) * 1e3
    lanes = lane_s = 0.0
    for op, m in zip(ops, med):
        if op.task in TASKS:
            out[f"{op.task}_s"] += m
        if op.task in ("grid", "batch") or (op.task == "evolve" and op.lanes > 1):
            lanes += op.lanes
            lane_s += m
    if lane_s:
        out["lanes_per_s"] = lanes / lane_s
    return dict(out)


def per_layer(ops, passes, checks, tracer, setup_stats, cauchy_evals=0):
    """Layer metrics from traced passes, one pass's checks and set-up statistics."""
    med = op_medians(ops, passes)
    n = len(passes)
    out = dict(setup_stats)
    by = defaultdict(list)  # (task, tag) -> [(op, median, check)]
    for op, m, c in zip(ops, med, checks):
        by[op.task, op.tag].append((op, m, c))

    # loewner
    for (task, drv), rows in list(by.items()):
        if task == "grid":
            grid_s = sum(m for _, m, _ in rows)
            out[f"loewner.grid_s.{drv}"] = grid_s
            out[f"loewner.lanes_per_s.{drv}"] = sum(op.lanes for op, _, _ in rows) / grid_s
        elif task == "batch":
            out[f"loewner.batch_s.{drv}-10k"] = rows[0][1]
        elif task == "scalar":
            out[f"loewner.scalar_p50_ms.{drv}"] = statistics.median(m for _, m, _ in rows) * 1e3
    acc = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for op, c in zip(ops, checks):
        if op.task in ("grid", "batch", "scalar"):
            a = acc[op.tag]
            if c.refused:
                a[3] += c.lanes
            else:
                a[0] = max(a[0], c.max_err)
                a[1] = max(a[1], c.max_bound)
                a[2] += c.failed
    for drv, (err, bound, viol, refused) in acc.items():
        out[f"loewner.max_err.{drv}"] = err
        out[f"loewner.max_bound.{drv}"] = bound
        out[f"loewner.bound_violations.{drv}"] = viol
        out[f"loewner.refusals.{drv}"] = refused

    # measures, numerics
    for op, m, c in zip(ops, med, checks):
        if op.name == "cauchy.semi.batch":
            out["measures.cauchy.evals_per_s"] = cauchy_evals / m
            out["measures.cauchy.max_err"] = c.max_err
        elif op.name == "nevanlinna.semi":
            out["measures.nevanlinna_s"] = m
    invert = [(m, c) for op, m, c in zip(ops, med, checks) if op.layer == "measures" and op.task == "invert"]
    if invert:
        out["measures.stieltjes_s"] = sum(m for m, _ in invert)
        out["measures.stieltjes.abs_err"] = max(c.max_err for _, c in invert)
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)
    selfs = tracer.self_times()
    simpson = spans.get("numerics.adaptive_simpson", [])
    if simpson:
        calls = sum(s.counted_calls for s in simpson)
        out["measures.stieltjes.g_calls"] = calls / n
        out["measures.stieltjes.g_call_us"] = sum(s.counted_s for s in simpson) / calls * 1e6
        out["numerics.adaptive_simpson.self_s"] = sum(selfs[s.id] for s in simpson) / n
    dense = spans.get("measures.dense_nodes", [])
    if dense:
        out["measures.dense_nodes_s"] = sum(s.duration for s in dense) / n
        out["measures.dense_nodes.count"] = sum(s.items for s in dense) / n

    # grunsky, capacity
    cert = [(op, m, c) for op, m, c in zip(ops, med, checks) if op.task == "grunsky" and op.layer == "grunsky"]
    for order in sorted({op.tag for op, _, _ in cert}):
        out[f"grunsky.certificate_ms.{order}"] = statistics.mean(
            m for op, m, _ in cert if op.tag == order) * 1e3
    if cert:
        out["grunsky.verdict_errors"] = sum(c.failed for _, _, c in cert if not c.refused)
        out["grunsky.refusals"] = sum(c.refused for _, _, c in cert)
    hay = [(op, c) for op, c in zip(ops, checks) if op.task == "hayman" and op.layer == "capacity"]
    if hay:
        out["capacity.verdict_errors"] = sum(c.failed for _, c in hay)
        for s in spans.get("capacity.boundary_image", []):
            key = f"capacity.boundary_image_s.{ops[s.op].tag}"
            out[key] = out.get(key, 0.0) + s.duration / n
        out["capacity.fekete_s"] = sum(s.duration for s in spans.get("capacity.fekete", [])) / n

    # cli
    cli = {op.tag: m for op, m in zip(ops, med) if op.layer == "cli" and op.task == "hayman" and op.tag}
    if cli:
        out["cli.curve_csv_extra_s"] = cli["curve-csv"] - cli["plain"]
        out["cli.bad_outputs"] = sum(c.bad_output for op, c in zip(ops, checks) if op.layer == "cli")

    for layer, seconds in tracer.layer_self_seconds().items():
        out[f"{layer}.self_s"] = seconds / n
    return out


def loc(src: Path):
    out = {}
    for mod in LOC_MODULES:
        path = src / "chordal" / f"{mod}.py"
        out[f"loc.{mod}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["loc.total"] = sum(len(p.read_text().splitlines()) for p in (src / "chordal").glob("*.py"))
    return out
