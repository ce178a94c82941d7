"""Merge the spans of traced jobs into the per-layer metrics.

A layer is a `degen` module; a span belongs to the layer its name starts
with.  Every `*_s` metric is a self time: a span's duration minus the
durations of its direct children (spans nest strictly, the program is
single-threaded), summed over the spans it names.  Spans named `trace.*`
are the recorder's own bookkeeping and belong to no layer.
"""

from __future__ import annotations

import json

# (metric, unit, better) in report order.
METRICS = (
    ("cli.self_s", "s", "lower"),
    ("bundle.load_s", "s", "lower"),
    ("bundle.load.bytes", "bytes", "lower"),
    ("bundle.load.entries", "count", "lower"),
    ("bundle.save_s", "s", "lower"),
    ("bundle.save.bytes", "bytes", "lower"),
    ("workbench.self_s", "s", "lower"),
    ("strata.self_s", "s", "lower"),
    ("strata.gamma.calls", "count", "lower"),
    ("strata.rho.calls", "count", "lower"),
    ("strata.ii_map.calls", "count", "lower"),
    ("strata.out.nnz", "count", "lower"),
    ("strata.out.cells", "count", "lower"),
    ("monodromy.self_s", "s", "lower"),
    ("monodromy.total_rows_s", "s", "lower"),
    ("monodromy.cone_of_N_s", "s", "lower"),
    ("monodromy.build_C_s", "s", "lower"),
    ("monodromy.cohomology_dims_s", "s", "lower"),
    ("monodromy.check.calls", "count", "lower"),
    ("deligne.self_s", "s", "lower"),
    ("deligne.deligne_group_s", "s", "lower"),
    ("deligne.z_map_s", "s", "lower"),
    ("deligne.conjecture_A_check_s", "s", "lower"),
    ("deligne.integral_orders_s", "s", "lower"),
    ("lfun.self_s", "s", "lower"),
    ("lfun.local_factor_s", "s", "lower"),
    ("lfun.strip_S_s", "s", "lower"),
    ("lfun.leading_s", "s", "lower"),
    ("lfun.functional_equation_s", "s", "lower"),
    ("lfun.make.calls", "count", "lower"),
    ("lfun.max_degree", "count", "lower"),
    ("lfun.max_coeff_bits", "bits", "lower"),
    ("qlinalg.self_s", "s", "lower"),
    ("qlinalg.mul.calls", "count", "lower"),
    ("qlinalg.mul_s", "s", "lower"),
    ("qlinalg.mul.cells", "count", "lower"),
    ("qlinalg.mul.useful", "count", "lower"),
    ("qlinalg.mul.useful_frac", "ratio", "higher"),
    ("qlinalg.rank.calls", "count", "lower"),
    ("qlinalg.rank_s", "s", "lower"),
    ("qlinalg.rref.calls", "count", "lower"),
    ("qlinalg.rref_s", "s", "lower"),
    ("qlinalg.elim.max_bits", "bits", "lower"),
    ("qlinalg.assemble_s", "s", "lower"),
    ("qlinalg.smith.calls", "count", "lower"),
    ("qlinalg.smith_s", "s", "lower"),
    ("qlinalg.smith.cells", "count", "lower"),
    ("qlinalg.smith.max_bits", "bits", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in METRICS}

LAYERS = ("cli", "bundle", "workbench", "strata", "monodromy", "deligne", "lfun", "qlinalg")

# metric -> span names whose self time it sums
SELF_TIMES = {
    "bundle.load_s": ("bundle.load",),
    "bundle.save_s": ("bundle.save",),
    "monodromy.total_rows_s": ("monodromy.total_rows",),
    "monodromy.cone_of_N_s": ("monodromy.cone_of_N",),
    "monodromy.build_C_s": ("monodromy.build_C",),
    "monodromy.cohomology_dims_s": ("monodromy.cohomology_dims",),
    "deligne.deligne_group_s": ("deligne.deligne_group",),
    "deligne.z_map_s": ("deligne.z_map",),
    "deligne.conjecture_A_check_s": ("deligne.conjecture_A_check",),
    "deligne.integral_orders_s": ("deligne.integral_orders",),
    "lfun.local_factor_s": ("lfun.local_factor",),
    "lfun.strip_S_s": ("lfun.strip_S",),
    "lfun.leading_s": ("lfun.leading_laurent",),
    "lfun.functional_equation_s": ("lfun.functional_equation",),
    "qlinalg.mul_s": ("qlinalg.Mat.__mul__",),
    "qlinalg.rank_s": ("qlinalg.rank",),
    "qlinalg.rref_s": ("qlinalg.rref",),
    "qlinalg.smith_s": ("qlinalg.smith_normal_form",),
    "qlinalg.assemble_s": tuple(
        f"qlinalg.Mat.{m}"
        for m in ("from_rows", "zero", "identity", "column", "hstack", "vstack", "block")
    ),
}

# metric -> span name whose calls it counts
CALLS = {
    "strata.gamma.calls": "strata.gamma",
    "strata.rho.calls": "strata.rho",
    "strata.ii_map.calls": "strata.ii_map",
    "monodromy.check.calls": "monodromy.CochainComplex.check",
    "lfun.make.calls": "lfun.RatFunc.make",
    "qlinalg.mul.calls": "qlinalg.Mat.__mul__",
    "qlinalg.rank.calls": "qlinalg.rank",
    "qlinalg.rref.calls": "qlinalg.rref",
    "qlinalg.smith.calls": "qlinalg.smith_normal_form",
}


def self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traces of one pass (one per job).

    Times and counts add up over jobs; maxima take the largest.  The
    result holds every metric of METRICS except trace.overhead_s.
    """
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            by_name[name] = by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in trace["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in by_name.items() if name.split(".", 1)[0] == layer
        )
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0)
    for metric, unit, _ in METRICS:
        if metric not in out and metric != "trace.overhead_s":
            out[metric] = maxima.get(metric, counts.get(metric, 0))
    cells = out["qlinalg.mul.cells"]
    out["qlinalg.mul.useful_frac"] = out["qlinalg.mul.useful"] / cells if cells else 0.0
    return {m: out[m] for m, _, _ in METRICS if m in out}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
