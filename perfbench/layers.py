"""Per-layer metrics from the spans of traced passes and the rusage of untraced ones.

A span is ``[name, t0, t1, cpu0, cpu1, parent, attrs]`` (see tracing.py).
Self time is a span's duration minus that of its child spans. "Computed"
metrics come from array sizes, not from measurement.
"""

from __future__ import annotations

import statistics

from workloads import CLASSES

# name -> (unit, better); run.py prints them in this order.
METRICS = {
    "connectivity.exact_s": ("s", "lower"),
    "connectivity.values": ("count", "higher"),
    "connectivity.float_s": ("s", "lower"),
    "connectivity.bound_s": ("s", "lower"),
    "connectivity.bound_calls": ("count", "lower"),
    "digraph.mc_s": ("s", "lower"),
    "digraph.mc_graphs": ("count", "higher"),
    "digraph.mc_graphs_per_s": ("1/s", "higher"),
    "digraph.mc_draw_mb": ("MB", "lower"),
    "digraph.mc_thread_speedup": ("ratio", "higher"),
    "digraph.mc_cpu_util": ("ratio", "higher"),
    "channels.build_s": ("s", "lower"),
    "channels.channel_ptm_calls": ("count", "lower"),
    "channels.limit_s": ("s", "lower"),
    "channels.limit_mb": ("MB", "lower"),
    "channels.distance_s": ("s", "lower"),
    "channels.distance_calls": ("count", "lower"),
    "channels.dynamic_step_s": ("s", "lower"),
    "channels.dynamic_steps": ("count", "lower"),
    "channels.dynamic_gflop": ("GFLOP", "lower"),
    "channels.dynamic_gflop_per_s": ("GFLOP/s", "higher"),
    "channels.static_step_s": ("s", "lower"),
    "channels.static_graphs": ("count", "lower"),
    "channels.static_gflop": ("GFLOP", "lower"),
    "channels.static_gflop_per_s": ("GFLOP/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    **{f"proc.{c}.peak_rss_mb": ("MB", "lower") for c in CLASSES},
    **{f"proc.{c}.cpu_util": ("ratio", "higher") for c in CLASSES},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _dur(span) -> float:
    return span[2] - span[1]


class Spans:
    """The spans of one child process."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s[5], []).append(i)

    def named(self, *names: str):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] in names]

    def outermost(self, *names: str):
        """Spans with one of ``names`` that no other span of those names encloses."""
        out = []
        for i, s in self.named(*names):
            parent = s[5]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][5]
            if parent < 0:
                out.append((i, s))
        return out

    def self_time(self, i: int) -> float:
        return _dur(self.spans[i]) - sum(_dur(self.spans[j]) for j in self.children.get(i, ()))

    def descendants(self, i: int, name: str) -> int:
        stack, count = list(self.children.get(i, ())), 0
        while stack:
            j = stack.pop()
            count += self.spans[j][0] == name
            stack.extend(self.children.get(j, ()))
        return count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _traced(traced: list) -> dict[str, float]:
    """Span-derived values of one traced pass of (command, child record) pairs."""
    m = dict.fromkeys(METRICS, 0.0)
    mc_pairs: dict[tuple, dict[int, float]] = {}  # (n, p, samples) -> workers -> wall
    mc_cpu = 0.0
    for cmd, rec in traced:
        sp = Spans(rec["spans"] or [])
        pc_names = ("connectivity.pc_curve", "connectivity.prob_strongly_connected")
        for _, s in sp.outermost(*pc_names):
            key = "connectivity.exact_s" if s[6]["exact"] else "connectivity.float_s"
            m[key] += _dur(s)
            if s[6]["exact"]:
                m["connectivity.values"] += s[6]["values"]
        for _, s in sp.named("connectivity.lower_bound_pc"):
            m["connectivity.bound_s"] += _dur(s)
            m["connectivity.bound_calls"] += 1
        for _, s in sp.named("digraph.estimate_pc_monte_carlo"):
            a = s[6]
            m["digraph.mc_s"] += _dur(s)
            m["digraph.mc_graphs"] += a["samples"]
            m["digraph.mc_draw_mb"] += a["samples"] * a["n"] * (a["n"] - 1) * 2 / 1e6
            by_workers = mc_pairs.setdefault((a["n"], a["p"], a["samples"]), {})
            by_workers[a["workers"]] = by_workers.get(a["workers"], 0.0) + _dur(s)
            mc_cpu += s[4] - s[3]
        for _, s in sp.outermost("channels.averaged_channel_ptm", "channels.channel_ptm"):
            m["channels.build_s"] += _dur(s)
        m["channels.channel_ptm_calls"] += len(sp.named("channels.channel_ptm"))
        for _, s in sp.named("channels.asymptotic_channel"):
            m["channels.limit_s"] += _dur(s)
            m["channels.limit_mb"] = max(m["channels.limit_mb"], 2 * (4 ** s[6]["n"]) ** 2 * 8 / 1e6)
        for _, s in sp.named("channels.hs_distance"):
            m["channels.distance_s"] += _dur(s)
            m["channels.distance_calls"] += 1
        for i, s in sp.named("channels.convergence_trace"):
            if s[6]["mode"] == "dynamic":
                m["channels.dynamic_step_s"] += sp.self_time(i)
                m["channels.dynamic_steps"] += s[6]["steps"]
                m["channels.dynamic_gflop"] += 2 * (4 ** s[6]["n"]) ** 3 * s[6]["steps"] / 1e9
        for i, s in sp.named("channels.static_convergence_traces"):
            graphs = sp.descendants(i, "channels.channel_ptm") + s[6]["exhaustive"]
            m["channels.static_step_s"] += sp.self_time(i)
            m["channels.static_graphs"] += graphs
            m["channels.static_gflop"] += 2 * (4 ** s[6]["n"]) ** 3 * graphs * s[6]["steps"] / 1e9
        for i, _ in sp.named("cli.main"):
            m["cli.self_s"] += sp.self_time(i)
        m["cli.rows"] += max(rec["stdout"].count("\n") - 1, 0)
    m["digraph.mc_graphs_per_s"] = _ratio(m["digraph.mc_graphs"], m["digraph.mc_s"])
    pairs = [w for w in mc_pairs.values() if 1 in w and 2 in w]
    m["digraph.mc_thread_speedup"] = _ratio(sum(w[1] for w in pairs), sum(w[2] for w in pairs))
    m["digraph.mc_cpu_util"] = _ratio(mc_cpu, m["digraph.mc_s"])
    m["channels.dynamic_gflop_per_s"] = _ratio(m["channels.dynamic_gflop"], m["channels.dynamic_step_s"])
    m["channels.static_gflop_per_s"] = _ratio(m["channels.static_gflop"], m["channels.static_step_s"])
    return m


def metrics(untraced: list, traced: list) -> dict[str, float]:
    """Per-layer values from untraced and traced passes, each a list of (command, child record) pairs.

    Span-derived values are the median over traced passes; rusage values
    come from every untraced pass; the tracing overhead is the median traced
    pass wall time minus the median untraced one.
    """
    per_pass = [_traced(p) for p in traced]
    m = {k: statistics.median(d[k] for d in per_pass) for k in METRICS}
    runs = [pair for p in untraced for pair in p]
    for c in CLASSES:
        recs = [rec for cmd, rec in runs if cmd.cls == c]
        m[f"proc.{c}.peak_rss_mb"] = max((r["maxrss_mb"] for r in recs), default=0.0)
        m[f"proc.{c}.cpu_util"] = _ratio(sum(r["cpu_s"] for r in recs), sum(r["wall_s"] for r in recs))
    plain = statistics.median(sum(rec["wall_s"] for _, rec in p) for p in untraced)
    m["trace.overhead_s"] = statistics.median(sum(rec["wall_s"] for _, rec in p) for p in traced) - plain
    m["trace.overhead_pct"] = 100 * _ratio(m["trace.overhead_s"], plain)
    return m
