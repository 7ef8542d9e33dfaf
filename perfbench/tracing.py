"""Spans around the public functions of randqnet's layers.

``Recorder.install`` replaces each wrapped function on every randqnet
module that holds it, so calls made inside the package are caught too
(``channels`` resolves ``hs_distance``, ``channel_ptm`` and
``sample_digraph`` as globals at call time). Spans stay in memory as
``[name, t0, t1, cpu0, cpu1, parent, attrs]`` lists and leave the process
with the child's report. The wrapped code runs no traced function on a
worker thread, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

from randqnet import channels, cli, connectivity, digraph

MODULES = {"connectivity": connectivity, "digraph": digraph, "channels": channels, "cli": cli}


def _session_attrs(args, kwargs, result):
    return {"exact": args[0].exact, "values": 1}


def _curve_attrs(args, kwargs, result):
    return {"exact": isinstance(result.p, Fraction), "values": len(result.rows)}


def _mc_attrs(args, kwargs, result):
    n, p, samples = args[:3]
    return {"n": n, "p": str(p), "samples": samples, "workers": kwargs.get("workers", 1)}


def _limit_attrs(args, kwargs, result):
    return {"n": args[0]}


def _dynamic_attrs(args, kwargs, result):
    n, _p, mode, _r_max = args[:4]
    return {"n": n, "mode": mode, "steps": len(result) - 1}


def _static_attrs(args, kwargs, result):
    n, _p_list, r_max = args[:3]
    return {"n": n, "steps": r_max, "exhaustive": kwargs.get("mode", "exhaustive") == "exhaustive"}


# (module, attribute, span name, attrs from (args, kwargs, result))
WRAPPED = [
    ("connectivity", "pc_curve", "connectivity.pc_curve", _curve_attrs),
    ("connectivity", "lower_bound_pc", "connectivity.lower_bound_pc", None),
    ("digraph", "estimate_pc_monte_carlo", "digraph.estimate_pc_monte_carlo", _mc_attrs),
    ("digraph", "sample_digraph", "digraph.sample_digraph", None),
    ("channels", "averaged_channel_ptm", "channels.averaged_channel_ptm", None),
    ("channels", "channel_ptm", "channels.channel_ptm", None),
    ("channels", "asymptotic_channel", "channels.asymptotic_channel", _limit_attrs),
    ("channels", "hs_distance", "channels.hs_distance", None),
    ("channels", "convergence_trace", "channels.convergence_trace", _dynamic_attrs),
    ("channels", "static_convergence_traces", "channels.static_convergence_traces", _static_attrs),
    ("cli", "main", "cli.main", None),
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs_of):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, time.process_time(), None,
                          open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
                spans[idx][4] = time.process_time()
            if attrs_of is not None:
                spans[idx][6] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, attrs_of in WRAPPED:
            original = getattr(MODULES[mod_name], attr)
            traced = self.wrap(name, original, attrs_of)
            for mod in MODULES.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
        session = connectivity.ConnectivitySession
        session.prob_strongly_connected = self.wrap(
            "connectivity.prob_strongly_connected", session.prob_strongly_connected, _session_attrs
        )
