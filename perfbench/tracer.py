"""Spans around the public functions of each cfmimo layer, recorded from outside.

`install` rebinds a module attribute to a timing wrapper, and rebinds every
other cfmimo module attribute that holds the same function object, so names
imported with `from ... import` (such as `cli.generate_deployment`) are timed
too.  Calls made through a module global or a module attribute pick up the
wrapper; nothing inside the program is edited.

A span records its name, start, end and parent.  A layer's self time is the
span's duration minus the durations of its direct children and minus the time
its children's wrappers spent on bookkeeping (recording the span and computing
its counters); the sum of that bookkeeping over all spans is the tracer's
overhead.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

# (module, function) pairs timed by a traced run; the module is the layer.
TRACED = (
    ("scenario", "generate_deployment"),
    ("channel", "link_budget"),
    ("channel", "clutter_geometry"),
    ("channel", "clutter_return"),
    ("channel", "assign_pilots"),
    ("channel", "mmse_estimate"),
    ("channel", "correlation_sqrt"),
    ("association", "mask"),
    ("association", "link_quality"),
    ("association", "priorities"),
    ("association", "optimize"),
    ("association", "association_csv"),
    ("association", "run_sua"),
    ("association", "run_baseline"),
    ("comm_perf", "ser_monte_carlo"),
    ("comm_perf", "ser_theory"),
    ("sense_perf", "pd_monte_carlo"),
    ("sense_perf", "marcum_q1"),
    ("net_metrics", "clutter_counts"),
    ("net_metrics", "association_runtime"),
    ("report", "build_report"),
    ("cli", "atomic_write"),
    ("cli", "main"),
)


def metric_units() -> dict:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for mod, fn in TRACED:
        units[f"{mod}.{fn}.self_s"] = "s"
        units[f"{mod}.{fn}.calls"] = "count"
    for name in ("channel.clutter_return.in_lobe", "association.link_quality.links",
                 "association.optimize.binding_calls", "comm_perf.ser_monte_carlo.symbols",
                 "sense_perf.pd_monte_carlo.trials"):
        units[name] = "count"
    units["association.association_csv.bytes"] = "bytes"
    units["cli.atomic_write.bytes"] = "bytes"
    units["channel.lobe_hit_ratio"] = "ratio"
    units["association.psi"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _param_index(fn, name):
    return list(inspect.signature(fn).parameters).index(name)


def _arg(args, kwargs, index, name):
    return args[index] if index < len(args) else kwargs[name]


def _counter_rules(funcs):
    """Per traced name: fn(args, kwargs, result) -> (sums, gauges)."""
    ret = funcs["channel.clutter_return"]
    i_dep = _param_index(ret, "deployment")
    lq = funcs["association.link_quality"]
    i_lq_budget, i_lq_mask = _param_index(lq, "budget"), _param_index(lq, "mask_m")
    opt = funcs["association.optimize"]
    i_opt = [_param_index(opt, n) for n in ("S", "R", "M", "tau_p", "X")]
    aw = funcs["cli.atomic_write"]
    i_aw_path, i_aw_text = _param_index(aw, "path"), _param_index(aw, "text")

    def clutter_return(a, kw, r):
        n_scat = _arg(a, kw, i_dep, "deployment").scatterer_pos.shape[0]
        return {"in_lobe": r[1], "tested": n_scat}, {}

    def link_quality(a, kw, r):
        m = _arg(a, kw, i_lq_mask, "mask_m")
        if m is None:
            links = _arg(a, kw, i_lq_budget, "budget").p_r_dbm.size
        else:
            links = int(np.count_nonzero(np.asarray(m) == 1))
        return {"links": links}, {}

    def mask(a, kw, r):
        m = np.asarray(r[0])
        return {}, {"psi": float(m.sum()) / m.size}

    def optimize(a, kw, r):
        # the optimizer's fast path: the per-UE top-X relaxation is returned
        # unless it over-fills some AP
        from cfmimo import association

        S, R, M, tau_p, X = (_arg(a, kw, i, n) for i, n in zip(i_opt, ("S", "R", "M", "tau_p", "X")))
        w, M = association._check_instance(S, R, M, tau_p, X)
        top = association._column_top_selection(w, M, X)
        return {"binding_calls": int(top.sum(axis=1).max(initial=0) > tau_p)}, {}

    def association_csv(a, kw, r):
        return {"bytes": len(r.encode())}, {}

    def ser_monte_carlo(a, kw, r):
        return {"symbols": sum(p.mc_symbols for p in r)}, {}

    def pd_monte_carlo(a, kw, r):
        return {"trials": sum(p.n_trials for p in r[0] if p.ue != "aggregate")}, {}

    def atomic_write(a, kw, r):
        # netmetrics_runtime.csv holds wall-clock medians whose printed length
        # changes from run to run; the counter covers the reproducible files.
        if "runtime" in str(_arg(a, kw, i_aw_path, "path")):
            return {}, {}
        return {"bytes": len(_arg(a, kw, i_aw_text, "text").encode())}, {}

    return {
        "channel.clutter_return": clutter_return,
        "association.link_quality": link_quality,
        "association.mask": mask,
        "association.optimize": optimize,
        "association.association_csv": association_csv,
        "comm_perf.ser_monte_carlo": ser_monte_carlo,
        "sense_perf.pd_monte_carlo": pd_monte_carlo,
        "cli.atomic_write": atomic_write,
    }


def _cfmimo_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cfmimo" or name.startswith("cfmimo."))]


def install(wrap, targets):
    """Replace each target function with wrap(qualified_name, fn) everywhere
    a cfmimo module binds it. Returns {qualified_name: original function}."""
    originals = {}
    for mod_name, fn_name in targets:
        fn = getattr(sys.modules[f"cfmimo.{mod_name}"], fn_name)
        qual = f"{mod_name}.{fn_name}"
        originals[qual] = fn
        wrapped = wrap(qual, fn)
        for module in _cfmimo_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return originals


class CallTimer:
    """Durations of every call to one function; the only instrument an
    untraced run carries."""

    def __init__(self):
        self.samples = []

    def wrap(self, qual, fn):
        samples = self.samples

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)
        return timed


class Tracer:
    """In-memory span recorder with per-function counters."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.hidden = []       # children's wrapper bookkeeping time, per span
        self.overhead_s = 0.0  # bookkeeping time of every wrapper, outside the spans
        self.sums = {}
        self.gauges = {}
        self._stack = []
        self._rules = {}

    def install(self):
        originals = install(self.wrap, TRACED)
        self._rules = _counter_rules(originals)

    def wrap(self, qual, fn):
        tracer = self

        def traced(*args, **kwargs):
            e0 = time.perf_counter()
            idx = len(tracer.name)
            tracer.name.append(qual)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.hidden.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.end[idx] = t1
                tracer._stack.pop()
            tracer._count(qual, args, kwargs, result)
            cost = (t0 - e0) + (time.perf_counter() - t1)
            tracer.overhead_s += cost
            parent = tracer.parent[idx]
            if parent >= 0:
                tracer.hidden[parent] += cost
            return result
        return traced

    def _count(self, qual, args, kwargs, result):
        key = f"{qual}.calls"
        self.sums[key] = self.sums.get(key, 0) + 1
        rule = self._rules.get(qual)
        if rule is None:
            return
        sums, gauges = rule(args, kwargs, result)
        for k, v in sums.items():
            key = f"{qual}.{k}"
            self.sums[key] = self.sums.get(key, 0) + int(v)
        for k, v in gauges.items():
            self.gauges[f"{qual}.{k}"] = v

    def self_times(self) -> dict:
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur - np.asarray(self.hidden)
        parent = np.asarray(self.parent, dtype=int)
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        out = {f"{m}.{f}": 0.0 for m, f in TRACED}
        for name, value in zip(self.name, own.tolist()):
            out[name] += value
        return out

    def spans(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}
