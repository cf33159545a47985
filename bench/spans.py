"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``fso_adapt`` module from
outside the package.  A wrapper replaces the function in every namespace
that bound it (the defining module, modules that imported it with
``from ... import``, and the package itself), records one span per call,
and is removed again by :meth:`Recorder.uninstall`.  The untraced run
never calls :meth:`Recorder.install`, so it executes the package exactly
as shipped.

Spans are kept in memory as tuples ``(span_id, name, start, end,
parent_id, op_id)``.  Special functions are called tens of thousands of
times per op, so ``specfun`` calls are aggregated (count and time) and
charged to the enclosing span instead of being stored one by one.
Quadrature calls are counted, not spanned, so that each expectation
functional's self time is the time its integral takes.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) pairs traced as spans.  A third-party solver is
# listed under the module that bound it: adapt binds brentq.
SPAN_TARGETS = (
    ("channel", "composite_cdf"),
    ("channel", "sample_irradiance"),
    ("channel", "mean_excess_inv"),
    ("channel", "mean_log_excess"),
    ("channel", "mean_inv_above"),
    ("channel", "mean_exp_neg"),
    ("adapt", "brentq"),
    ("adapt", "solve_cutoff_continuous"),
    ("adapt", "solve_cutoff_discrete"),
    ("adapt", "ase_series"),
    ("adapt", "ase_limit"),
    ("adapt", "high_snr_ase"),
    ("adapt", "discrete_ase"),
    ("adapt", "fixed_required_snr"),
    ("adapt", "adaptive_required_snr"),
    ("mc", "estimate_ase_mc"),
    ("mc", "estimate_discrete_ase_mc"),
    ("mc", "audit_power_constraint"),
    ("mc", "simulate_qam_ber"),
)

# channel binds quad: its calls, integrand evaluations and warnings are
# counted and charged to the enclosing span, whose self time includes the
# quadrature work
QUAD_TARGET = ("channel", "quad")

# leaf helpers: counted and timed, not stored as spans
LEAF_TARGETS = (
    ("specfun", "ln_gamma"),
    ("specfun", "digamma"),
    ("specfun", "bessel_k_frac"),
    ("specfun", "sample_gamma"),
)

NAMESPACES = ("specfun", "channel", "adapt", "mc", "cli")

MARK = "__bench_wrapped__"


def self_times(spans, leaf_child_time=None):
    """Self time of each span: duration minus the time its children cover.

    ``spans`` holds ``(span_id, name, start, end, parent_id, op_id)``
    tuples.  Calls run on one thread, so the children of a span do not
    overlap and the covered time is the sum of their durations, plus any
    aggregated leaf time charged to the span.
    """
    covered = defaultdict(float)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    for sid, t in (leaf_child_time or {}).items():
        covered[sid] += t
    return {sid: (end - start) - covered[sid] for sid, _n, start, end, _p, _o in spans}


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.leaf_time = defaultdict(float)  # leaf name -> seconds
        self.leaf_child_time = defaultdict(float)  # span id -> leaf seconds inside it
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []  # (namespace, attribute, original)

    # ------------------------------------------------------------------
    # installation

    def _modules(self):
        pkg = self.package
        return {name: getattr(pkg, name) for name in NAMESPACES}

    def install(self):
        """Replace every binding of each target with a recording wrapper."""
        mods = self._modules()
        spaces = [self.package, *mods.values()]
        makers = [(self._span_wrapper, t) for t in SPAN_TARGETS]
        makers += [(self._leaf_wrapper, t) for t in LEAF_TARGETS]
        makers.append((self._quad_wrapper, QUAD_TARGET))
        for make, (mod_name, attr) in makers:
            original = getattr(mods[mod_name], attr)
            wrapper = make(f"{mod_name}.{attr}", original)
            for ns in spaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))
        # models are built through the CLI's resolved configuration
        cls = mods["cli"].RunConfig
        original = cls.channel_model
        cls.channel_model = self._span_wrapper("cli.channel_model", original)
        self._patched.append((cls, "channel_model", original))

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def patched_bindings(self):
        """(namespace name, attribute) of every binding currently replaced."""
        return [(getattr(ns, "__name__", repr(ns)), key) for ns, key, _ in self._patched]

    # ------------------------------------------------------------------
    # wrappers

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid, name, start, end, parent):
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op_id))
        self.counts[name + ".calls"] += 1

    def _span_wrapper(self, name, fn):
        rec = self
        # spans that also count the work inside the call
        call = {
            "adapt.brentq": rec._brentq_call,
            "channel.sample_irradiance": rec._sample_call,
            "mc.simulate_qam_ber": rec._qam_call,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op_id is None:
                return fn(*args, **kwargs)
            sid, parent = rec._open(name)
            start = time.perf_counter()
            try:
                if call is None:
                    return fn(*args, **kwargs)
                return call(fn, args, kwargs)
            finally:
                rec._close(sid, name, start, time.perf_counter(), parent)

        setattr(wrapper, MARK, True)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        rec = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op_id is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                rec.counts[key] += 1
                rec.leaf_time[name] += dt
                if rec._stack:
                    rec.leaf_child_time[rec._stack[-1][0]] += dt

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _quad_wrapper(self, name, quad):
        from scipy.integrate import IntegrationWarning

        rec = self
        counts = self.counts

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            if rec.op_id is None:
                return quad(func, *args, **kwargs)
            counts[name + ".calls"] += 1
            if rec._stack:
                counts[rec._stack[-1][1] + ".quad_calls"] += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = quad(rec._counted(func, name + ".evals"), *args, **kwargs)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    counts[name + ".warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _brentq_call(self, brentq, args, kwargs):
        args = (self._counted(args[0], "adapt.brentq.fevals"), *args[1:])
        return brentq(*args, **kwargs)

    def _sample_call(self, sample, args, kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.counts["channel.sample_irradiance.draws"] += int(np.prod(size or 1))
        return sample(*args, **kwargs)

    def _qam_call(self, simulate, args, kwargs):
        cfg = kwargs.get("cfg", args[0] if args else None)
        self.counts["mc.symbols"] += cfg.n_symbols
        return simulate(*args, **kwargs)

    # ------------------------------------------------------------------
    # output

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self):
        """Per-layer work counts and self times from the recorded spans."""
        selfs = self_times(self.spans, self.leaf_child_time)
        by_id = {s[0]: s for s in self.spans}
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        children = defaultdict(Counter)  # parent span id -> child name counts
        for sid, name, start, end, parent, _op in self.spans:
            self_s[name] += selfs[sid]
            incl_s[name] += end - start
            if parent is not None:
                children[parent][name] += 1

        def ancestors(sid):
            parent = by_id[sid][4]
            while parent is not None:
                yield by_id[parent][1]
                parent = by_id[parent][4]

        def under(child, ancestor):
            return sum(
                1 for s in self.spans if s[1] == child and ancestor in ancestors(s[0])
            )

        c = self.counts

        def per_solve(solver, functional):
            calls = c[solver + ".calls"]
            return under(functional, solver) / calls if calls else 0.0

        mc_names = ("estimate_ase_mc", "estimate_discrete_ase_mc", "audit_power_constraint")
        mc_time = sum(incl_s["mc." + n] for n in mc_names)
        qam_time = incl_s["mc.simulate_qam_ber"]
        ase_ids = [s[0] for s in self.spans if s[1] == "adapt.ase_series"]
        out = {
            "channel.quad.calls": c["channel.quad.calls"],
            "channel.quad.evals": c["channel.quad.evals"],
            "channel.quad.warnings": c["channel.quad.warnings"],
            "channel.mean_inv_above.calls": c["channel.mean_inv_above.calls"],
            "channel.mean_inv_above.self_s": self_s["channel.mean_inv_above"],
            "channel.mean_excess_inv.calls": c["channel.mean_excess_inv.calls"],
            "channel.mean_excess_inv.self_s": self_s["channel.mean_excess_inv"],
            "channel.composite_cdf.calls": c["channel.composite_cdf.calls"],
            "channel.composite_cdf.self_s": self_s["channel.composite_cdf"],
            "channel.composite_cdf.quad_calls": c["channel.composite_cdf.quad_calls"],
            "channel.mean_log_excess.calls": under("channel.mean_log_excess", "adapt.ase_series"),
            "channel.mean_exp_neg.calls": c["channel.mean_exp_neg.calls"],
            "channel.mean_exp_neg.self_s": self_s["channel.mean_exp_neg"],
            "channel.sample_irradiance.draws": c["channel.sample_irradiance.draws"],
            "channel.sample_irradiance.self_s": self_s["channel.sample_irradiance"],
            "adapt.solve_cutoff_continuous.calls": c["adapt.solve_cutoff_continuous.calls"],
            "adapt.solve_cutoff_continuous.self_s": self_s["adapt.solve_cutoff_continuous"],
            "adapt.solve_cutoff_continuous.fevals": per_solve(
                "adapt.solve_cutoff_continuous", "channel.mean_excess_inv"
            ),
            "adapt.solve_cutoff_discrete.calls": c["adapt.solve_cutoff_discrete.calls"],
            "adapt.solve_cutoff_discrete.self_s": self_s["adapt.solve_cutoff_discrete"],
            "adapt.solve_cutoff_discrete.fevals": per_solve(
                "adapt.solve_cutoff_discrete", "channel.mean_inv_above"
            ),
            "adapt.ase_series.calls": c["adapt.ase_series.calls"],
            "adapt.ase_series.self_s": self_s["adapt.ase_series"],
            "adapt.ase_series.fallbacks": sum(
                1 for sid in ase_ids if children[sid]["channel.mean_log_excess"]
            ),
            "adapt.adaptive_required_snr.calls": c["adapt.adaptive_required_snr.calls"],
            "adapt.adaptive_required_snr.self_s": self_s["adapt.adaptive_required_snr"],
            "adapt.adaptive_required_snr.ase_limit_calls": under(
                "adapt.ase_limit", "adapt.adaptive_required_snr"
            ),
            "adapt.fixed_required_snr.calls": c["adapt.fixed_required_snr.calls"],
            "adapt.fixed_required_snr.self_s": self_s["adapt.fixed_required_snr"],
            "adapt.brentq.calls": c["adapt.brentq.calls"],
            "adapt.brentq.fevals": c["adapt.brentq.fevals"],
            "specfun.ln_gamma.calls": c["specfun.ln_gamma.calls"],
            "specfun.self_s": sum(self.leaf_time.values()),
        }
        for n in (*mc_names, "simulate_qam_ber"):
            out[f"mc.{n}.self_s"] = self_s["mc." + n]
        out["mc.draws_per_s"] = c["channel.sample_irradiance.draws"] / mc_time if mc_time else 0.0
        out["mc.symbols_per_s"] = c["mc.symbols"] / qam_time if qam_time else 0.0
        return out
