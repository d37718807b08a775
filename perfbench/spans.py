"""Tracing from outside the package: timing wrappers and per-layer metrics.

The tracer replaces each traced function everywhere callers look it up:
in the module that defines it, in every unilab module that imported it by
name, and in the package namespace.  Each call inside a request becomes a
span (name, start, end, thread, parent, request).  A span opened on a
thread with no open span, such as an estimate_mean shard on a worker
thread, takes the innermost span open on the tracing thread as its parent,
which is the enclosing estimate_mean call.  A call that raises, such as
reconstruct on a matrix with Q < 0, leaves no span.  Spans stay in memory
until the run ends.  ``uninstall`` puts every original function object back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

#: traced functions per module, each with what to keep of its result and
#: keyword arguments (every caller passes estimate_mean's threads by keyword)
_TRACED = {
    "estimators": {
        "estimate_mean": lambda r, kw: {"threads": kw.get("threads")},
        "_sample_statistic": None,
        "_reference_for": None,
    },
    "sampling": {
        "sample_b": lambda r, kw: {"items": len(r)},
        "sample_haar_unitary": lambda r, kw: {"items": len(r)},
        "sample_mu_k": lambda r, kw: {"items": len(r)},
        "sample_flat_b3": lambda r, kw: {"items": len(r)},
    },
    "core": {
        "q_values": lambda r, kw: {"items": np.size(r)},
        "entropy_values": lambda r, kw: {"items": np.size(r)},
        "generalized_entropy_values": lambda r, kw: {"items": np.size(r)},
        "feasible_b_mask": lambda r, kw: {"items": np.size(r), "true": int(np.count_nonzero(r))},
        "classify": None,
    },
    "unitary": {
        "jarlskog_values": lambda r, kw: {"items": np.size(r)},
        "jarlskog": None,
        "reconstruct": lambda r, kw: {"degenerate": bool(r.degenerate)},
    },
    "analytic": {
        "cdf_absj": lambda r, kw: {"terms": r.terms_used, "near1": r.method == "series-near-1"},
        "density_absj": None,
        "closed_form_table": None,
    },
    "cli": {"main": None},
}

_MARK = "__perfbench_span__"


def _handler_info(result, kwargs) -> dict:
    return {"bytes": len(result), "rows": result.count("\n") - 1}


class Span(NamedTuple):
    # a tuple of numbers and strings, which the garbage collector stops
    # tracking, so a long traced run does not slow collections down
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    request: tuple
    info: tuple

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; records only inside a request."""

    def __init__(self):
        self.spans: list = []
        self.request: Optional[tuple] = None
        self._ids = itertools.count(1)
        self._stacks: dict = {}
        self._home = threading.get_ident()
        self._restore: list = []

    # the harness brackets each request's timed part with these two
    def begin(self, cycle: int, kind: str) -> None:
        self.request = (cycle, kind)

    def end(self) -> None:
        self.request = None

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            kept = tuple(info(result, kwargs).items()) if info else ()
            self.spans.append(Span(sid, parent, name, start, end, ident, request, kept))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        for short in _TRACED:
            importlib.import_module(f"unilab.{short}")
        modules = unilab_modules()
        for short, names in _TRACED.items():
            module = sys.modules[f"unilab.{short}"]
            targets = dict(names)
            if short == "cli":
                targets.update({n: _handler_info for n in vars(module) if n.startswith("_cmd_")})
            for fname, info in targets.items():
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


def unilab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "unilab" or n.startswith("unilab."))]


def wrapped_functions() -> list:
    """Names of unilab attributes that are still tracing wrappers (should be none)."""
    return [f"{m.__name__}.{attr}" for m in unilab_modules()
            for attr, value in vars(m).items() if getattr(value, _MARK, False)]


# ---------------------------------------------------------------------------
# span arithmetic


def self_time(span: Span, children: list) -> float:
    """Duration minus the union of the children's intervals inside it."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.dur - covered


class SpanSet:
    def __init__(self, spans: list):
        self.by_name: dict = {}
        self.children: dict = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str, first_cycle: bool = False) -> list:
        spans = self.by_name.get(name, [])
        return [s for s in spans if s.request[0] == 0] if first_cycle else spans

    def self_s(self, name: str) -> float:
        return sum(self_time(s, self.children.get(s.sid, [])) for s in self.named(name))


def _sum(spans, key) -> float:
    return sum(dict(s.info)[key] for s in spans)


#: workloads whose own spans give a layer's metrics (the "measured on" column
#: of the prediction table in README.md); a traced run of any other workload
#: takes that layer's metrics from the companion cycles instead
_HOME = (
    ("cli.", {"cli-oneshot", "sample-export"}),
    ("estimators.", {"mc-estimate"}),
    ("sampling.", {"mc-estimate", "sample-export"}),
    ("core.classify.", {"decide-scan", "cli-oneshot"}),
    ("core.", {"mc-estimate", "sample-export"}),
    ("unitary.reconstruct.", {"decide-scan", "cli-oneshot"}),
    ("unitary.", {"mc-estimate", "sample-export"}),
    ("analytic.", {"decide-scan", "cli-oneshot"}),
)


def home_workloads(metric: str) -> set:
    return next(names for prefix, names in _HOME if metric.startswith(prefix))


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from one set of spans; None where the set has no data."""
    ss = SpanSet(spans)

    def rate(name):
        sp = ss.named(name)
        return _sum(sp, "items") / sum(s.dur for s in sp) if sp else None

    def us_p50(name):
        sp = ss.named(name)
        return 1e6 * statistics.median(s.dur for s in sp) if sp else None

    def total(name):
        sp = ss.named(name)
        return sum(s.dur for s in sp) if sp else None

    def self_total(name):
        return ss.self_s(name) if ss.named(name) else None

    out: dict = {}
    out["cli.main.self_s"] = (self_total("cli.main"), "s")
    exports = ss.named("cli._cmd_sample")
    out["cli.format_rows_per_s"] = (
        _sum(exports, "rows") / ss.self_s("cli._cmd_sample") if exports else None, "1/s")
    handlers = [s for n, sp in ss.by_name.items() if n.startswith("cli._cmd_") for s in sp
                if s.request[0] == 0]
    out["cli.output_bytes"] = (_sum(handlers, "bytes") if handlers else None, "bytes")

    estimates = ss.named("estimators.estimate_mean")
    out["estimators.estimate_mean.wall_s"] = (total("estimators.estimate_mean"), "s")
    out["estimators.estimate_mean.self_s"] = (self_total("estimators.estimate_mean"), "s")
    busy, shard_ratios = [], []
    for e in estimates:
        shards = [c for c in ss.children.get(e.sid, []) if c.name == "estimators._sample_statistic"]
        if not shards:
            continue
        durs = [c.dur for c in shards]
        shard_ratios.append(max(durs) / statistics.median(durs))
        threads = min(dict(e.info)["threads"] or os.cpu_count() or 1, len(shards))
        if threads > 1:
            busy.append(sum(durs) / (e.dur * threads))
    out["estimators.worker_busy_ratio"] = (statistics.median(busy) if busy else None, "ratio")
    out["estimators.shard_max_over_p50"] = (
        statistics.median(shard_ratios) if shard_ratios else None, "ratio")
    out["estimators.reference_s"] = (total("estimators._reference_for"), "s")

    for fname in ("sample_haar_unitary", "sample_mu_k", "sample_flat_b3"):
        out[f"sampling.{fname}.samples_per_s"] = (rate(f"sampling.{fname}"), "1/s")
    out["sampling.sample_b.self_s"] = (self_total("sampling.sample_b"), "s")
    flats = ss.named("sampling.sample_flat_b3", first_cycle=True)
    masks = [c for f in flats for c in ss.children.get(f.sid, [])
             if c.name == "core.feasible_b_mask"]
    out["sampling.flat.accept_ratio"] = (
        _sum(masks, "true") / _sum(masks, "items") if masks else None, "ratio")
    out["sampling.flat.candidates_per_sample"] = (
        _sum(masks, "items") / _sum(flats, "items") if masks else None, "count")

    for fname in ("q_values", "entropy_values", "generalized_entropy_values", "feasible_b_mask"):
        out[f"core.{fname}.items_per_s"] = (rate(f"core.{fname}"), "1/s")
    out["core.classify.us_p50"] = (us_p50("core.classify"), "us")

    out["unitary.jarlskog_values.items_per_s"] = (rate("unitary.jarlskog_values"), "1/s")
    out["unitary.reconstruct.us_p50"] = (us_p50("unitary.reconstruct"), "us")
    recon = ss.named("unitary.reconstruct", first_cycle=True)
    out["unitary.reconstruct.degenerate_ratio"] = (
        _sum(recon, "degenerate") / len(recon) if recon else None, "ratio")

    out["analytic.cdf_absj.us_p50"] = (us_p50("analytic.cdf_absj"), "us")
    cdfs = ss.named("analytic.cdf_absj", first_cycle=True)
    out["analytic.cdf_absj.terms_mean"] = (_sum(cdfs, "terms") / len(cdfs) if cdfs else None,
                                           "count")
    out["analytic.cdf_absj.near1_ratio"] = (_sum(cdfs, "near1") / len(cdfs) if cdfs else None,
                                            "ratio")
    out["analytic.density_absj.us_p50"] = (us_p50("analytic.density_absj"), "us")
    out["analytic.closed_form_table.s"] = (
        statistics.median(s.dur for s in ss.named("analytic.closed_form_table"))
        if ss.named("analytic.closed_form_table") else None, "s")
    return out
