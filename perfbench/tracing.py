"""Span recorder for the traced run, wrapped around vacmirror from outside.

Each public function of a layer (module) is replaced, at every name it is
looked up through, by a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.
The wrappers also count the work each layer was given, from the call's
arguments and result, and track a tracemalloc peak per span.

Self time is a span's duration minus the union of its children's
intervals.  Pool threads of a sweep have no span of their own on their
stack, so their first span is parented to the main thread's innermost
span.  tracemalloc's peak is process-wide, so per-span peaks are exact
while one thread at a time runs vacmirror code and approximate otherwise.
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

MIB = 2.0**20

# layers whose peak allocation is reported
PEAK_LAYERS = ("perturb", "single_cavity", "two_cavity", "continuum")


class Span:
    __slots__ = ("sid", "name", "parent", "op", "pass_idx", "thread", "start",
                 "end", "base_mem", "peak_mem", "modes")

    def __init__(self, sid, name, parent, op, pass_idx):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.pass_idx = pass_idx
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.base_mem = self.peak_mem = 0
        self.modes = []           # sizes of the mode sets built beneath it

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name,
                "parent": None if self.parent is None else self.parent.sid,
                "op": self.op, "pass": self.pass_idx, "thread": self.thread,
                "start": self.start, "end": self.end,
                "peak_alloc_bytes": self.peak_mem - self.base_mem}


class Recorder:
    """Collects spans and per-pass counters while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.pass_idx = 0
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[self.pass_idx][name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            c = self.counters[self.pass_idx]
            c[name] = max(c[name], value)

    def enter(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, parent, self.op, self.pass_idx)
        cur, peak = tracemalloc.get_traced_memory()
        for s in stack:
            s.peak_mem = max(s.peak_mem, peak)
        tracemalloc.reset_peak()
        span.base_mem = span.peak_mem = cur
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        stack = self._stack()
        stack.pop()
        for s in stack + [span]:
            s.peak_mem = max(s.peak_mem, peak)


def _wrap(rec: Recorder, fn, name, count):
    """Wrapper recording a span around fn; count(span, bound_args, result)."""
    sig = inspect.signature(fn)
    name_of = name if callable(name) else (lambda bound: name)

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        span = rec.enter(name_of(bound.arguments))
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                count(span, bound.arguments, out)
            return out
        finally:
            rec.exit(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(orig, new) -> None:
    """Rebind every vacmirror module global that refers to orig."""
    for modname, mod in list(sys.modules.items()):
        if modname != "vacmirror" and not modname.startswith("vacmirror."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from vacmirror import cli, continuum, model, oracle, perturb, single_cavity, two_cavity

    def rows(span, a, out):
        rec.add("cli.rows", len(out[1]))

    def csv_bytes(span, a, out):
        rec.add("cli.csv_bytes", os.path.getsize(a["cfg"]["output"]))

    def modes(span, a, out):
        rec.add("model.ModeSet.build.calls", 1)
        rec.add("model.modes", len(out))
        if span.parent is not None:
            span.parent.modes.append(len(out))

    def pairs(span, a, out):
        rec.add("perturb.pairs", sum(n * (n + 1) // 2 for n in span.modes))

    def profile(n_profiles):
        # computed from N and the grid size X, not measured: the N x N
        # denominator table, per profile one scaled copy of it, an N x X
        # trig table and a (N x N) @ (N x X) product, then the reduction
        def count(span, a, out):
            x, p = len(a["grid"]), n_profiles
            for n in span.modes:
                rec.add("single_cavity.flops",
                        2 * n * n + p * (n * n + 2 * n * n * x + 3 * n * x))
                rec.add("single_cavity.bytes",
                        8 * (n * n + p * (3 * n * n + 3 * n * x)))
        return count

    def kernel(span, a, out):
        rec.add("two_cavity.kernel_entries", sum((2 * n - 1) ** 2 for n in span.modes))

    def neval(span, a, out):
        rec.add("continuum.neval", out.neval)

    def hamiltonian(span, a, out):
        rec.add("oracle.dim", out.dim)
        rec.add("oracle.full_dim", math.prod(out.dims))
        rec.add("oracle.nnz", out.v.nnz)

    def residual(span, a, out):
        rec.maximum("oracle.residual_max", out.residual_norm)

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "compute_rows", "cli.compute_rows", rows),
        (cli, "write_outputs", "cli.write_outputs", csv_bytes),
        (perturb, "energy_shift", "perturb.energy_shift", pairs),
        (perturb, "dressed_amplitudes", "perturb.dressed_amplitudes", pairs),
        (perturb, "photon_spectrum", "perturb.photon_spectrum", None),
        (single_cavity, "delta_energy_density",
         "single_cavity.delta_energy_density", profile(2)),
        (single_cavity, "em_field_fluctuations",
         "single_cavity.em_field_fluctuations", profile(1)),
        (two_cavity, "squared_field_correlation_discrete",
         "two_cavity.squared_field_correlation_discrete", kernel),
        (continuum, "continuum_correlation",
         lambda a: f"continuum.{a['method']}", neval),
        (continuum, "scaling_probe", "continuum.scaling_probe", None),
        (oracle, "build_hamiltonian", "oracle.build_hamiltonian", hamiltonian),
        (oracle, "ground_state", "oracle.ground_state", residual),
        (oracle, "expectation", "oracle.expectation", None),
    ]
    for mod, attr, name, count in targets:
        orig = getattr(mod, attr)
        _replace_everywhere(orig, _wrap(rec, orig, name, count))
    build = model.ModeSet.__dict__["build"].__func__
    model.ModeSet.build = classmethod(_wrap(rec, build, "model.ModeSet.build", modes))


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def pass_metrics(rec: Recorder, pass_idx: int) -> dict:
    """Self time per span name, counters and per-layer peaks of one pass."""
    spans = [s for s in rec.spans if s.pass_idx == pass_idx]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent.sid].append((max(s.start, s.parent.start),
                                           min(s.end, s.parent.end)))
    out = defaultdict(float)
    for s in spans:
        out[f"{s.name}.self_s"] += (s.end - s.start) - _union(children[s.sid])
        layer = s.name.split(".", 1)[0]
        if layer in PEAK_LAYERS:
            key = f"{layer}.peak_alloc_mib"
            out[key] = max(out[key], (s.peak_mem - s.base_mem) / MIB)
    out.update(rec.counters[pass_idx])
    if out.get("oracle.full_dim"):
        out["oracle.kept_frac"] = out["oracle.dim"] / out["oracle.full_dim"]
    return dict(out)
