"""Span recording around fmlab's public calls, from outside the package.

The tracer replaces module attributes and class methods with wrappers
that record one span per call: layer name, start, end, parent span and
operation id.  Spans stay in memory until the run ends.  Only calls that
go through a patched attribute are seen: a call that one module makes
through a name it imported directly (``from .fmlogic import build_ring``)
is not intercepted and counts as the caller's self time.

A layer's self time is its spans' durations minus the time covered by
their child spans.  The benchmark wraps each operation in a root span
(``op``), whose self time is reported as ``unaccounted_s``: benchmark
glue plus fmlab code that no wrapper covers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: list[tuple[str | None, str, float]] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, counter=None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)
        if counter is not None:
            for what, value in counter(args, kwargs, result).items():
                self.count(f"{name}.{what}", value)
        return result

    def count(self, key: str, value: float) -> None:
        self.counts.append((self.op, key, value))

    def run_op(self, op_id: str, fn):
        """Run ``fn()`` under a root span tagged with ``op_id``."""
        self.op = op_id
        try:
            return self.call(ROOT, fn, (), {})
        finally:
            self.op = None

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """Route ``owner.attr`` (module function, method or classmethod)
        through a span named ``name``."""
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(name, orig.__func__, counter))
            else:
                new = self._wrap(name, orig, counter)
        else:
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, counter)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, list[float]]]:
        """``{op_id: {layer: [self seconds, calls]}}`` over finished spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, dict[str, list[float]]] = {}
        for i, span in enumerate(self.spans):
            if span is None or span.op is None:
                continue
            tot = out.setdefault(span.op, {}).setdefault(span.name, [0.0, 0])
            tot[0] += span.end - span.start - child[i]
            tot[1] += 1
        return out

    def op_walls(self) -> dict[str, float]:
        return {
            s.op: s.end - s.start
            for s in self.spans
            if s is not None and s.name == ROOT and s.parent is None and s.op is not None
        }

    def op_counts(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for op, key, value in self.counts:
            if op is None:
                continue
            per = out.setdefault(op, {})
            per[key] = per.get(key, 0.0) + value
        return out

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [asdict(s) for s in self.spans if s is not None],
                    "counts": [list(c) for c in self.counts],
                },
                fh,
            )


def _net_cycles(args, kwargs, trace):
    return {"net_cycles": trace.cycles * trace.n_nets}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Patch every traced fmlab entry point, grouped by layer."""
    from fmlab import cli, fmlogic, netcore, sidechannel, trojankit

    layers = [
        (netcore, ["simulate"], "netcore.simulate", _net_cycles),
        (netcore.Netlist, ["_compile"], "netcore.compile", None),
        (netcore.Netlist, ["to_text"], "netcore.netlist_to_text", None),
        (netcore.Trace, ["to_csv"], "netcore.trace_to_csv", _file_bytes),
        (netcore.Trace, ["from_csv"], "netcore.trace_from_csv", None),
        (fmlogic, ["build_sync", "build_fm_csr", "build_const_fm", "build_std_to_fm",
                   "build_fm_gate", "compose_fm", "build_locking_and"], "fmlogic.build", None),
        (fmlogic, ["fm_decode"], "fmlogic.fm_decode", None),
        (trojankit, ["add_opcode_bus", "build_event_sync", "build_trigger", "build_concealed",
                     "set_payload_mode", "build_payload_transmitter"], "trojankit.build", None),
        (trojankit, ["random_program", "scrub_sequences", "program_stimulus",
                     "opcode_stimulus"], "trojankit.stimulus", None),
        (sidechannel, ["uci_scan"], "sidechannel.uci_scan", None),
        (sidechannel, ["pair_scan"], "sidechannel.pair_scan", None),
        (sidechannel, ["power_trace", "power_stats"], "sidechannel.power_trace", None),
        (sidechannel.PowerTrace, ["window"], "sidechannel.power_trace", None),
        (sidechannel, ["spectrum", "detect_fm_peaks"], "sidechannel.spectrum", None),
        (sidechannel.Spectrum, ["dominant_fraction"], "sidechannel.spectrum", None),
        (sidechannel, ["attacker_demodulate", "period_sums", "oracle_threshold_accuracy"],
         "sidechannel.demod", None),
        (sidechannel, ["build_jammer"], "sidechannel.jammer", None),
        (sidechannel.JammerPlan, ["stimulus_waves"], "sidechannel.jammer", None),
        (sidechannel.PowerTrace, ["to_csv"], "sidechannel.export", None),
        (sidechannel.Spectrum, ["to_csv"], "sidechannel.export", None),
        (cli, ["run_scenario"], "cli.run_scenario", None),
        (cli, ["analyze_trace"], "cli.analyze_trace", None),
        (cli, ["build_stimulus"], "cli.build_stimulus", None),
    ]
    for owner, attrs, name, counter in layers:
        for attr in attrs:
            tracer.patch(owner, attr, name, counter)
