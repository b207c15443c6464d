"""Builders and decoders for the frequency-modulated (FM) logic family.

An FM bit rides a circular shift register (CSR) of even length L >= 4
whose contents rotate one stage per clock.  A marker 1, planted by the
reset state of a set-type flip-flop at stage L, circulates forever and
fixes the period.  The data bit occupies stage L/2, half a turn away
from the marker, so a tap sees one pulse per L cycles for value 0 and
two pulses for value 1:

    value 0 -> tap frequency f_clk / L      (duty 1/L)
    value 1 -> tap frequency 2 * f_clk / L  (duty 2/L)

A companion CSR of the same length with its set-type stage at L/2
generates the alignment signal SYNC.  Under the RESET protocol (reset
high for exactly cycle 0) SYNC is 1 exactly at cycles congruent to
1 mod L; at those instants every well-formed FM register holds its
marker at stage L and its data bit at stage L/2.

Values are combined at SYNC instants.  Each FM gate is a single LUT
driving the D pin of the stage L/2 + 1 flip-flop of its output
register:

    D(insert stage) = SYNC ? f(data taps) : own stage L/2 value

Off-SYNC the LUT passes the register's own rotation through, so its
output keeps toggling and no net in a composed FM design is ever
constant.  A LUT has six inputs; SYNC and the feedback tap use two,
leaving at most four data taps per gate.  Wider functions must be
composed from a tree of gates (one gate per internal node, latency L
per level).

Construction mutates a single-owner netlist; decoding and duty-cycle
measurement operate on immutable traces and are freely concurrent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .netcore import (
    FfKind,
    NetId,
    Netlist,
    NetlistError,
    Trace,
    TruthTable,
    _require_int,
    _require_window,
)


# LUT inputs available to gate data taps: 6 minus SYNC minus feedback.
DATA_INPUT_BUDGET = 4

# Combiner LUT input layout (fixed convention used across the package).
COMBINER_SYNC_POS = 0
COMBINER_FB_POS = 1
COMBINER_DATA_POS = 2


class FmError(ValueError):
    """Invalid FM construction or decode request."""


class MalformedFmError(FmError):
    """A trace window does not carry a well-formed FM encoding."""


def sync_instants(L: int, n_cycles: int, start: int = 1) -> range:
    """Cycles at which SYNC is high: start, start+L, ... below n_cycles."""
    _check_length(L)
    start = _require_int(start, 0, math.inf, FmError, "SYNC instants start at a cycle >= 0, not {}")
    n_cycles = _require_int(n_cycles, -math.inf, math.inf, FmError, "SYNC instants end at an integer cycle, not {}")
    first = start + (-(start - 1)) % L
    return range(first, n_cycles, L)


@dataclass(frozen=True)
class FmSignal:
    """Handle onto one FM register (SYNC included): an L-stage ring.

    ``stages[i]`` is the stage i+1 output net; the data tap is stage
    L/2 (the SYNC tap, on the SYNC ring) and the marker tap stage L.
    ``combiner_out`` is the LUT feeding the insert stage L/2 + 1 (None
    for SYNC and constant rotors); what it reads is the netlist's
    wiring, at inputs ``COMBINER_DATA_POS`` onward.
    """

    stages: tuple[NetId, ...]
    combiner_out: NetId | None = None

    @property
    def L(self) -> int:
        return len(self.stages)

    @property
    def data_tap(self) -> NetId:
        return self.stages[self.L // 2 - 1]

    @property
    def marker_tap(self) -> NetId:
        return self.stages[-1]


@dataclass(frozen=True)
class FmBit:
    """A decoded FM value and the tap period it implies (in cycles)."""

    value: int
    period: int


def _check_length(L: int, error: Callable[[str], Exception] = FmError) -> None:
    """The ring-length rule: an even integer of at least 4, or ``error(message)``."""
    message = "CSR length must be even and at least 4, got {}"
    if _require_int(L, 4, math.inf, error, message) % 2:
        raise error(message.format(repr(L)))


def build_ring(
    netlist: Netlist,
    L: int,
    set_stages: Sequence[int],
    insert_stage: int | None = None,
    ce: NetId | None = None,
) -> list[NetId]:
    """A rotating ring of L flip-flops; stage i feeds stage i+1, L feeds 1.

    Stages listed in ``set_stages`` are set-type (reset to 1), the rest
    reset-type.  ``insert_stage``, if given, is left unwired for the
    caller to drive (normally from a combining LUT).  All flip-flops
    share ``ce`` (tied high when omitted) and the RESET port on ``sr``.
    """
    _check_length(L)
    bad = [s for s in set_stages if not 1 <= s <= L]
    if bad:
        raise FmError(f"set stages out of range: {bad}")
    reset = netlist.reset()
    enable = netlist.const(1) if ce is None else ce
    marks = set(set_stages)
    qs = [
        netlist.add_ff(FfKind.SET if (i + 1) in marks else FfKind.RESET, None, enable, reset)
        for i in range(L)
    ]
    for i in range(L):
        if insert_stage is not None and i + 1 == insert_stage:
            continue
        netlist.set_ff_d(qs[i], qs[i - 1])
    return qs


def build_sync(netlist: Netlist, L: int) -> FmSignal:
    """The SYNC generator: marker planted at stage L/2, tapped there.

    After reset the single 1 sits at stage L/2, so the tap is high at
    cycle 1 and every L cycles after.
    """
    return FmSignal(tuple(build_ring(netlist, L, [L // 2])))


def build_fm_csr(netlist: Netlist, L: int) -> FmSignal:
    """A free-running FM register holding value 0 (marker only)."""
    return build_const_fm(netlist, L, 0)


def build_const_fm(netlist: Netlist, L: int, value: int) -> FmSignal:
    """A rotor permanently encoding ``value`` (marker, plus data for 1)."""
    return FmSignal(tuple(build_ring(netlist, L, [L, L // 2] if value else [L])))


def make_combiner_table(
    n_data: int, branch: Callable[[int, Sequence[int]], int]
) -> TruthTable:
    """Insert-stage LUT table over inputs (sync, feedback, data...).

    Off-SYNC the output is the feedback tap (plain rotation); at SYNC it
    is ``branch(feedback, data_bits)``.
    """
    arity = n_data + 2

    def fn(*bits: int) -> int:
        sync, fb = bits[COMBINER_SYNC_POS], bits[COMBINER_FB_POS]
        if not sync:
            return fb
        return branch(fb, bits[COMBINER_DATA_POS:])

    return TruthTable.from_function(arity, fn)


def build_fm_register(
    netlist: Netlist,
    sync: FmSignal,
    table: TruthTable,
    data: Sequence[NetId],
    set_stages: Sequence[int] | None = None,
    ce: NetId | None = None,
) -> FmSignal:
    """An FM register: an L-stage ring whose insert stage L/2 + 1 is
    driven by one LUT over (SYNC, own stage L/2 tap, *data).

    ``set_stages`` defaults to the marker ring ([L]); ``ce`` to tied
    high.
    """
    L = sync.L
    set_stages = [L] if set_stages is None else list(set_stages)
    qs = build_ring(netlist, L, set_stages, insert_stage=L // 2 + 1, ce=ce)
    comb = netlist.add_lut((sync.data_tap, qs[L // 2 - 1], *data), table)
    netlist.set_ff_d(qs[L // 2], comb)
    return FmSignal(tuple(qs), comb)


def build_std_to_fm(netlist: Netlist, a: NetId, sync: FmSignal) -> FmSignal:
    """Converter from standard logic to FM.

    The insert LUT samples ``a`` at each SYNC instant; the sampled bit
    becomes decodable one full rotation (L cycles) later.
    """
    _require_int(a, 0, netlist.net_count, NetlistError, "converter input references undriven net {}")
    table = make_combiner_table(1, lambda fb, data: data[0])
    return build_fm_register(netlist, sync, table, (a,))


def build_fm_gate(
    netlist: Netlist,
    fn: TruthTable,
    inputs: Sequence[FmSignal],
    sync: FmSignal,
) -> FmSignal:
    """An FM gate computing ``fn`` over up to four FM inputs.

    One LUT reads SYNC, the output register's own stage L/2 tap, and the
    input registers' data taps; the result lands in stage L/2 + 1 and is
    decodable after one rotation.  Constant functions are rejected: they
    would pin the LUT output and defeat the always-active property.
    """
    inputs = list(inputs)
    k = len(inputs)
    if not 1 <= k <= DATA_INPUT_BUDGET:
        raise FmError(
            f"FM gate takes 1..{DATA_INPUT_BUDGET} inputs (SYNC and feedback "
            f"use the other LUT pins), got {k}; compose wider functions"
        )
    if fn.arity != k:
        raise FmError(f"function arity {fn.arity} does not match {k} inputs")
    if fn.is_constant():
        raise FmError("constant gate functions are rejected (always-idle output)")
    for s in inputs:
        if s.L != sync.L:
            raise FmError(f"mixed CSR lengths: input L={s.L}, sync L={sync.L}")

    table = make_combiner_table(k, lambda fb, data: fn.eval(data))
    return build_fm_register(netlist, sync, table, [s.data_tap for s in inputs])


@dataclass(frozen=True)
class FmExpr:
    """An internal node of a gate tree: a function over FM operands."""

    table: TruthTable
    args: tuple["FmExpr | FmSignal", ...]

    def depth(self) -> int:
        child = max((a.depth() for a in self.args if isinstance(a, FmExpr)), default=0)
        return child + 1


def compose_fm(netlist: Netlist, expr: FmExpr, sync: FmSignal) -> FmSignal:
    """Build one FM gate per internal node of ``expr``.

    Guarantees activity at every gate output because each node's
    function must be non-constant; total latency is depth * L after the
    leaf signals are valid.
    """
    operands: list[FmSignal] = []
    for arg in expr.args:
        if isinstance(arg, FmExpr):
            operands.append(compose_fm(netlist, arg, sync))
        else:
            operands.append(arg)
    return build_fm_gate(netlist, expr.table, operands, sync)


def build_locking_and(netlist: Netlist, a: FmSignal, b: FmSignal, sync: FmSignal) -> FmSignal:
    """AND gate that latches FM value 1 permanently once both inputs are 1.

    The insert LUT ORs the conjunction with the register's own data tap
    at each SYNC instant, so a captured 1 re-inserts itself forever; the
    output stays 0 until the inputs are simultaneously 1 at a SYNC
    instant.
    """
    for s in (a, b):
        if s.L != sync.L:
            raise FmError(f"mixed CSR lengths: input L={s.L}, sync L={sync.L}")
    table = make_combiner_table(2, lambda fb, data: (data[0] & data[1]) | fb)
    return build_fm_register(netlist, sync, table, (a.data_tap, b.data_tap))


def fm_decode_all(
    trace: Trace, fm: FmSignal, start: int | None = None, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The SYNC instants in [start, stop), by default from L + 1 (the
    first with a full period of history) to the trace's end, and the FM
    values there, as int64 arrays.  Each value's tap must show value + 1
    rising edges over the preceding L cycles, or :class:`MalformedFmError`
    names the tap and the first cycle where it does not.
    """
    tap, L = fm.data_tap, fm.L
    start = L + 1 if start is None else start
    stop = trace.cycles if stop is None else stop
    bounds = "decode bounds ({1!r}, {2!r}) are not integers"
    start, stop = (_require_int(v, -math.inf, math.inf, FmError, bounds, start, stop) for v in (start, stop))
    if start <= L:
        raise FmError(f"decode needs a full period of history (cycle > {L})")
    if stop > trace.cycles:
        raise FmError(f"cycle {stop - 1} is beyond the trace ({trace.cycles} cycles)")
    instants = sync_instants(L, stop, start)
    lo = instants.start - L  # the periods (t - L, t] of the instants t tile wave[1:]
    wave = trace.wave(tap)[lo : lo + len(instants) * L + 1]
    values, edges = wave[L::L].astype(np.int64), (wave[1:] > wave[:-1]).reshape(-1, L).sum(axis=1)
    bad = (edges != values + 1).nonzero()[0]
    if len(bad):
        t, value, seen = instants[bad[0]], values[bad[0]], edges[bad[0]]
        raise MalformedFmError(
            f"tap {tap} at cycle {t}: sampled {value} but saw {seen} rising edges in one period"
        )
    return np.arange(instants.start, stop, L), values


def fm_decode(trace: Trace, fm: FmSignal, sync_cycle: int) -> FmBit:
    """The FM value at one SYNC instant, read by :func:`fm_decode_all`."""
    try:
        stop = sync_cycle + 1
    except TypeError:  # "17": the bounds rule names it as both bounds
        stop = sync_cycle
    _, values = fm_decode_all(trace, fm, sync_cycle, stop)
    if not len(values):
        raise FmError(f"cycle {sync_cycle} is not a SYNC instant for L={fm.L}")
    return FmBit(value=int(values[0]), period=fm.L // 2 if values[0] else fm.L)


def duty_cycle(trace: Trace, net: NetId, window: tuple[int, int]) -> float:
    """Fraction of cycles in [start, stop) during which the net is 1.

    Exact encodings come out exactly when the window spans whole
    periods: 1/L for FM value 0, 2/L for value 1.
    """
    start, stop = _require_window(window, trace.cycles, FmError)
    w = trace.wave(net)[start:stop]
    return float(w.sum()) / float(len(w))
