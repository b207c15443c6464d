"""Independent oracles that ``fmlab verify`` and the test suite share.

:func:`reference_simulate` walks the cell list directly and settles each
cycle's combinational values by repeated sweeps until a fixpoint, instead
of compiling a topological program.  It is deliberately slow and
structurally different from :func:`fmlab.kernel.simulate` so the two act
as independent routes to the same semantics, including the rejection of
a loop of LUTs with no flip-flop on it (the reachability search of
:func:`lut_loop_nets` here, a Kahn order there).

:func:`scan_reference` is the brute-force counterpart of the activity
scans: it compares each net's waveform, and every pair of them, as
tuples, where ``sidechannel`` packs bits and groups keys.
:func:`power_reference` counts the power model's ones and changes net
by net and cycle by cycle, where ``power_trace`` packs each cycle's
nets into words and counts their bits.

``ff_update`` can be overridden to experiment with alternative flip-flop
rules (e.g. to demonstrate that the verification battery catches a wrong
set/reset priority).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

from .netcore import (
    CombinationalCycleError,
    FfKind,
    FlipFlop,
    Lut,
    Netlist,
    NetlistError,
    Stimulus,
    Trace,
    _require_int,
)


def default_ff_update(kind: FfKind, current: int, d: int, ce: int, sr: int) -> int:
    """Synchronous set/reset wins over clock enable; otherwise load or hold."""
    if sr:
        return 1 if kind is FfKind.SET else 0
    if ce:
        return d
    return current


def lut_loop_nets(netlist: Netlist) -> list[int]:
    """Every LUT output that reaches one of its own inputs through LUTs
    alone, in cell order."""
    lut_of = {c.out: c for c in netlist.cells if isinstance(c, Lut)}

    def on_loop(out: int) -> bool:
        seen, todo = set(), list(lut_of[out].inputs)
        while todo:
            net = todo.pop()
            if net == out:
                return True
            if net in lut_of and net not in seen:
                seen.add(net)
                todo.extend(lut_of[net].inputs)
        return False

    return [out for out in lut_of if on_loop(out)]


def reference_simulate(
    netlist: Netlist,
    stimulus: Stimulus,
    n_cycles: int,
    ff_update: Callable[[FfKind, int, int, int, int], int] | None = None,
) -> Trace:
    cycles = "n_cycles {0} must be an integer in [1, {1}]: a stimulus shorter than the run cannot drive it"
    n_cycles = _require_int(n_cycles, 1, stimulus.length + 1, NetlistError, cycles, stimulus.length)
    update = ff_update or default_ff_update

    luts = [c for c in netlist.cells if isinstance(c, Lut)]
    ffs = [c for c in netlist.cells if isinstance(c, FlipFlop)]
    for ff in ffs:
        if ff.d is None:
            raise NetlistError(f"FF q={ff.q} has an unwired d pin")
    loops = lut_loop_nets(netlist)
    if loops:
        raise CombinationalCycleError(loops[0], netlist.name_of(loops[0]))
    missing = [n for n in netlist.inputs if n not in stimulus.waves]
    if missing:
        raise NetlistError(f"stimulus missing input ports: {missing}")

    n_nets = netlist.net_count
    values = np.zeros((n_cycles, n_nets), np.uint8)
    state = {ff.q: 0 for ff in ffs}
    consts = {net: v for v, net in netlist._consts.items()}

    for t in range(n_cycles):
        row = values[t]
        for name, net in netlist.inputs.items():
            row[net] = stimulus.waves[name][t]
        for net, v in consts.items():
            row[net] = v
        for q, v in state.items():
            row[q] = v
        # sweep to fixpoint; without LUT loops, one sweep per level suffices
        for _ in range(len(luts) + 1):
            changed = False
            for lut in luts:
                idx = 0
                for b, net in enumerate(lut.inputs):
                    idx |= int(row[net]) << b
                out = lut.table.value(idx)
                if row[lut.out] != out:
                    row[lut.out] = out
                    changed = True
            if not changed:
                break
        else:
            raise NetlistError("combinational values did not settle")
        state = {
            ff.q: update(ff.kind, state[ff.q], int(row[ff.d]), int(row[ff.ce]), int(row[ff.sr]))
            for ff in ffs
        }

    values.setflags(write=False)
    return Trace(values=values, names=netlist.net_names())


def settlement_passes(netlist: Netlist, trace: Trace, cycle: int) -> bool:
    """True if re-evaluating every LUT against a recorded cycle changes nothing."""
    row = trace.values[cycle]
    for cell in netlist.cells:
        if not isinstance(cell, Lut):
            continue
        idx = 0
        for b, net in enumerate(cell.inputs):
            idx |= int(row[net]) << b
        if cell.table.value(idx) != row[cell.out]:
            return False
    return True


def scan_reference(trace: Trace, window: tuple[int, int]) -> tuple[list, dict, list, list]:
    """(constant nets, duty cycles, equal pairs, complement pairs) over
    the window, from each net's waveform and every pair of them, in the
    order ``uci_scan`` and ``pair_scan`` report them.  RESET and the
    constant tie-offs are not scanned."""
    start, stop = window
    nets = [n for n in range(trace.n_nets) if trace.names[n] not in ("RESET", "CONST0", "CONST1")]
    waves = {n: tuple(trace.values[start:stop, n].tolist()) for n in nets}
    flipped = {n: tuple(1 - v for v in wave) for n, wave in waves.items()}
    constant = [(n, wave[0]) for n, wave in waves.items() if len(set(wave)) == 1]
    duty = {n: sum(wave) / len(wave) for n, wave in waves.items()}
    pairs = list(combinations(nets, 2))
    equal = [(a, b) for a, b in pairs if waves[a] == waves[b]]
    complement = [(a, b) for a, b in pairs if waves[a] == flipped[b]]
    return constant, duty, equal, complement


def power_reference(trace: Trace, scope) -> tuple[list[int], list[int]]:
    """(dynamic, static) of the power model over the scope, from each
    scoped net's waveform: on each cycle, the nets that changed since the
    previous cycle (none on cycle 0) and the nets at 1."""
    dynamic = [0] * trace.cycles
    static = [0] * trace.cycles
    for net in scope:
        wave = trace.values[:, net].tolist()
        for t, v in enumerate(wave):
            static[t] += v
        for t in range(1, len(wave)):
            dynamic[t] += wave[t] != wave[t - 1]
    return dynamic, static
