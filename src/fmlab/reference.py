"""Independent reference interpreter for cross-checking the fast simulator.

This walks the cell list directly and settles each cycle's combinational
values by repeated sweeps until a fixpoint, instead of compiling a
topological program.  It is deliberately slow and structurally different
from :func:`fmlab.kernel.simulate` so the two act as independent routes
to the same semantics, including the rejection of a loop of LUTs with
no flip-flop on it (a reachability search here, a Kahn order there).

``ff_update`` can be overridden to experiment with alternative flip-flop
rules (e.g. to demonstrate that the verification battery catches a wrong
set/reset priority).
"""

from __future__ import annotations

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
)


def default_ff_update(kind: FfKind, current: int, d: int, ce: int, sr: int) -> int:
    """Synchronous set/reset wins over clock enable; otherwise load or hold."""
    if sr:
        return 1 if kind is FfKind.SET else 0
    if ce:
        return d
    return current


def _check_lut_loops(netlist: Netlist) -> None:
    """Raise :class:`CombinationalCycleError` naming a LUT whose output
    reaches one of its own inputs through LUTs alone."""
    lut_of = {c.out: c for c in netlist.cells if isinstance(c, Lut)}
    for out, lut in lut_of.items():
        seen, todo = set(), list(lut.inputs)
        while todo:
            net = todo.pop()
            if net == out:
                raise CombinationalCycleError(out, netlist.name_of(out))
            if net in lut_of and net not in seen:
                seen.add(net)
                todo.extend(lut_of[net].inputs)


def reference_simulate(
    netlist: Netlist,
    stimulus: Stimulus,
    n_cycles: int,
    ff_update: Callable[[FfKind, int, int, int, int], int] | None = None,
) -> Trace:
    if n_cycles < 1:
        raise NetlistError("n_cycles must be at least 1")
    if stimulus.length < n_cycles:
        raise NetlistError("stimulus shorter than requested cycle count")
    update = ff_update or default_ff_update

    luts = [c for c in netlist.cells if isinstance(c, Lut)]
    ffs = [c for c in netlist.cells if isinstance(c, FlipFlop)]
    for ff in ffs:
        if ff.d is None:
            raise NetlistError(f"FF q={ff.q} has an unwired d pin")
    _check_lut_loops(netlist)
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
