"""The simulator's kernel: the compile plan of a netlist, :func:`plan`, which
:meth:`Netlist._compile` caches, and the cycle loop that runs it, :func:`simulate`.

The simulator compiles a netlist into table lookups.  LUTs that read no
flip-flop, directly or through other LUTs, are evaluated once over all
cycles.  The flip-flops are split into stages, each run as its own cycle
loop of one lookup per cycle: a stage holds the flip-flops whose next
state, through the LUTs not yet evaluated, reads at most 8 nets and no
flip-flop of a later stage.  Between stages, the LUTs whose inputs are
then all known are evaluated over all cycles, so a cone too wide for a
table is cut where the flip-flops it reads end.  A design that does not
split this way runs one loop that evaluates those LUTs every cycle.
A stage whose largest strongly connected component of flip-flops is
larger than every other is cut into up to three stages (what it reads,
itself, the rest), so a counter that steps once a period keys its memo
by its own state, not also by the rings' phases.  A folded stage whose
weakly connected groups of flip-flops each read a net no other group
reads runs one loop per group, so independent rings, such as the
jammer's, do not key one memo by all their phases at once.

Each loop memoizes, for one call, the next state by the state and the
loop's external inputs: an FM ring revisits few states, so most cycles
are one dict lookup.  The memo is linked: each state seen owns a dict
from the packed inputs to the next state and that state's dict, so a
hit builds no key.  Those links run in cycles, so each loop clears them
when it ends.  A loop's state columns are then written for every cycle,
by one slice when its flip-flops' nets are a contiguous run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .netcore import (
    CombinationalCycleError,
    FfKind,
    FlipFlop,
    Lut,
    NetId,
    Netlist,
    NetlistError,
    Stimulus,
    Trace,
    TruthTable,
    _require_int,
)

# a flip-flop folds into one table over at most this many nets: the widest
# address the uint8 ``@`` in :func:`simulate` forms (weights 1..128, at most 255)
_FOLD_LIMIT = 8

# address weight of each cell input position
_BIT_WEIGHTS = (1 << np.arange(_FOLD_LIMIT)).astype(np.uint8)

# :meth:`_Level.fill` forms at most this many table addresses at once
# (256 KiB of them), so a level evaluated over a whole run needs no
# temporary as large as the trace
_FILL_ENTRIES = 1 << 15

# the slot of a flip-flop's first cone LUT in its layout (see _cone)
_CONE_SLOT = 2 + _FOLD_LIMIT

# a flip-flop's next state as a table over its pins (sr, ce, d, q):
# sr beats ce, which beats hold
_FF_NEXT = {
    kind: TruthTable.from_function(
        4, lambda sr, ce, d, q, on_sr=kind is FfKind.SET: on_sr if sr else (d if ce else q)
    )
    for kind in FfKind
}


@dataclass(frozen=True)
class _Level:
    """Cells evaluated together by one table lookup in :func:`simulate`.

    The cells are the LUTs of one logic level, or the flip-flops of one
    loop: each read as a 4-input LUT of its (sr, ce, d, q) pins with the
    table ``_FF_NEXT``, or, folded, as one table over its support.
    :func:`_fold` builds the folded tables with the same lookup, over
    rows of support patterns instead of cycles.
    """

    out: np.ndarray  # (k,) output nets
    ins: np.ndarray  # (k, w) input nets, w the widest cell's fan-in; net 0 past a cell's own
    weights: np.ndarray  # (w,) address weight of each input position
    base: np.ndarray  # (k,) 2**w * row, the row's offset into ``tables``
    tables: np.ndarray  # (2**w k,) uint8 table entries, row-major

    @classmethod
    def of(cls, out: Sequence[NetId], ins: Sequence[Sequence[NetId]], tables: np.ndarray) -> "_Level":
        """Cells with output nets ``out``, input nets ``ins`` and uint8 table rows ``tables``.

        Each cell's inputs are padded with net 0 to the widest cell's ``w``
        and its row is cut to ``2**w`` entries.  The pads do not change its
        output, because every row is replicated past its cell's inputs: a
        ``TruthTable`` is stored so, and a folded table reads no support bit
        past its own.
        """
        width = max(map(len, ins), default=0)
        pad = (0,) * width
        flat = chain.from_iterable((*nets, *pad)[:width] for nets in ins)
        return cls(
            out=np.array(out, np.intp),
            ins=np.fromiter(flat, np.intp, len(ins) * width).reshape(len(ins), width),
            weights=_BIT_WEIGHTS[:width],
            base=np.arange(len(ins), dtype=np.intp) << width,
            tables=tables[:, : 1 << width].ravel(),
        )

    def fill(self, values: np.ndarray) -> None:
        """Write every cell's output into each row of net ``values``, a
        block of rows at a time: the table addresses of a block are
        ``_FILL_ENTRIES`` machine words or fewer.  The gather lays a block
        out with its rows innermost: einsum forms the addresses along them,
        where a uint8 ``@`` walks one (cell, input) row at a time."""
        step = max(1, _FILL_ENTRIES // max(1, len(self.out)))
        for start in range(0, len(values), step):
            rows = values[start : start + step]
            rows[:, self.out] = self.tables[self.base + np.einsum("nkw,w->nk", rows[:, self.ins], self.weights)]


@dataclass(frozen=True)
class _Group:
    """Flip-flops of a stage that one cycle loop of :func:`simulate`
    updates: the state of ``ff.out`` and the ``reads`` of a cycle decide
    its next state, so the loop's memo is keyed by them alone."""

    ff: _Level
    reads: np.ndarray  # (r,) sorted nets the loop reads and does not write
    cols: slice | np.ndarray  # ff.out, as one slice when its nets are a contiguous run

    @classmethod
    def of(cls, ff: _Level, reads: np.ndarray) -> "_Group":
        nets = ff.out.tolist()
        run = range(nets[0], nets[0] + len(nets))
        return cls(ff, reads, slice(run.start, run.stop) if nets == list(run) else ff.out)


@dataclass(frozen=True)
class _Stage:
    """Flip-flops that the cycle loops of :func:`simulate` update, one
    loop per group.

    Each cycle of a loop evaluates ``levels`` and then looks up its
    group's flip-flops; once the loops have filled in every cycle,
    ``after`` is evaluated over all cycles at once.  A folded stage has
    no ``levels``.  ``groups`` holds the stage's flip-flops in groups
    that read no other group's (see :func:`_groups`), or the whole stage
    as one group.
    """

    levels: tuple[_Level, ...]  # LUT levels evaluated every cycle
    after: tuple[_Level, ...]  # LUT levels evaluated after the cycle loops
    groups: tuple[_Group, ...]  # one cycle loop each, run one after another

    @classmethod
    def whole(cls, levels: tuple[_Level, ...], ff: _Level, after: tuple[_Level, ...]) -> "_Stage":
        """The flip-flops ``ff`` as one loop, which reads the nets that
        ``levels`` and ``ff`` read and do not write."""
        cells = (*levels, ff)
        reads = set(chain.from_iterable(lv.ins.ravel().tolist() for lv in cells))
        reads.difference_update(*(lv.out.tolist() for lv in cells))
        return cls(levels, after, (_Group.of(ff, np.array(sorted(reads), np.intp)),))


# a flip-flop laid out over slots: 0 and 1 hold the constants, 2 + b its
# support net b and 2 + _FOLD_LIMIT + j its cone's LUT j.  The layout is
# the cone's LUTs, each as (level, slots read, table bits), then the
# slots its next-state table reads and that table's bits.
_Layout = tuple[tuple[tuple[int, tuple[int, ...], int], ...], tuple[int, ...], int]


def _cone(
    cell: Lut, unknown: Mapping[NetId, Lut], consts: Mapping[NetId, int]
) -> tuple[list[NetId], _Layout] | None:
    """The support of ``cell``'s inputs and the layout of its cone, or None
    once the support passes ``_FOLD_LIMIT`` nets.

    The cone is the ``unknown`` LUTs the inputs reach, each after the
    ones it reads and one level above the highest of them.  The support
    is the other nets they reach, constants left out, in the order a
    depth-first walk meets them.
    """
    slot = dict(consts)
    support, cells, levels = [], [], []
    stack = [cell]  # each LUT above the ones it waits for
    last = 1  # the slot of the last support net found, 1 before the first
    while True:
        top = stack[-1]
        waits = False
        for net in top.inputs:
            if net in slot:
                continue
            lut = unknown.get(net)
            if lut is not None:
                stack.append(lut)
                waits = True
            elif last == _CONE_SLOT - 1:
                return None
            else:
                last += 1
                slot[net] = last
                support.append(net)
        if waits:
            continue
        reads = tuple(map(slot.__getitem__, top.inputs))
        if top is cell:
            return support, (tuple(cells), reads, cell.table.bits)
        stack.pop()
        if top.out not in slot:  # a LUT the cone reads twice waits twice
            level = 0
            for s in reads:
                if s >= _CONE_SLOT and levels[s - _CONE_SLOT] >= level:
                    level = levels[s - _CONE_SLOT] + 1
            slot[top.out] = _CONE_SLOT + len(cells)
            cells.append((level, reads, top.table.bits))
            levels.append(level)


def _place(luts: Iterable[Lut], blocked: Iterable[NetId]) -> tuple[list[list[Lut]], list[Lut]]:
    """Split topologically ordered ``luts`` into the levels of those that
    reach no ``blocked`` net, each one level above the highest of them it
    reads, and the rest in their order.

    Whichever LUTs can be evaluated over the whole run are placed by
    this rule: the hoisted ones (blocked by the flip-flops), those after
    a stage (blocked by the flip-flops of later stages) and the levels of
    an unfolded cycle (nothing blocked).
    """
    blocked, level, ready, rest = set(blocked), {}, [], []
    for lut in luts:
        if blocked.isdisjoint(lut.inputs):
            level[lut.out] = 1 + max((level[n] for n in lut.inputs if n in level), default=-1)
            ready.append(lut)
        else:
            blocked.add(lut.out)
            rest.append(lut)
    levels = [[] for _ in range(1 + max(level.values(), default=-1))]
    for lut in ready:
        levels[level[lut.out]].append(lut)
    return levels, rest


def components(succ: Mapping[Hashable, Sequence[Hashable]]) -> list[list]:
    """The strongly connected components (SCCs) of graph ``succ`` by
    Tarjan's depth-first walk (1972), without recursion; each SCC comes
    after every SCC it reaches.  ``succ`` maps each node, a net id, to the
    nodes it has an edge to; a target that is not a key is skipped."""
    placed = len(succ) + 1  # the order of a node once its SCC is out
    order = dict.fromkeys(succ, 0)  # 1 + the visit count, 0 unvisited
    low, stack, sccs, count = {}, [], [], 0
    for root in succ:
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path, rests = [root], [iter(succ[root])]  # the walk's nodes, each with its edges left
        while path:
            v = path[-1]
            for w in rests[-1]:
                seen = order.get(w)
                if seen is None:  # not a node
                    continue
                if not seen:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    path.append(w)
                    rests.append(iter(succ[w]))
                    break
                if seen < low[v]:  # w is on the stack
                    low[v] = seen
            else:
                path.pop()
                rests.pop()
                if low[v] < order[v]:
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                else:
                    at = stack.index(v)
                    scc = stack[at:]
                    del stack[at:]
                    for w in scc:
                        order[w] = placed
                    sccs.append(scc)
    return sccs


def cut(sccs: list[list], succ: Mapping[Hashable, Sequence[Hashable]]) -> list[list]:
    """The nodes of ``sccs``, SCCs of graph ``succ`` that reach no node
    outside them, as one sorted part, or cut at the largest SCC if it is
    larger than every other: the SCCs it reaches, then itself, then the
    rest, each part sorted and left out when empty.  No part has an edge
    to a later one."""
    big = max(sccs, key=len)
    if sum(len(scc) == len(big) for scc in sccs) > 1:
        return [sorted(chain.from_iterable(sccs))]
    reached, todo = set(big), list(big)
    while todo:
        for w in succ[todo.pop()]:
            if w not in reached and w in succ:
                reached.add(w)
                todo.append(w)
    rest = [v for scc in sccs if scc[0] not in reached for v in scc]
    return [part for part in (sorted(reached.difference(big)), sorted(big), sorted(rest)) if part]


def _stages(
    pins: Sequence[Lut], loop: Sequence[Lut], consts: Mapping[NetId, int]
) -> tuple[_Stage, ...] | None:
    """The flip-flops ``pins`` (in net order) folded in stages, or None if
    they do not fold.

    Plan k holds the pending flip-flops whose support is at most
    ``_FOLD_LIMIT`` nets and which read no flip-flop of a later plan.  A
    support is counted through the ``loop`` LUTs (in topological order)
    not yet evaluated: its leaves are ports, hoisted LUT outputs,
    flip-flop outputs and the loop LUTs earlier plans evaluated.  Each
    plan is one stage, or up to three where :func:`cut` cuts it at its
    largest strongly connected component (SCC) of the graph in which a
    flip-flop reads the pending ones in its support.  After a plan, the
    loop LUTs that reach no pending flip-flop are evaluated over all
    cycles (:func:`_place`, its last stage's ``after``), so a cone wider
    than a table is cut where the flip-flops it reads end.  None when
    some flip-flop never fits, or when the plans would outnumber the
    lookups of an unfolded cycle (one per loop level, and one for the
    flip-flops).
    """
    depth = len(_place(loop, ())[0])
    unknown = {lut.out: lut for lut in loop}
    pending = {pin.out: pin for pin in pins}
    plans, rounds = [], 0
    while pending:
        if rounds > depth:
            return None
        rounds += 1
        cones = {q: _cone(pin, unknown, consts) for q, pin in pending.items()}
        # flip-flop q reads the pending ones in its support, itself among
        # them; one too wide to fold is not walked and reads only itself
        reads = {q: cone[0] if cone else (q,) for q, cone in cones.items()}
        # an SCC that holds a flip-flop too wide to fold, or reads one left
        # for a later plan (each comes after the SCCs it reads), is left too
        late = {q for q, cone in cones.items() if cone is None}
        stage = []
        for group in components(reads):
            if late and not late.isdisjoint(chain.from_iterable(map(reads.__getitem__, group))):
                late.update(group)
            else:
                stage.append(group)
        if not stage:
            return None
        parts = cut(stage, reads)
        ffs = {q: pending.pop(q) for part in parts for q in part}
        after, left = _place(unknown.values(), pending)
        unknown = {lut.out: lut for lut in left}
        for part in parts:
            groups = _groups(part, stage, reads)
            plans.append(([ffs[q] for q in part], [cones[q] for q in part], after if part is parts[-1] else [], groups))
    tables = _fold([layout for _, cones, _, _ in plans for _, layout in cones])
    stages = []
    for ffs, cones, after, groups in plans:
        out, supports = [pin.out for pin in ffs], [support for support, _ in cones]
        rows, tables = tables[: len(ffs)], tables[len(ffs) :]
        loops = []
        for members, nets in groups:
            level = _Level.of([out[i] for i in members], [supports[i] for i in members], rows[members])
            loops.append(_Group.of(level, np.array(nets, np.intp)))
        after = tuple(map(_lut_level, after))
        if loops:
            stages.append(_Stage((), after, tuple(loops)))
        else:
            stages.append(_Stage.whole((), _Level.of(out, supports, rows), after))
    return tuple(stages)


def _groups(
    part: Sequence[NetId], sccs: Sequence[Sequence[NetId]], reads: Mapping[NetId, Sequence[NetId]]
) -> list[tuple[list[int], list[NetId]]]:
    """The flip-flops of ``part`` in weakly connected groups, each as its
    positions in ``part`` and the sorted nets it reads outside ``part``,
    when there are several and each reads a net that no other group
    reads; else none.

    ``part`` is a union of the strongly connected components ``sccs`` of
    the graph in which flip-flop q reads ``reads[q]``, so the groups join
    its SCCs.  A group reads no other group's flip-flops, so it can run
    as a loop of its own, whose memo is not keyed by the other groups'
    inputs and phases.  Groups driven only by nets that others read too
    tend to move in step with them, so one memo serves them as well (the
    payload quad's four rings meet 36 to 44 keys together), and they stay
    in one loop.
    """
    inside = set(part)
    mine = [scc for scc in sccs if scc[0] in inside]
    if len(mine) < 2:
        return []
    scc_of = {q: k for k, scc in enumerate(mine) for q in scc}
    links: dict[int, list[int]] = {k: [] for k in range(len(mine))}
    outside: list[set[NetId]] = []  # per SCC, the nets it reads outside the part
    for k, scc in enumerate(mine):
        nets = set()
        for q in scc:
            for net in reads[q]:
                j = scc_of.get(net)
                if j is None:
                    nets.add(net)
                elif j != k:
                    links[k].append(j)
                    links[j].append(k)
        outside.append(nets)
    # with every edge both ways, the SCCs of the links are the weakly connected groups
    groups = [(ks, set().union(*map(outside.__getitem__, ks))) for ks in components(links)]
    readers = Counter(chain.from_iterable(nets for _, nets in groups))
    if len(groups) < 2 or not all(any(readers[n] == 1 for n in nets) for _, nets in groups):
        return []
    at = {q: i for i, q in enumerate(part)}
    return sorted((sorted(at[q] for k in ks for q in mine[k]), sorted(nets)) for ks, nets in groups)


def _fold(layouts: Sequence[_Layout]) -> np.ndarray:
    """The next-state table of each layout from :func:`_cone`, as 256
    entries: entry ``p`` holds the next state where support net ``b`` is
    bit ``b`` of ``p``.

    Flip-flops with the same layout have the same table, so each distinct
    layout is evaluated once, with the table lookup :func:`simulate` uses.
    Row ``p`` of one pattern array holds every slot's value on pattern
    ``p``: the constants and support bits in the first columns, shared by
    all layouts, then a block per layout of its cone LUTs and next state.
    :meth:`_Level.fill` evaluates the blocks one level at a time, each
    next-state table a level above its cone.
    """
    blocks: dict[_Layout, int] = {}  # layout -> its next-state column
    picks = []  # the next-state column of each layout
    steps: dict[int, list] = {}  # level -> (column, columns read, table bits) of its cells
    width = _CONE_SLOT
    for layout in layouts:
        column = blocks.get(layout)
        if column is not None:
            picks.append(column)
            continue
        cells, pin_reads, pin_bits = layout
        cells += ((1 + max((level for level, _, _ in cells), default=-1), pin_reads, pin_bits),)
        base = width - _CONE_SLOT  # cone slot s is column base + s
        for column, (level, cell_reads, entries) in enumerate(cells, width):
            cell_reads = tuple(s if s < _CONE_SLOT else base + s for s in cell_reads)
            steps.setdefault(level, []).append((column, cell_reads, entries))
        width += len(cells)
        blocks[layout] = width - 1
        picks.append(width - 1)
    values = np.zeros((256, width), np.uint8)
    values[:, 1] = 1
    values[:, 2:_CONE_SLOT] = (np.arange(256)[:, None] >> np.arange(_FOLD_LIMIT)) & 1
    for level in sorted(steps):
        columns, reads, entries = zip(*steps[level])
        _Level.of(columns, reads, _rows(entries)).fill(values)
    return values[:, picks].T


def _rows(bits: Sequence[int]) -> np.ndarray:
    """The 64 entries of each replicated table ``bits``, one uint8 row each."""
    return ((np.array(bits, np.uint64)[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.uint8)


def _lut_level(cells: Sequence[Lut]) -> _Level:
    """The level of LUT ``cells``, each read through its ``TruthTable``."""
    return _Level.of([c.out for c in cells], [c.inputs for c in cells], _rows([c.table.bits for c in cells]))


@dataclass(frozen=True)
class _Compiled:
    n_nets: int
    input_names: tuple[str, ...]
    in_nets: np.ndarray
    const_nets: np.ndarray
    const_vals: np.ndarray
    hoisted: tuple[_Level, ...]  # LUTs of no flip-flop, by level: evaluated before any cycle loop
    stages: tuple[_Stage, ...]  # the flip-flops and the other LUTs, one cycle loop per stage
    names: tuple[str, ...]


def _topo_order(netlist: Netlist) -> list[Lut]:
    """The LUTs of ``netlist``, each after every LUT it reads, by one FIFO
    Kahn pass: those that read no LUT in cell order, then each LUT once the
    last LUT it reads is taken.  Raises :class:`CombinationalCycleError`
    naming a net on a loop."""
    luts = {c.out: c for c in netlist.cells if isinstance(c, Lut)}
    waits = {out: sum(n in luts for n in lut.inputs) for out, lut in luts.items()}  # inputs not yet taken
    readers: dict[NetId, list[Lut]] = {net: [] for net in luts}
    for lut in luts.values():
        for net in lut.inputs:
            if net in luts:
                readers[net].append(lut)
    order = [lut for lut in luts.values() if not waits[lut.out]]
    for lut in order:  # the list is the queue: a ready LUT joins its end
        for reader in readers[lut.out]:
            waits[reader.out] -= 1
            if not waits[reader.out]:
                order.append(reader)
    if len(order) != len(luts):
        # every LUT left reads one left, so a walk from the first closes a loop
        left = {net for net, count in waits.items() if count}
        net, seen = min(left), []
        while net not in seen:
            seen.append(net)
            net = next(n for n in luts[net].inputs if n in left)
        raise CombinationalCycleError(net, netlist.name_of(net))
    return order


def plan(netlist: Netlist) -> _Compiled:
    """The compiled form of ``netlist`` that :func:`simulate` runs."""
    ffs = [c for c in netlist.cells if isinstance(c, FlipFlop)]
    for ff in ffs:
        if ff.d is None:
            raise NetlistError(f"FF q={ff.q} has an unwired d pin")
    # a LUT with a flip-flop in its fan-in cone is evaluated every cycle;
    # any other reads only ports and constants and is evaluated once
    hoisted, loop = _place(_topo_order(netlist), [ff.q for ff in ffs])

    consts = sorted(netlist._consts.items(), key=lambda kv: kv[1])
    pins = [Lut(ff.q, (ff.sr, ff.ce, ff.d, ff.q), _FF_NEXT[ff.kind]) for ff in ffs]
    stages = _stages(pins, loop, {net: value for value, net in consts})
    if stages is None:
        # each cycle evaluates the loop LUTs, then every flip-flop's
        # next-state table over its (sr, ce, d, q) pins
        levels = tuple(map(_lut_level, _place(loop, ())[0]))
        stages = (_Stage.whole(levels, _lut_level(pins), ()),)
    return _Compiled(
        n_nets=netlist.net_count,
        input_names=tuple(netlist.inputs),
        in_nets=np.array(list(netlist.inputs.values()), np.intp),
        const_nets=np.array([n for _, n in consts], np.intp),
        const_vals=np.array([v for v, _ in consts], np.uint8),
        hoisted=tuple(map(_lut_level, hoisted)),
        stages=stages,
        names=netlist.net_names(),
    )


def simulate(netlist: Netlist, stimulus: Stimulus, n_cycles: int) -> Trace:
    """Run the netlist for ``n_cycles`` rising edges.

    Every cell is a table lookup: gather its input nets, weight them
    into an address and read its table.  Input and constant columns are
    written for all cycles up front, and so are the LUTs whose fan-in
    cone holds no flip-flop, one logic level at a time over the whole
    run.  The flip-flops then run in stages, one cycle loop per stage.
    A folded stage's flip-flops were each compiled into one table over
    their support, at most 8 nets, so a cycle is one lookup for all of
    them.  When they do not fold, there is one stage, and each cycle
    evaluates the LUTs that read flip-flops level by level, then every
    flip-flop's table over (sr, ce, d, q): ``sr`` beats ``ce``, which
    beats hold.  A stage runs one loop per group (``_Stage.groups``):
    the weakly connected groups of its flip-flops when each reads a net
    that no other reads, else the whole stage.  A loop keys each cycle
    by its state bytes and the packed bits of its group's ``reads``.
    Each state seen owns a dict from those bits to (next state, next
    state's dict), so a key seen before in this call is one ``dict.get``
    and a tuple unpack, and only a new key does the lookups; the dicts
    link in cycles, so the loop clears them when it ends.  After the
    loop the group's state columns are written for every cycle, by one
    slice when its nets are a contiguous run; after the stage's loops,
    its LUT levels, then its ``after`` levels, are evaluated over the
    whole run, and the next stage reads them as inputs.
    Deterministic; all flip-flops hold 0 before the first edge, which is
    why generated designs drive RESET through cycle 0.
    """
    cycles = "n_cycles {0} must be an integer in [1, {1}]: a stimulus shorter than the run cannot drive it"
    n_cycles = _require_int(n_cycles, 1, stimulus.length + 1, NetlistError, cycles, stimulus.length)
    comp = netlist._compile()
    missing = [n for n in comp.input_names if n not in stimulus.waves]
    if missing:
        raise NetlistError(f"stimulus missing input ports: {missing}")
    values = np.zeros((n_cycles, comp.n_nets), np.uint8)
    for net, name in zip(comp.in_nets, comp.input_names):
        values[:, net] = stimulus.waves[name][:n_cycles]
    values[:, comp.const_nets] = comp.const_vals
    for lv in comp.hoisted:
        lv.fill(values)
    for stage in comp.stages:
        for group in stage.groups:
            ff, cols = group.ff, group.cols
            packed = np.ascontiguousarray(np.packbits(values[:, group.reads], axis=1))
            codes = packed.view(f"V{packed.shape[1]}").ravel().tolist() if packed.size else [b""] * n_cycles
            state = bytes(len(ff.out))
            links: dict[bytes, tuple[bytes, dict]] = {}  # the state's code -> (next state, its links)
            memo = {state: links}  # each state seen -> its links
            states = []
            append = states.append
            for code in codes:
                append(state)
                hit = links.get(code)
                if hit is None:
                    row = values[len(states) - 1]
                    row[cols] = np.frombuffer(state, np.uint8)
                    for lv in stage.levels:
                        row[lv.out] = lv.tables[lv.base + row[lv.ins] @ lv.weights]
                    nxt = ff.tables[ff.base + row[ff.ins] @ ff.weights].tobytes()
                    hit = links[code] = (nxt, memo.setdefault(nxt, {}))
                state, links = hit
            while memo:  # the links run in cycles: break them, so no collection is needed
                memo.popitem()[1].clear()
            values[:, cols] = np.frombuffer(b"".join(states), np.uint8).reshape(n_cycles, -1)
        for lv in (*stage.levels, *stage.after):
            lv.fill(values)
    values.setflags(write=False)
    return Trace(values=values, names=comp.names)
