"""Netlist data model and cycle-accurate simulator for FPGA-style primitives.

The model knows two cell kinds:

* ``Lut`` -- an up-to-6-input look-up table holding an arbitrary logic
  function as a 64-entry truth table (unused high address bits are
  ignored because the table is replicated across them).
* ``FlipFlop`` -- a D flip-flop with clock enable (``ce``) and a
  synchronous set or reset pin (``sr``).  ``FfKind.SET`` sets the output
  to 1 while ``sr`` is high, ``FfKind.RESET`` clears it.  ``sr`` has
  priority over ``ce``.

There is a single implicit clock; one simulation step is one rising
edge.  Multiplexors are expressed as 3-input LUTs rather than a
dedicated cell kind, so there is exactly one combinational evaluation
path.

Nets are plain integers.  Every net has exactly one driver: an input
port, a constant tie-off, or a cell output.  Nets are allocated
together with their driver, so an out-of-range id is the only way to
reference an undriven net.  The one exception is a flip-flop's ``d``
pin, which may be left open at construction time and wired later with
:meth:`Netlist.set_ff_d`; this is how sequential loops (shift-register
rings) are closed.  :meth:`Netlist.set_lut_input` may likewise point a
LUT input at a later net, which the text form reads back.

Timing and trace conventions:

* The distinguished ``RESET`` input port is expected to be held 1 for
  exactly cycle 0 and 0 afterwards; generated constructions wire it to
  every flip-flop's ``sr`` pin.  Cycle 1 is therefore the first
  post-reset state.
* ``simulate`` records, for every cycle, the combinationally settled
  value of every net.  Flip-flop outputs recorded for cycle ``t`` are
  the values valid *during* the cycle (pre-edge); all flip-flops then
  update simultaneously to produce cycle ``t + 1``.
* Simulation is a pure function of (netlist, stimulus, n_cycles) and
  reproduces traces bit-exactly.

The simulator compiles a netlist into table lookups.  LUTs that read no
flip-flop, directly or through other LUTs, are evaluated once over all
cycles.  The flip-flops are split into stages, each run as its own cycle
loop of one lookup per cycle: a stage holds the flip-flops whose next
state, through the LUTs not yet evaluated, reads at most 8 nets and no
flip-flop of a later stage.  Between stages, the LUTs whose inputs are
then all known are evaluated over all cycles, so a cone too wide for a
table is cut where the flip-flops it reads end.  A design that does not
split this way runs one loop that evaluates those LUTs every cycle.
Each loop memoizes, for one call, the next state by the state and the
stage's external inputs: an FM ring revisits few states, so most cycles
are one dict lookup.  A stage whose largest strongly connected component
of flip-flops is larger than every other is cut into up to three loops
(what it reads, itself, the rest), so a counter that steps once a period
keys its memo by its own state, not also by the rings' phases.

A netlist under construction is single-owner.  ``simulate`` does not
mutate the netlist and may run concurrently for different stimuli;
traces are immutable after creation.
"""

from __future__ import annotations

import enum
import io
import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import scc

# The kernel is plain numpy; perfbench/run.py still stamps this flag.
HAVE_NUMBA = False


NetId = int

RESET_NAME = "RESET"
CONST_NAMES = {0: "CONST0", 1: "CONST1"}


class NetlistError(ValueError):
    """Structural error while building or simulating a netlist."""


class CombinationalCycleError(NetlistError):
    """A loop of LUTs with no flip-flop on it."""

    def __init__(self, net: NetId, name: str):
        super().__init__(f"combinational cycle through net {net} ({name})")
        self.net = net


class FfKind(enum.Enum):
    SET = "FFS"
    RESET = "FFR"


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

_FULL64 = (1 << 64) - 1

# input b as a replicated table (entry i is bit b of i); fixed logic is
# bit algebra over these, e.g. INPUT_BITS[0] & INPUT_BITS[1] is a 2-input AND
INPUT_BITS = tuple(sum(1 << i for i in range(64) if i >> b & 1) for b in range(6))

# the argument tuple of every entry of a table, per arity
_ENTRY_ARGS = [[tuple(i >> b & 1 for b in range(k)) for i in range(1 << k)] for k in range(7)]


def _check_arity(arity: int) -> None:
    if not 1 <= arity <= 6:
        raise NetlistError(f"table arity must be in [1, 6], got {arity}")


def _replicate(base: int, arity: int) -> int:
    """Spread a 2**arity-entry table across all 64 entries."""
    bits = base & ((1 << (1 << arity)) - 1)
    width = 1 << arity
    while width < 64:
        bits |= bits << width
        width *= 2
    return bits


@dataclass(frozen=True)
class TruthTable:
    """A 64-entry logic table with explicit arity k in [1, 6].

    Entry ``i`` gives the output for packed inputs where input ``b``
    contributes bit ``b`` of ``i``.  The table is stored in canonical
    replicated form so inputs above the arity never matter.
    """

    bits: int
    arity: int

    def __post_init__(self):
        _check_arity(self.arity)
        if not 0 <= self.bits <= _FULL64:
            raise NetlistError("table bits out of 64-bit range")
        if self.bits != _replicate(self.bits, self.arity):
            raise NetlistError("table is not replicated across unused inputs")

    @classmethod
    def from_bits(cls, arity: int, bits: int) -> "TruthTable":
        """Build from a 2**arity-entry table (low entry = all inputs 0)."""
        _check_arity(arity)
        return cls(_replicate(bits, arity), arity)

    @classmethod
    def from_function(cls, arity: int, fn: Callable[..., int]) -> "TruthTable":
        """Build from ``fn(*input_bits) -> 0/1`` evaluated exhaustively.

        The arity must be in [1, 6]; any other raises ``NetlistError``
        before ``fn`` is called.  ``fn`` is called once per entry, so
        builders of fixed logic combine ``INPUT_BITS`` instead.
        """
        _check_arity(arity)
        bits = 0
        for idx, args in enumerate(_ENTRY_ARGS[arity]):
            if fn(*args):
                bits |= 1 << idx
        return cls.from_bits(arity, bits)

    def value(self, idx: int) -> int:
        return (self.bits >> (idx & 63)) & 1

    def eval(self, inputs: Sequence[int]) -> int:
        idx = 0
        for b, v in enumerate(inputs):
            idx |= (v & 1) << b
        return self.value(idx)

    def is_constant(self) -> bool:
        mask = (1 << (1 << self.arity)) - 1
        base = self.bits & mask
        return base == 0 or base == mask


def tt_buf() -> TruthTable:
    return TruthTable.from_bits(1, 0b10)


def tt_not() -> TruthTable:
    return TruthTable.from_bits(1, 0b01)


def tt_and(k: int) -> TruthTable:
    return TruthTable.from_bits(k, reduce(operator.and_, INPUT_BITS[:k], _FULL64))


def tt_or(k: int) -> TruthTable:
    return TruthTable.from_bits(k, reduce(operator.or_, INPUT_BITS[:k], 0))


def tt_xor(k: int) -> TruthTable:
    return TruthTable.from_bits(k, reduce(operator.xor, INPUT_BITS[:k], 0))


def tt_mux() -> TruthTable:
    """3-input mux: inputs (sel, a, b) -> a if sel else b."""
    sel, a, b = INPUT_BITS[:3]
    return TruthTable.from_bits(3, sel & a | ~sel & b)


def tt_const(arity: int, value: int) -> TruthTable:
    return TruthTable.from_bits(arity, -1 if value else 0)


def tt_equals(width: int, value: int) -> TruthTable:
    """Comparator table: output 1 iff the packed inputs equal ``value``."""
    if not 0 <= value < (1 << width):
        raise NetlistError(f"value {value} does not fit in {width} bits")
    return TruthTable.from_bits(width, 1 << value)


# ---------------------------------------------------------------------------
# Cells and the netlist container
# ---------------------------------------------------------------------------


@dataclass
class Lut:
    out: NetId
    inputs: tuple[NetId, ...]
    table: TruthTable


@dataclass
class FlipFlop:
    kind: FfKind
    q: NetId
    d: NetId | None
    ce: NetId
    sr: NetId


Cell = Lut | FlipFlop


class Netlist:
    """A synchronous circuit of LUTs, flip-flops, ports and constants."""

    def __init__(self):
        self.cells: list[Cell] = []
        self.inputs: dict[str, NetId] = {}
        self.outputs: dict[str, NetId] = {}
        self._drivers: list[tuple] = []
        self._consts: dict[int, NetId] = {}
        self._lut_by_out: dict[NetId, int] = {}
        self._ff_by_q: dict[NetId, int] = {}
        self._version = 0
        self._compiled: tuple[int, "_Compiled"] | None = None

    # -- net allocation -----------------------------------------------------

    @property
    def net_count(self) -> int:
        return len(self._drivers)

    def _alloc(self, driver: tuple) -> NetId:
        self._drivers.append(driver)
        return len(self._drivers) - 1

    def _require_net(self, net: NetId, role: str) -> None:
        if isinstance(net, bool) or not isinstance(net, (int, np.integer)) or not 0 <= net < self.net_count:
            raise NetlistError(f"{role} references undriven net {net!r}")

    def _touch(self) -> None:
        self._version += 1

    # -- construction ---------------------------------------------------------

    def add_input(self, name: str) -> NetId:
        if not name:
            raise NetlistError("input name must be nonempty")
        if name in self.inputs:
            raise NetlistError(f"duplicate input name {name!r}")
        if name in CONST_NAMES.values():
            raise NetlistError(f"input name {name!r} is reserved")
        self._touch()
        net = self._alloc(("input", name))
        self.inputs[name] = net
        return net

    def reset(self) -> NetId:
        """The distinguished RESET port (created on first use)."""
        if RESET_NAME in self.inputs:
            return self.inputs[RESET_NAME]
        return self.add_input(RESET_NAME)

    def const(self, value: int) -> NetId:
        """A net tied to 0 or 1 (one shared tie-off per value)."""
        value = int(bool(value))
        if value not in self._consts:
            self._touch()
            self._consts[value] = self._alloc(("const", value))
        return self._consts[value]

    def add_lut(self, inputs: Sequence[NetId], table: TruthTable) -> NetId:
        inputs = tuple(inputs)
        if len(inputs) > 6:
            raise NetlistError(f"LUT supports at most 6 inputs, got {len(inputs)}")
        if len(inputs) != table.arity:
            raise NetlistError(
                f"LUT input count {len(inputs)} does not match table arity {table.arity}"
            )
        for net in inputs:
            self._require_net(net, "LUT input")
        inputs = tuple(map(int, inputs))
        self._touch()
        cell_index = len(self.cells)
        out = self._alloc(("lut", cell_index))
        self.cells.append(Lut(out=out, inputs=inputs, table=table))
        self._lut_by_out[out] = cell_index
        return out

    def add_ff(self, kind: FfKind, d: NetId | None, ce: NetId, sr: NetId) -> NetId:
        if d is not None:
            self._require_net(d, "FF d")
        self._require_net(ce, "FF ce")
        self._require_net(sr, "FF sr")
        self._touch()
        cell_index = len(self.cells)
        q = self._alloc(("ff", cell_index))
        self.cells.append(FlipFlop(kind=kind, q=q, d=None if d is None else int(d), ce=int(ce), sr=int(sr)))
        self._ff_by_q[q] = cell_index
        return q

    def set_ff_d(self, q: NetId, d: NetId) -> None:
        """Close a sequential loop by wiring a deferred ``d`` pin."""
        ff = self.ff(q)
        if ff.d is not None:
            raise NetlistError(f"FF q={q} already has its d pin wired")
        self._require_net(d, "FF d")
        self._touch()
        ff.d = int(d)

    def set_lut_input(self, out: NetId, position: int, net: NetId) -> None:
        lut = self.lut(out)
        if not 0 <= position < len(lut.inputs):
            raise NetlistError(f"LUT {out} has no input position {position}")
        self._require_net(net, "LUT input")
        self._touch()
        ins = list(lut.inputs)
        ins[position] = int(net)
        lut.inputs = tuple(ins)

    def set_lut_table(self, out: NetId, table: TruthTable) -> None:
        """Reconfigure a LUT in place (same arity, new function)."""
        lut = self.lut(out)
        if table.arity != lut.table.arity:
            raise NetlistError("replacement table must keep the LUT arity")
        self._touch()
        lut.table = table

    def mark_output(self, name: str, net: NetId) -> None:
        if name in self.outputs:
            raise NetlistError(f"duplicate output name {name!r}")
        self._require_net(net, "output")
        self._touch()
        self.outputs[name] = int(net)

    # -- lookup ---------------------------------------------------------------

    def lut(self, out: NetId) -> Lut:
        try:
            return self.cells[self._lut_by_out[out]]
        except KeyError:
            raise NetlistError(f"net {out} is not a LUT output") from None

    def ff(self, q: NetId) -> FlipFlop:
        try:
            return self.cells[self._ff_by_q[q]]
        except KeyError:
            raise NetlistError(f"net {q} is not a flip-flop output") from None

    def name_of(self, net: NetId) -> str:
        return self.net_names()[net]

    def net_names(self) -> tuple[str, ...]:
        """Each net's name: its port's, its constant's, its first output's, or ``n<net>``."""
        named: dict[NetId, str] = {}
        for name, net in self.outputs.items():
            named.setdefault(net, name)
        return tuple(
            arg if kind == "input" else CONST_NAMES[arg] if kind == "const" else named.get(net, f"n{net}")
            for net, (kind, arg) in enumerate(self._drivers)
        )

    # -- evaluation order -----------------------------------------------------

    def _levels(self) -> list[list[int]]:
        """LUT cell indices grouped by logic level, by one Kahn pass.

        Level 0 reads only ports, constants and flip-flops; a LUT on
        level ``n`` reads at least one LUT of level ``n - 1`` and none
        above it, so every LUT of a level can be evaluated at once.
        Raises :class:`CombinationalCycleError` naming a net on a loop.
        """
        lut_cells = [i for i, c in enumerate(self.cells) if isinstance(c, Lut)]
        dependents: dict[int, list[int]] = {i: [] for i in lut_cells}
        indeg = {i: 0 for i in lut_cells}
        for ci in lut_cells:
            for net in self.cells[ci].inputs:
                drv = self._drivers[net]
                if drv[0] == "lut":
                    dependents[drv[1]].append(ci)
                    indeg[ci] += 1
        levels: list[list[int]] = []
        ready = [i for i in lut_cells if indeg[i] == 0]
        while ready:
            levels.append(ready)
            ready = []
            for ci in levels[-1]:
                for dep in dependents[ci]:
                    indeg[dep] -= 1
                    if indeg[dep] == 0:
                        ready.append(dep)
        if sum(map(len, levels)) != len(lut_cells):
            remaining = {i for i in lut_cells if indeg[i] > 0}
            ci = min(remaining)
            seen = []
            while ci not in seen:
                seen.append(ci)
                for net in self.cells[ci].inputs:
                    drv = self._drivers[net]
                    if drv[0] == "lut" and drv[1] in remaining:
                        ci = drv[1]
                        break
            net = self.cells[ci].out
            raise CombinationalCycleError(net, self.name_of(net))
        return levels

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        """Line-oriented text form; one record per port, constant or cell."""
        lines = []
        for name, net in self.inputs.items():
            lines.append(f"IN {name} {net}")
        for value in sorted(self._consts):
            lines.append(f"CONST {self._consts[value]} {value}")
        for cell in self.cells:
            if isinstance(cell, Lut):
                ins = " ".join(str(n) for n in cell.inputs)
                lines.append(f"LUT {cell.out} {cell.table.bits:016x} {ins}")
            else:
                if cell.d is None:
                    raise NetlistError(f"FF q={cell.q} has an unwired d pin")
                lines.append(f"{cell.kind.value} {cell.q} {cell.d} {cell.ce} {cell.sr}")
        for name, net in self.outputs.items():
            lines.append(f"OUT {name} {net}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Netlist":
        records: dict[int, tuple] = {}
        outputs: list[tuple[int, str, int]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            try:
                if tag == "IN":
                    net, rec = int(parts[2]), ("IN", parts[1])
                elif tag == "CONST":
                    # index() rejects any value but 0 and 1 as malformed
                    net, rec = int(parts[1]), ("CONST", ("0", "1").index(parts[2]))
                elif tag == "LUT":
                    net, rec = int(parts[1]), ("LUT", int(parts[2], 16), tuple(int(p) for p in parts[3:]))
                elif tag in ("FFS", "FFR"):
                    net, d, ce, sr = (int(p) for p in parts[1:5])
                    rec = ("FF", FfKind(tag), d, ce, sr)
                elif tag == "OUT":
                    outputs.append((lineno, parts[1], int(parts[2])))
                    continue
                else:
                    raise NetlistError(f"unknown record {tag!r} on line {lineno}")
            except (IndexError, ValueError) as exc:
                if isinstance(exc, NetlistError):
                    raise
                raise NetlistError(f"malformed record on line {lineno}: {raw!r}") from None
            if net in records:
                raise NetlistError(f"line {lineno}: net {net} is already driven by line {records[net][0]}")
            records[net] = (lineno, *rec)

        nl = cls()
        # pins that reference a later net are wired once every net exists,
        # then the outputs are marked
        deferred: list[tuple[int, Callable[[], None]]] = []
        for net in range(len(records)):
            if net not in records:
                raise NetlistError(f"net {net} has no driver record")
            lineno, *rec = records[net]
            try:
                if rec[0] == "IN":
                    got = nl.add_input(rec[1])
                elif rec[0] == "CONST":
                    got = nl.const(rec[1])
                elif rec[0] == "LUT":
                    # a LUT input rewired after construction (set_lut_input)
                    # may name a later net; it reads net 0 until then
                    _, bits, ins = rec
                    got = nl.add_lut([n if n < net else 0 for n in ins], TruthTable(bits, len(ins)))
                    deferred += [
                        (lineno, partial(nl.set_lut_input, got, pos, n))
                        for pos, n in enumerate(ins)
                        if n >= net
                    ]
                else:
                    _, kind, d, ce, sr = rec
                    # d may reference a later net (a closed register loop)
                    got = nl.add_ff(kind, None, ce, sr)
                    deferred.append((lineno, partial(nl.set_ff_d, got, d)))
                if got != net:
                    raise NetlistError(f"net numbering mismatch at {net}")
            except NetlistError as exc:
                raise NetlistError(f"line {lineno}: {exc}") from None
        deferred += [(lineno, partial(nl.mark_output, name, net)) for lineno, name, net in outputs]
        for lineno, step in deferred:
            try:
                step()
            except NetlistError as exc:
                raise NetlistError(f"line {lineno}: {exc}") from None
        return nl

    # -- compilation for the simulator ---------------------------------------

    def _compile(self) -> "_Compiled":
        if self._compiled is not None and self._compiled[0] == self._version:
            return self._compiled[1]
        ffs = [c for c in self.cells if isinstance(c, FlipFlop)]
        for ff in ffs:
            if ff.d is None:
                raise NetlistError(f"FF q={ff.q} has an unwired d pin")
        # a LUT with a flip-flop in its fan-in cone is evaluated every cycle;
        # any other reads only ports and constants and is evaluated once
        order = (self.cells[i] for cells in self._levels() for i in cells)
        hoisted, loop = _place(order, [ff.q for ff in ffs])

        input_names = tuple(self.inputs)
        consts = sorted(self._consts.items(), key=lambda kv: kv[1])
        pins = [Lut(ff.q, (ff.sr, ff.ce, ff.d, ff.q), _FF_NEXT[ff.kind]) for ff in ffs]
        stages = _stages(pins, loop, {net: value for value, net in consts})
        if stages is None:
            # each cycle evaluates the loop LUTs, then every flip-flop's
            # next-state table over its (sr, ce, d, q) pins
            levels = tuple(map(_lut_level, _place(loop, ())[0]))
            stages = (_Stage.of(levels, _lut_level(pins), ()),)
        compiled = _Compiled(
            n_nets=self.net_count,
            input_names=input_names,
            in_nets=np.array([self.inputs[n] for n in input_names], np.intp),
            const_nets=np.array([n for _, n in consts], np.intp),
            const_vals=np.array([v for v, _ in consts], np.uint8),
            hoisted=tuple(map(_lut_level, hoisted)),
            stages=stages,
            names=self.net_names(),
        )
        self._compiled = (self._version, compiled)
        return compiled


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
    stage: each read as a 4-input LUT of its (sr, ce, d, q) pins with the
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
class _Stage:
    """Flip-flops that one cycle loop of :func:`simulate` updates.

    Each cycle evaluates ``levels`` and then looks up ``ff``; once the
    loop has filled in every cycle, ``after`` is evaluated over all
    cycles at once.  A folded stage has no ``levels``.  The state and
    the ``reads`` of a cycle decide its next state; ``reads`` holds no
    flip-flop of this stage or a later one, so the loop's memo is keyed
    by this stage's state alone.
    """

    levels: tuple[_Level, ...]  # LUT levels evaluated every cycle
    ff: _Level
    after: tuple[_Level, ...]  # LUT levels evaluated after the cycle loop
    reads: np.ndarray  # (r,) sorted nets the loop reads and does not write

    @classmethod
    def of(cls, levels: tuple[_Level, ...], ff: _Level, after: tuple[_Level, ...]) -> "_Stage":
        cells = (*levels, ff)
        reads = set(chain.from_iterable(lv.ins.ravel().tolist() for lv in cells))
        reads.difference_update(*(lv.out.tolist() for lv in cells))
        return cls(levels, ff, after, np.array(sorted(reads), np.intp))


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
    plan is one stage, or up to three where :func:`scc.cut` cuts it at its
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
        for group in scc.components(reads):
            if late and not late.isdisjoint(chain.from_iterable(map(reads.__getitem__, group))):
                late.update(group)
            else:
                stage.append(group)
        if not stage:
            return None
        parts = scc.cut(stage, reads)
        ffs = {q: pending.pop(q) for part in parts for q in part}
        after, left = _place(unknown.values(), pending)
        unknown = {lut.out: lut for lut in left}
        for part in parts:
            plans.append(([ffs[q] for q in part], [cones[q] for q in part], after if part is parts[-1] else []))
    tables = _fold([layout for _, cones, _ in plans for _, layout in cones])
    stages = []
    for ffs, cones, after in plans:
        ff = _Level.of([pin.out for pin in ffs], [support for support, _ in cones], tables[: len(ffs)])
        stages.append(_Stage.of((), ff, tuple(map(_lut_level, after))))
        tables = tables[len(ffs) :]
    return tuple(stages)


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


# ---------------------------------------------------------------------------
# Stimulus and traces
# ---------------------------------------------------------------------------


class Stimulus:
    """Per-input-port bit sequences, one value per cycle."""

    def __init__(self, waves: Mapping[str, Sequence[int] | np.ndarray]):
        if not waves:
            raise NetlistError("stimulus must drive at least one port")
        self.waves: dict[str, np.ndarray] = {}
        length = None
        for name, seq in waves.items():
            arr = np.asarray(seq, dtype=np.uint8)
            if arr.ndim != 1:
                raise NetlistError(f"stimulus for {name!r} must be one-dimensional")
            if np.any(arr > 1):
                raise NetlistError(f"stimulus for {name!r} contains non-binary values")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise NetlistError("stimulus sequences must have equal length")
            self.waves[name] = arr
        self.length = int(length)
        self.meta: dict = {}

    @classmethod
    def standard(
        cls,
        n_cycles: int,
        ports: "Netlist | Iterable[str]",
        **overrides: Sequence[int] | np.ndarray | int,
    ) -> "Stimulus":
        """All-zero waves for every port, RESET pulsed at cycle 0.

        Keyword overrides may be full sequences or a scalar 0/1 held for
        the whole run.  RESET may be overridden explicitly.
        """
        names = list(ports.inputs) if isinstance(ports, Netlist) else list(ports)
        waves: dict[str, np.ndarray] = {}
        for name in names:
            waves[name] = np.zeros(n_cycles, np.uint8)
        if RESET_NAME in waves:
            waves[RESET_NAME][0] = 1
        for name, value in overrides.items():
            if name not in waves:
                waves[name] = np.zeros(n_cycles, np.uint8)
            if isinstance(value, (int, np.integer)):
                if value not in (0, 1):
                    raise NetlistError(f"override for {name!r} must be 0 or 1, got {value}")
                waves[name] = np.full(n_cycles, value, np.uint8)
            else:
                arr = np.asarray(value, dtype=np.uint8)
                if len(arr) < n_cycles:
                    raise NetlistError(f"override for {name!r} is shorter than {n_cycles}")
                waves[name] = arr[:n_cycles].copy()
        return cls(waves)

    def extended(self, extra: Mapping[str, Sequence[int] | np.ndarray]) -> "Stimulus":
        waves = dict(self.waves)
        for name, seq in extra.items():
            waves[name] = np.asarray(seq, dtype=np.uint8)
        stim = Stimulus(waves)
        stim.meta = dict(self.meta)
        return stim


@dataclass(frozen=True)
class Trace:
    """Per-net binary waveforms over simulated cycles (immutable)."""

    values: np.ndarray  # shape (cycles, nets), uint8, read-only
    names: tuple[str, ...]

    @property
    def cycles(self) -> int:
        return self.values.shape[0]

    @property
    def n_nets(self) -> int:
        return self.values.shape[1]

    def wave(self, net: NetId) -> np.ndarray:
        return self.values[:, net]

    def value(self, net: NetId, cycle: int) -> int:
        return int(self.values[cycle, net])

    def to_csv(self, path) -> None:
        """Write a header of net names, then one row of 0/1 cells per cycle."""
        n = self.n_nets
        # each row is "v,v,...,v\n": cells at even offsets, the separator
        # after the last cell (or the only byte, with no nets) is the newline
        width = max(2 * n, 1)
        # rows go out in blocks of about 64 KiB, so no buffer grows with the trace
        step = max(1, (64 << 10) // width)
        rows = np.full((min(step, self.cycles), width), ord(","), np.uint8)
        rows[:, -1] = ord("\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names) + "\n")
            for start in range(0, self.cycles, step):
                block = self.values[start : start + step]
                out = rows[: len(block)]
                np.add(block != 0, np.uint8(ord("0")), out=out[:, : 2 * n : 2])
                fh.write(str(out.data, "ascii"))

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read a trace written by :meth:`to_csv`.

        The file is UTF-8 text: a header of net names (empty for a trace
        with no nets, whose rows are then empty lines), then one row per
        cycle.  A file in exactly the form :meth:`to_csv` writes is checked
        and converted as one byte buffer.  Any other goes through
        :func:`_parse_csv_lines`, which also accepts CRLF, blank lines, a
        missing final newline and any cell numpy reads as 0 or 1, and
        raises :class:`NetlistError` naming the first line it cannot read.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        names, values = _parse_csv_buffer(data) or _parse_csv_lines(path, data)
        values.setflags(write=False)
        return cls(values=values, names=names)


def _all_bytes(a: np.ndarray, char: str) -> bool:
    return a.size == 0 or a.min() == a.max() == ord(char)


def _parse_csv_buffer(data: bytes) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Names and values of trace CSV ``data`` laid out exactly as
    :meth:`Trace.to_csv` writes it (the header may end in CRLF), or None
    for any other layout."""
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    header = data[:end].removesuffix(b"\r")
    if b"\r" in header:  # a lone CR ends a line in text mode
        return None
    try:
        names = tuple(header.decode("utf-8").split(",")) if header else ()
    except UnicodeDecodeError:
        return None
    n = len(names)
    width = max(2 * n, 1)
    body = np.frombuffer(data, np.uint8)[end + 1 :]
    if body.size % width:
        return None
    rows = body.reshape(-1, width)
    if not (_all_bytes(rows[:, 1 : 2 * n - 1 : 2], ",") and _all_bytes(rows[:, -1], "\n")):
        return None
    # a cell byte below "0" wraps past 1 as well
    values = rows[:, : 2 * n : 2] - np.uint8(ord("0"))
    if values.size and values.max() > 1:
        return None
    return names, values


def _parse_csv_lines(path, data: bytes) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse trace CSV ``data`` line by line, as text with universal newlines.

    Blank lines are skipped, except that an empty line is a cycle of a
    trace with no nets.  Raises :class:`NetlistError` naming the first
    line that is not UTF-8 or not one 0/1 cell per header name.
    """
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        try:
            header.encode("utf-8")
        except UnicodeEncodeError:
            raise NetlistError(f"{path}: line 1 is not UTF-8 text") from None
        names = tuple(header.split(",")) if header else ()
        width = len(names)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            text = line.rstrip("\n")
            if not text and not names:
                rows.append(np.zeros(0, np.uint8))
                continue
            if not text.strip():
                continue
            cells = text.split(",")
            try:
                row = np.array(cells, dtype=np.uint8)
                ok = len(cells) == width and row.max() <= 1
            except (ValueError, OverflowError):  # undecodable bytes end up here too
                ok = False
            if not ok:
                raise NetlistError(f"{path}: line {lineno} is not {width} comma-separated 0/1 cells")
            rows.append(row)
    values = np.vstack(rows) if rows else np.zeros((0, width), np.uint8)
    return names, values


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


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
    beats hold.  The loop keys each cycle by its state bytes and the
    packed bits of the stage's ``reads``; a key seen before in this call
    gives the next state from a dict, and only a new key does the
    lookups.  After the loop the state columns are written for every
    cycle, and the stage's LUT levels, then its ``after`` levels, are
    evaluated over the whole run; the next stage reads them as inputs.
    Deterministic; all flip-flops hold 0 before the first edge, which is
    why generated designs drive RESET through cycle 0.
    """
    if n_cycles < 1:
        raise NetlistError("n_cycles must be at least 1")
    if stimulus.length < n_cycles:
        raise NetlistError(
            f"stimulus length {stimulus.length} is shorter than {n_cycles} cycles"
        )
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
        ff = stage.ff
        packed = np.ascontiguousarray(np.packbits(values[:, stage.reads], axis=1))
        codes = packed.view(f"V{packed.shape[1]}").ravel().tolist() if packed.size else [b""] * n_cycles
        memo: dict[tuple[bytes, bytes], bytes] = {}
        state, states = bytes(len(ff.out)), []
        for t, code in enumerate(codes):
            states.append(state)
            nxt = memo.get((state, code))
            if nxt is None:
                row = values[t]
                row[ff.out] = np.frombuffer(state, np.uint8)
                for lv in stage.levels:
                    row[lv.out] = lv.tables[lv.base + row[lv.ins] @ lv.weights]
                nxt = memo[state, code] = ff.tables[ff.base + row[ff.ins] @ ff.weights].tobytes()
            state = nxt
        values[:, ff.out] = np.frombuffer(b"".join(states), np.uint8).reshape(n_cycles, -1)
        for lv in (*stage.levels, *stage.after):
            lv.fill(values)
    values.setflags(write=False)
    return Trace(values=values, names=comp.names)
