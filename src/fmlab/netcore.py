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
rings) are closed.

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

A netlist under construction is single-owner.  ``simulate`` does not
mutate the netlist and may run concurrently for different stimuli;
traces are immutable after creation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


NetId = int

RESET_NAME = "RESET"
CONST_NAMES = {0: "CONST0", 1: "CONST1"}
_RESERVED = {RESET_NAME: None, **{v: k for k, v in CONST_NAMES.items()}}


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
        if not 1 <= self.arity <= 6:
            raise NetlistError(f"table arity must be in [1, 6], got {self.arity}")
        if not 0 <= self.bits <= _FULL64:
            raise NetlistError("table bits out of 64-bit range")
        if self.bits != _replicate(self.bits, self.arity):
            raise NetlistError("table is not replicated across unused inputs")

    @classmethod
    def from_bits(cls, arity: int, bits: int) -> "TruthTable":
        """Build from a 2**arity-entry table (low entry = all inputs 0)."""
        if not 1 <= arity <= 6:
            raise NetlistError(f"table arity must be in [1, 6], got {arity}")
        return cls(_replicate(bits, arity), arity)

    @classmethod
    def from_function(cls, arity: int, fn: Callable[..., int]) -> "TruthTable":
        """Build from ``fn(*input_bits) -> 0/1`` evaluated exhaustively."""
        bits = 0
        for idx in range(1 << arity):
            args = tuple((idx >> b) & 1 for b in range(arity))
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
    return TruthTable.from_function(k, lambda *b: all(b))


def tt_or(k: int) -> TruthTable:
    return TruthTable.from_function(k, lambda *b: any(b))


def tt_xor(k: int) -> TruthTable:
    return TruthTable.from_function(k, lambda *b: sum(b) & 1)


def tt_mux() -> TruthTable:
    """3-input mux: inputs (sel, a, b) -> a if sel else b."""
    return TruthTable.from_function(3, lambda sel, a, b: a if sel else b)


def tt_const(arity: int, value: int) -> TruthTable:
    bits = ((1 << (1 << arity)) - 1) if value else 0
    return TruthTable.from_bits(arity, bits)


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
        if not isinstance(net, (int, np.integer)) or not 0 <= net < self.net_count:
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
        inputs = tuple(int(n) for n in inputs)
        if len(inputs) > 6:
            raise NetlistError(f"LUT supports at most 6 inputs, got {len(inputs)}")
        if len(inputs) != table.arity:
            raise NetlistError(
                f"LUT input count {len(inputs)} does not match table arity {table.arity}"
            )
        for net in inputs:
            self._require_net(net, "LUT input")
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

    def driver_of(self, net: NetId) -> tuple:
        self._require_net(net, "driver query")
        return self._drivers[net]

    def name_of(self, net: NetId) -> str:
        kind = self._drivers[net][0]
        if kind == "input":
            return self._drivers[net][1]
        if kind == "const":
            return CONST_NAMES[self._drivers[net][1]]
        for name, n in self.outputs.items():
            if n == net:
                return name
        return f"n{net}"

    def net_names(self) -> tuple[str, ...]:
        return tuple(self.name_of(n) for n in range(self.net_count))

    def infrastructure_nets(self) -> tuple[NetId, ...]:
        """RESET and constant tie-offs: excluded from activity scans."""
        nets = list(self._consts.values())
        if RESET_NAME in self.inputs:
            nets.append(self.inputs[RESET_NAME])
        return tuple(sorted(nets))

    # -- evaluation order -----------------------------------------------------

    def topo_order(self) -> list[int]:
        """Indices of LUT cells in dependency order.

        An order exists iff the LUT-only subgraph is acyclic; flip-flops
        break loops because their outputs are state, not combinational.
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
        ready = [i for i in lut_cells if indeg[i] == 0]
        order: list[int] = []
        while ready:
            ci = ready.pop()
            order.append(ci)
            for dep in dependents[ci]:
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != len(lut_cells):
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
        return order

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
        outputs: list[tuple[str, int]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            try:
                if tag == "IN":
                    records[int(parts[2])] = ("IN", parts[1])
                elif tag == "CONST":
                    records[int(parts[1])] = ("CONST", int(parts[2]))
                elif tag == "LUT":
                    out = int(parts[1])
                    bits = int(parts[2], 16)
                    ins = tuple(int(p) for p in parts[3:])
                    records[out] = ("LUT", bits, ins)
                elif tag in ("FFS", "FFR"):
                    q, d, ce, sr = (int(p) for p in parts[1:5])
                    records[q] = ("FF", FfKind(tag), d, ce, sr)
                elif tag == "OUT":
                    outputs.append((parts[1], int(parts[2])))
                else:
                    raise NetlistError(f"unknown record {tag!r} on line {lineno}")
            except (IndexError, ValueError) as exc:
                if isinstance(exc, NetlistError):
                    raise
                raise NetlistError(f"malformed record on line {lineno}: {raw!r}") from None

        nl = cls()
        deferred: list[tuple[int, int]] = []
        for net in range(len(records)):
            if net not in records:
                raise NetlistError(f"net {net} has no driver record")
            rec = records[net]
            if rec[0] == "IN":
                got = nl.add_input(rec[1])
            elif rec[0] == "CONST":
                got = nl.const(rec[1])
            elif rec[0] == "LUT":
                got = nl.add_lut(rec[2], TruthTable(rec[1], len(rec[2])))
            else:
                _, kind, d, ce, sr = rec
                # d may reference a later net (a closed register loop)
                got = nl.add_ff(kind, None, ce, sr)
                deferred.append((got, d))
            if got != net:
                raise NetlistError(f"net numbering mismatch at {net}")
        for q, d in deferred:
            nl.set_ff_d(q, d)
        for name, net in outputs:
            nl.mark_output(name, net)
        return nl

    # -- compilation for the simulator ---------------------------------------

    def _compile(self) -> "_Compiled":
        if self._compiled is not None and self._compiled[0] == self._version:
            return self._compiled[1]
        for cell in self.cells:
            if isinstance(cell, FlipFlop) and cell.d is None:
                raise NetlistError(f"FF q={cell.q} has an unwired d pin")
        order = self.topo_order()
        luts = [self.cells[i] for i in order]
        ffs = [c for c in self.cells if isinstance(c, FlipFlop)]

        n_lut = len(luts)
        lut_out = np.zeros(n_lut, np.int64)
        lut_nin = np.zeros(n_lut, np.int64)
        lut_ins = np.zeros((n_lut, 6), np.int64)
        lut_tab = np.zeros(n_lut, np.uint64)
        for i, lut in enumerate(luts):
            lut_out[i] = lut.out
            lut_nin[i] = len(lut.inputs)
            lut_ins[i, : len(lut.inputs)] = lut.inputs
            lut_tab[i] = np.uint64(lut.table.bits)

        n_ff = len(ffs)
        ff_q = np.zeros(n_ff, np.int64)
        ff_d = np.zeros(n_ff, np.int64)
        ff_ce = np.zeros(n_ff, np.int64)
        ff_sr = np.zeros(n_ff, np.int64)
        ff_set = np.zeros(n_ff, np.uint8)
        for i, ff in enumerate(ffs):
            ff_q[i] = ff.q
            ff_d[i] = ff.d
            ff_ce[i] = ff.ce
            ff_sr[i] = ff.sr
            ff_set[i] = 1 if ff.kind is FfKind.SET else 0

        input_names = tuple(self.inputs)
        in_nets = np.array([self.inputs[n] for n in input_names], np.int64)
        const_nets = np.array(sorted(self._consts.values()), np.int64)
        const_vals = np.array(
            [v for v, n in sorted(self._consts.items(), key=lambda kv: kv[1])], np.uint8
        )
        compiled = _Compiled(
            n_nets=self.net_count,
            input_names=input_names,
            in_nets=in_nets,
            const_nets=const_nets,
            const_vals=const_vals,
            lut_out=lut_out,
            lut_nin=lut_nin,
            lut_ins=lut_ins,
            lut_tab=lut_tab,
            ff_q=ff_q,
            ff_d=ff_d,
            ff_ce=ff_ce,
            ff_sr=ff_sr,
            ff_set=ff_set,
            names=self.net_names(),
        )
        self._compiled = (self._version, compiled)
        return compiled


@dataclass(frozen=True)
class _Compiled:
    n_nets: int
    input_names: tuple[str, ...]
    in_nets: np.ndarray
    const_nets: np.ndarray
    const_vals: np.ndarray
    lut_out: np.ndarray
    lut_nin: np.ndarray
    lut_ins: np.ndarray
    lut_tab: np.ndarray
    ff_q: np.ndarray
    ff_d: np.ndarray
    ff_ce: np.ndarray
    ff_sr: np.ndarray
    ff_set: np.ndarray
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

    def get(self, name: str) -> np.ndarray:
        return self.waves[name]


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

    def index_of(self, name: str) -> NetId:
        try:
            return self.names.index(name)
        except ValueError:
            raise NetlistError(f"trace has no net named {name!r}") from None

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.names) + "\n")
            for row in self.values:
                fh.write(",".join("1" if v else "0" for v in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read a trace written by :meth:`to_csv`.

        Every row must have one 0/1 cell per header name; otherwise a
        :class:`NetlistError` names the first offending line.
        """
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            names = tuple(header.split(","))
            try:
                rows = [
                    np.array(line.rstrip("\n").split(","), dtype=np.uint8)
                    for line in fh
                    if line.strip()
                ]
                values = np.vstack(rows) if rows else np.zeros((0, len(names)), np.uint8)
            except (ValueError, OverflowError):
                values = None
        if values is None or values.shape[1] != len(names) or (values.size and values.max() > 1):
            raise NetlistError(_csv_row_error(path, len(names)))
        values.setflags(write=False)
        return cls(values=values, names=names)


def _csv_row_error(path, width: int) -> str:
    """Name the first trace CSV row that :meth:`Trace.from_csv` rejects."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 or not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            try:
                ok = len(cells) == width and np.array(cells, dtype=np.uint8).max() <= 1
            except (ValueError, OverflowError):
                ok = False
            if not ok:
                return f"{path}: line {lineno} is not {width} comma-separated 0/1 cells"
    return f"{path}: malformed trace rows"


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@njit(cache=True)
def _run_kernel(
    n_cycles,
    in_nets,
    in_waves,
    const_nets,
    const_vals,
    lut_out,
    lut_nin,
    lut_ins,
    lut_tab,
    ff_q,
    ff_d,
    ff_ce,
    ff_sr,
    ff_set,
    values,
):  # pragma: no cover - exercised via simulate()
    n_ff = ff_q.shape[0]
    state = np.zeros(n_ff, np.uint8)
    one = np.uint64(1)
    for t in range(n_cycles):
        for i in range(in_nets.shape[0]):
            values[t, in_nets[i]] = in_waves[i, t]
        for i in range(const_nets.shape[0]):
            values[t, const_nets[i]] = const_vals[i]
        for f in range(n_ff):
            values[t, ff_q[f]] = state[f]
        for l in range(lut_out.shape[0]):
            idx = np.uint64(0)
            for b in range(lut_nin[l]):
                idx |= np.uint64(values[t, lut_ins[l, b]]) << np.uint64(b)
            values[t, lut_out[l]] = np.uint8((lut_tab[l] >> idx) & one)
        for f in range(n_ff):
            if values[t, ff_sr[f]] == 1:
                state[f] = ff_set[f]
            elif values[t, ff_ce[f]] == 1:
                state[f] = values[t, ff_d[f]]


def simulate(netlist: Netlist, stimulus: Stimulus, n_cycles: int) -> Trace:
    """Run the netlist for ``n_cycles`` rising edges.

    Per cycle: apply inputs, evaluate LUTs in topological order against
    the current flip-flop outputs, record every net, then update all
    flip-flops simultaneously.  Deterministic; all flip-flops hold 0
    before the first edge, which is why generated designs drive RESET
    through cycle 0.
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
    if comp.input_names:
        in_waves = np.stack([stimulus.waves[n][:n_cycles] for n in comp.input_names])
    else:
        in_waves = np.zeros((0, n_cycles), np.uint8)
    values = np.zeros((n_cycles, comp.n_nets), np.uint8)
    _run_kernel(
        n_cycles,
        comp.in_nets,
        in_waves,
        comp.const_nets,
        comp.const_vals,
        comp.lut_out,
        comp.lut_nin,
        comp.lut_ins,
        comp.lut_tab,
        comp.ff_q,
        comp.ff_d,
        comp.ff_ce,
        comp.ff_sr,
        comp.ff_set,
        values,
    )
    values.setflags(write=False)
    return Trace(values=values, names=comp.names)
