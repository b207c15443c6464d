"""Netlist data model for FPGA-style primitives: truth tables, the netlist
and its text form, stimuli and traces with their CSV form.

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

A netlist under construction is single-owner.  ``simulate``, the
cycle-accurate simulator of :mod:`fmlab.kernel`, does not mutate the
netlist and may run concurrently for different stimuli; traces are
immutable after creation.
"""

from __future__ import annotations

import enum
import io
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

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


def _check_name(role: str, name: str) -> None:
    # the text form splits its fields on whitespace, a trace CSV header on commas
    if not name or any(ch.isspace() or ch == "," for ch in name):
        raise NetlistError(f"{role} name {name!r} is empty or holds whitespace or a comma")


def _integer_type(kind: type) -> bool:
    """Whether values of ``kind`` may index nets and cycles: a Python or
    numpy integer type, not bool."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def _require_int(value, lo, hi, error: Callable[[str], Exception], message: str, *context) -> int:
    """The one bounds rule for net ids, cycles, windows, periods and lengths:
    ``value`` as a Python int if it is an integer (see :func:`_integer_type`)
    with lo <= value < hi (either may be infinite), else raise
    ``error(message.format(repr(value), *context))``."""
    # a Python int skips the subclass test: builders check every pin they wire
    if (type(value) is int or _integer_type(type(value))) and lo <= value < hi:
        return int(value)
    raise error(message.format(repr(value), *context))


def _require_window(window: tuple[int, int], cycles: int, error: Callable[[str], Exception]) -> tuple[int, int]:
    """The window's bounds by :func:`_require_int`: 0 <= start < stop <= cycles."""
    start, stop = window
    message = "empty or out-of-range window {1}"
    start = _require_int(start, 0, cycles, error, message, window)
    return start, _require_int(stop, start + 1, cycles + 1, error, message, window)


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
    _require_int(arity, 1, 7, NetlistError, "table arity must be in [1, 6], got {}")


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
        """Build from a 2**arity-entry table (low entry = all inputs 0).

        The arity is checked once, here; the replicated table then holds
        every condition of ``__post_init__``, which is not run again.
        """
        _check_arity(arity)
        table = object.__new__(cls)
        object.__setattr__(table, "bits", _replicate(bits, arity))
        object.__setattr__(table, "arity", arity)
        return table

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
    _require_int(value, 0, 1 << width, NetlistError, "value {0} does not fit in {1} bits", width)
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
        self._version = 0
        self._compiled: tuple[int, "_Compiled"] | None = None

    # -- net allocation -----------------------------------------------------

    @property
    def net_count(self) -> int:
        return len(self._drivers)

    def _alloc(self, driver: tuple) -> NetId:
        self._drivers.append(driver)
        return len(self._drivers) - 1

    def _touch(self) -> None:
        self._version += 1

    # -- construction ---------------------------------------------------------

    def add_input(self, name: str) -> NetId:
        _check_name("input", name)
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
            _require_int(net, 0, len(self._drivers), NetlistError, "LUT input references undriven net {}")
        inputs = tuple(map(int, inputs))
        self._touch()
        out = self._alloc(("lut", len(self.cells)))
        self.cells.append(Lut(out=out, inputs=inputs, table=table))
        return out

    def add_ff(self, kind: FfKind, d: NetId | None, ce: NetId, sr: NetId) -> NetId:
        count = len(self._drivers)
        d = None if d is None else _require_int(d, 0, count, NetlistError, "FF d references undriven net {}")
        ce = _require_int(ce, 0, count, NetlistError, "FF ce references undriven net {}")
        sr = _require_int(sr, 0, count, NetlistError, "FF sr references undriven net {}")
        self._touch()
        q = self._alloc(("ff", len(self.cells)))
        self.cells.append(FlipFlop(kind=kind, q=q, d=d, ce=ce, sr=sr))
        return q

    def set_ff_d(self, q: NetId, d: NetId) -> None:
        """Close a sequential loop by wiring a deferred ``d`` pin."""
        ff = self.ff(q)
        if ff.d is not None:
            raise NetlistError(f"FF q={q} already has its d pin wired")
        _require_int(d, 0, len(self._drivers), NetlistError, "FF d references undriven net {}")
        self._touch()
        ff.d = int(d)

    def set_lut_input(self, out: NetId, position: int, net: NetId) -> None:
        lut = self.lut(out)
        _require_int(position, 0, len(lut.inputs), NetlistError, "LUT {1} has no input position {0}", out)
        _require_int(net, 0, len(self._drivers), NetlistError, "LUT input references undriven net {}")
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
        _check_name("output", name)
        if name in self.outputs:
            raise NetlistError(f"duplicate output name {name!r}")
        _require_int(net, 0, len(self._drivers), NetlistError, "output references undriven net {}")
        self._touch()
        self.outputs[name] = int(net)

    # -- lookup ---------------------------------------------------------------

    def _cell(self, net: NetId, kind: str, message: str) -> Cell:
        _require_int(net, 0, len(self._drivers), NetlistError, message)
        driver, index = self._drivers[net]
        if driver != kind:
            raise NetlistError(message.format(repr(net)))
        return self.cells[index]

    def lut(self, out: NetId) -> Lut:
        return self._cell(out, "lut", "net {} is not a LUT output")

    def ff(self, q: NetId) -> FlipFlop:
        return self._cell(q, "ff", "net {} is not a flip-flop output")

    def name_of(self, net: NetId) -> str:
        _require_int(net, 0, len(self._drivers), NetlistError, "net {} is not a net of this netlist")
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

    def _compile(self) -> _Compiled:
        if self._compiled is None or self._compiled[0] != self._version:
            self._compiled = (self._version, plan(self))
        return self._compiled[1]


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
        n_cycles = _require_int(n_cycles, 1, math.inf, NetlistError, "n_cycles {} must be a positive integer")
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
        _require_int(net, 0, self.values.shape[1], NetlistError, "trace has no net {}")
        return self.values[:, net]

    def value(self, net: NetId, cycle: int) -> int:
        wave = self.wave(net)
        _require_int(cycle, 0, len(wave), NetlistError, "trace has no cycle {}")
        return int(wave[cycle])

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
        and converted in one pass over its bytes, by
        :func:`_parse_csv_buffer`.  Any other goes through
        :func:`_parse_csv_lines`, which also accepts CRLF, blank lines, a
        missing final newline and any cell numpy reads as 0 or 1, and
        raises :class:`NetlistError` naming the first line it cannot read.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        names, values = _parse_csv_buffer(data) or _parse_csv_lines(path, data)
        values.setflags(write=False)
        return cls(values=values, names=names)


def _parse_csv_buffer(data: bytes) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Names and values of trace CSV ``data`` laid out exactly as
    :meth:`Trace.to_csv` writes it (the header may end in CRLF), or None
    for any other layout.

    Each cell and the separator after it are read as one little-endian
    uint16, digit | separator << 8, and XORed with the same pair of an
    all-zero row: the body is in that layout iff every result is 0 or 1,
    and the results are the cells' values.
    """
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
    body = memoryview(data)[end + 1 :]
    if not n:  # a trace with no nets: one empty line per cycle
        rows = data.count(b"\n", end + 1)
        return (names, np.zeros((rows, 0), np.uint8)) if rows == len(body) else None
    if len(body) % (2 * n):
        return None
    cells = np.frombuffer(body, "<u2").reshape(-1, n)
    template = np.full(n, ord("0") | ord(",") << 8, "<u2")
    template[-1] = ord("0") | ord("\n") << 8
    values = np.empty(cells.shape, np.uint8)
    # blocks of about 64 KiB of text, as to_csv writes, so no buffer grows with the trace
    step = max(1, (32 << 10) // n)
    xor = np.empty((min(step, len(cells)), n), "<u2")
    for start in range(0, len(cells), step):
        block = cells[start : start + step]
        out = xor[: len(block)]
        np.bitwise_xor(block, template, out=out)
        if out.max() > 1:
            return None
        values[start : start + step] = out
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


# the kernel reads the model above, so it is imported once that is defined
from .kernel import plan, simulate  # noqa: E402
