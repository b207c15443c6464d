"""Trigger circuitry, power-concealment replication, and payload machinery.

The trigger watches an abstract opcode bus for four specific values
issued on consecutive cycles.  Comparators followed by delay chains of
3, 2, 1 and 0 registers raise four event lines A..D simultaneously
exactly when the sequence completes, and a locking FM gate captures the
conjunction -- but only when the completing cycle lands on a SYNC
instant, which is what makes accidental activation rare.  An attacker
who can read SYNC aligns the sequence deliberately; one who cannot
replays it at random offsets until one lands.

Power concealment replicates a carrier register into a quad:

    a  the original FM signal
    b  a register carrying the complementary FM value (dual LUT)
    c  the stage-wise complement of a
    d  the stage-wise complement of b

Per clock cycle the quad's 4L stage nets then show a constant number of
0->1 and 1->0 transitions and a constant count of ones, making both
dynamic and static consumption independent of the carried data.  After
activation the replicas become the payload: mode 1 silences b, c and d
so the carrier's data-dependent toggling shows through; mode 2
additionally retunes b to mirror a, doubling the dependence.  Disabled
replicas are stopped by gating their clock-enable pins, so the netlist
topology is identical in every mode -- only LUT configuration differs.

The payload transmitter replays a secret bit string through the carrier
at one bit per SYNC period, driven by a one-hot ring counter indexing
the secret held in LUT tables.  Everything starts only once the trigger
has decoded 1; before that the carrier idles at FM 0, concealed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

import numpy as np

from .netcore import (
    INPUT_BITS,
    FfKind,
    NetId,
    Netlist,
    Stimulus,
    TruthTable,
    tt_and,
    tt_const,
    tt_equals,
    tt_not,
    _require_int,
)
from .fmlogic import (
    COMBINER_DATA_POS,
    COMBINER_FB_POS,
    FmSignal,
    _check_length,
    build_fm_register,
    make_combiner_table,
)


class TriggerError(ValueError):
    """Invalid trigger construction or stimulus request."""


class PayloadError(ValueError):
    """Invalid concealment/payload construction or mode change."""


@dataclass(frozen=True)
class TriggerSpec:
    """The four opcodes whose in-order appearance arms the trigger."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    opcode_width: int

    def __post_init__(self):
        _require_int(self.opcode_width, 1, 17, TriggerError, "opcode width must be in [1, 16], got {}")
        ops = self.opcodes
        if len(set(ops)) != 4:
            raise TriggerError(f"trigger opcodes must be distinct, got {ops}")
        top = 1 << self.opcode_width
        bad = [o for o in ops if not 0 <= o < top]
        if bad:
            raise TriggerError(f"opcodes {bad} do not fit in {self.opcode_width} bits")

    @property
    def opcodes(self) -> tuple[int, int, int, int]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def filler(self) -> int:
        """A benign opcode used to pad streams (never part of the sequence)."""
        for v in range(1 << self.opcode_width):
            if v not in self.opcodes:
                return v
        return self.alpha  # width-2 bus: every value is a trigger opcode


@dataclass(frozen=True)
class Aligned:
    """Issue the sequence so its completing cycle lands on a SYNC instant."""


@dataclass(frozen=True)
class RandomRetry:
    """Issue the sequence ``attempts`` times at seeded random offsets."""

    attempts: int
    seed: int = 0

    def __post_init__(self):
        _require_int(self.attempts, 1, math.inf, TriggerError, "RandomRetry needs at least one attempt, got {}")


AlignmentPolicy = Aligned | RandomRetry


class PayloadMode(enum.Enum):
    CONCEALED = "concealed"
    MODE1 = "mode1"
    MODE2 = "mode2"


# ---------------------------------------------------------------------------
# Event synchronization and the trigger
# ---------------------------------------------------------------------------


def add_opcode_bus(netlist: Netlist, width: int) -> tuple[NetId, ...]:
    """Input ports OP0..OP{width-1}; bit j of the opcode rides OP{j}."""
    return tuple(netlist.add_input(f"OP{j}") for j in range(width))


def _match_comparator(netlist: Netlist, bus: Sequence[NetId], value: int) -> NetId:
    """Single LUT for buses up to 6 bits, a two-level tree beyond."""
    bus = tuple(bus)
    if len(bus) <= 6:
        return netlist.add_lut(bus, tt_equals(len(bus), value))
    partials = []
    for lo in range(0, len(bus), 6):
        chunk = bus[lo : lo + 6]
        chunk_val = (value >> lo) & ((1 << len(chunk)) - 1)
        partials.append(netlist.add_lut(chunk, tt_equals(len(chunk), chunk_val)))
    if len(partials) > 6:
        raise TriggerError(f"opcode bus of {len(bus)} bits exceeds the two-level budget")
    return netlist.add_lut(partials, tt_and(len(partials)))


def _delay_chain(netlist: Netlist, net: NetId, n: int) -> NetId:
    reset = netlist.reset()
    enable = netlist.const(1)
    for _ in range(n):
        net = netlist.add_ff(FfKind.RESET, net, enable, reset)
    return net


def build_event_sync(
    netlist: Netlist, opcode_bus: Sequence[NetId], spec: TriggerSpec
) -> tuple[NetId, NetId, NetId, NetId]:
    """Event lines A..D, simultaneously 1 for one cycle when the four
    opcodes appear in order on consecutive cycles.

    Comparator hits for the first, second and third opcode are delayed
    by 3, 2 and 1 registers; the fourth is undelayed, so the coincidence
    cycle is the cycle the last opcode sits on the bus.
    """
    if len(opcode_bus) != spec.opcode_width:
        raise TriggerError(
            f"bus width {len(opcode_bus)} does not match spec width {spec.opcode_width}"
        )
    lines = []
    for opcode, delay in zip(spec.opcodes, (3, 2, 1, 0)):
        hit = _match_comparator(netlist, opcode_bus, opcode)
        lines.append(_delay_chain(netlist, hit, delay))
    return tuple(lines)


def build_trigger(
    netlist: Netlist,
    a: NetId,
    b: NetId,
    c: NetId,
    d: NetId,
    sync: FmSignal,
) -> FmSignal:
    """Capture the A.B.C.D conjunction into the FM domain.

    The four event lines feed the insert LUT directly, which samples
    their conjunction at SYNC instants; together with SYNC and the
    feedback tap this fills all six LUT pins.  The captured 1 is ORed
    with the register's own data tap and therefore re-inserts itself at
    every later SYNC instant: the trigger locks.
    """
    table = make_combiner_table(4, lambda f, ev: (ev[0] & ev[1] & ev[2] & ev[3]) | f)
    return build_fm_register(netlist, sync, table, (a, b, c, d))


def decode_level(netlist: Netlist, fm: FmSignal, sync: FmSignal) -> NetId:
    """FM-to-standard decoder: a register sampling the data tap at SYNC.

    The output holds the decoded value steadily between SYNC instants.
    Note that for a never-activated trigger this net is constant 0, so
    payload wiring hanging off it is inherently visible to activity
    scans; the FM trigger itself is not.
    """
    return netlist.add_ff(FfKind.RESET, fm.data_tap, sync.data_tap, netlist.reset())


# ---------------------------------------------------------------------------
# Opcode stimulus
# ---------------------------------------------------------------------------

RETRY_GAP = 8  # filler cycles between consecutive RandomRetry slots


def random_program(length: int, alphabet_size: int, seed: int) -> list[int]:
    """A background opcode stream drawn uniformly from [0, alphabet_size)."""
    length = _require_int(length, 1, math.inf, TriggerError, "program length must be a positive integer, got {}")
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, alphabet_size, size=length)]


def scrub_sequences(program: Sequence[int], spec: TriggerSpec) -> list[int]:
    """Break any accidental occurrence of the trigger sequence.

    Wherever the four opcodes appear consecutively the last one is
    replaced with the filler, so only deliberately inserted sequences
    can activate.  Returns a modified copy.
    """
    program = list(program)
    ops = spec.opcodes
    filler = spec.filler()
    for i in range(len(program) - 3):
        if tuple(program[i : i + 4]) == ops:
            program[i + 3] = filler
    return program


def program_stimulus(
    program: Sequence[int], spec: TriggerSpec, total_cycles: int | None = None
) -> Stimulus:
    """Bus waveforms for a program as-is: :func:`opcode_stimulus` placing
    no trigger sequence.  Its ``meta`` is empty."""
    stim = opcode_stimulus(program, spec, None, 0, total_cycles)
    stim.meta = {}
    return stim


def opcode_stimulus(
    program: Sequence[int],
    spec: TriggerSpec,
    policy: AlignmentPolicy | None,
    L: int,
    total_cycles: int | None = None,
) -> Stimulus:
    """Bus waveforms (ports OP*) plus RESET for a program with trigger
    sequences placed per the alignment policy.

    Cycle 0 carries the filler opcode (it falls inside reset); the
    program occupies cycles 1..len(program), each placed sequence
    overwrites the four cycles it takes, and any tail is filler-padded.
    ``Aligned`` places one sequence so its completing cycle is a SYNC
    instant.  ``RandomRetry`` places ``attempts`` sequences in disjoint
    slots at offsets drawn uniformly over one period, so each attempt
    aligns with probability 1/L independently; ``None`` places none.
    A policy needs the designs' ring length: ``L`` even and at least 4.
    Placement metadata is recorded on the returned stimulus (``meta``).  The
    default horizon ends L cycles after the last delta, where an aligned one decodes.
    """
    ops = np.asarray(program, np.int64)
    if not ops.size:
        raise TriggerError("program must be nonempty")
    bad = ops[ops >> spec.opcode_width != 0]
    if bad.size:
        raise TriggerError(f"program opcodes {bad[:4].tolist()} do not fit the bus")
    # delta_cycles is filled in below; its key stays second in the report's stimulus block
    meta: dict = {"policy": "None" if policy is None else type(policy).__name__, "delta_cycles": []}
    starts: list[int] = []
    if policy is not None:
        _check_length(L, TriggerError)
    if isinstance(policy, Aligned):
        starts = [latest_delta(policy, L) - 3]
    elif isinstance(policy, RandomRetry):
        offsets = np.random.default_rng(policy.seed).integers(0, L, size=policy.attempts)
        starts = [1 + i * (L + RETRY_GAP) + offset for i, offset in enumerate(offsets.tolist())]
        meta["seed"] = policy.seed
    elif policy is not None:
        raise TriggerError(f"unknown alignment policy {policy!r}")
    meta["delta_cycles"] = deltas = [start + 3 for start in starts]
    n = 1 + max([len(ops), *deltas])  # the cycles the program and the sequences take
    if total_cycles is not None:
        shorter = "total_cycles {0} shorter than program ({1}) or not an integer"
        n = _require_int(total_cycles, n, math.inf, TriggerError, shorter, n)
    elif deltas:
        n = max(n, max(deltas) + L + 1)
    opcodes = np.full(n, spec.filler(), np.int64)
    opcodes[1 : 1 + len(ops)] = ops
    for start in starts:
        opcodes[start : start + 4] = spec.opcodes
    waves = {"RESET": (np.arange(n) == 0).astype(np.uint8)}
    for j in range(spec.opcode_width):
        waves[f"OP{j}"] = ((opcodes >> j) & 1).astype(np.uint8)
    stim = Stimulus(waves)
    stim.meta = meta
    return stim


def latest_delta(policy: AlignmentPolicy | None, L: int) -> int:
    """The last cycle ``opcode_stimulus`` can place a delta on under ``policy`` (0: none)."""
    if isinstance(policy, Aligned):
        return L + 1  # first SYNC instant with room for the 3-cycle lead-in
    if isinstance(policy, RandomRetry):
        return (policy.attempts - 1) * (L + RETRY_GAP) + L + 3
    return 0


# ---------------------------------------------------------------------------
# Power concealment
# ---------------------------------------------------------------------------


def _dual_table(table: TruthTable) -> TruthTable:
    """Complement-producing twin of an insert table.

    Flipping the feedback bit and inverting the output turns the LUT of
    register x into the LUT of a register tracking NOT x stage-for-stage
    (and, applied to a marker ring, into the LUT of the dual FM value).
    Applying it twice gives back the original function.  Flipping an
    input swaps the table's halves where that input is 1 and 0.
    """
    fb, shift = INPUT_BITS[COMBINER_FB_POS], 1 << COMBINER_FB_POS
    flipped = (table.bits & fb) >> shift | (table.bits & ~fb) << shift
    return TruthTable.from_bits(table.arity, ~flipped)


def _armed_b_table(a_table: TruthTable, mirror: bool) -> TruthTable:
    """Dual LUT with a trailing activation input.

    While ``mirror`` is configured and the activation level is high the
    sync branch reproduces the original function instead of its
    complement (payload mode 2); otherwise the activation input is
    ignored.
    """
    dual = _dual_table(a_table).bits
    active = INPUT_BITS[a_table.arity]
    bits = active & a_table.bits | ~active & dual if mirror else dual
    return TruthTable.from_bits(a_table.arity + 1, bits)


@dataclass(frozen=True)
class ConcealedQuad:
    """Replication quad making quad-level power independent of the data.

    ``stage_nets`` covers the 4L register outputs the balance theorem is
    stated over.  Armed quads (built with a trigger) carry the gating
    circuitry for the payload modes; mode selection rewrites LUT tables
    only, never topology, so every arming net is read from the wiring.
    """

    a: FmSignal
    b: FmSignal
    c: FmSignal
    d: FmSignal
    netlist: Netlist

    @property
    def active(self) -> NetId | None:
        """The decoded trigger level: the input an armed b's combiner
        reads after the carrier's data (None on an unarmed quad)."""
        b_inputs = self.netlist.lut(self.b.combiner_out).inputs
        armed = len(b_inputs) > len(self.netlist.lut(self.a.combiner_out).inputs)
        return b_inputs[-1] if armed else None

    @property
    def armed(self) -> bool:
        return self.active is not None

    def stage_nets(self) -> tuple[NetId, ...]:
        return self.a.stages + self.b.stages + self.c.stages + self.d.stages

    def retarget_data(self, net: NetId) -> None:
        """Repoint every combiner's single data slot at a new driver."""
        if len(self.netlist.lut(self.a.combiner_out).inputs[COMBINER_DATA_POS:]) != 1:
            raise PayloadError("retarget requires a single-data-input carrier")
        for reg in (self.a, self.b, self.c, self.d):
            self.netlist.set_lut_input(reg.combiner_out, COMBINER_DATA_POS, net)


def build_concealed(
    netlist: Netlist,
    fm: FmSignal,
    sync: FmSignal,
    trigger: FmSignal | None = None,
) -> ConcealedQuad:
    """Replicate ``fm`` into a concealment quad.

    b gets the dual LUT on a marker ring (complementary FM value); c and
    d get kind-flipped rings tracking a and b stage-for-stage.  With a
    ``trigger`` (on rings of SYNC's length) the quad is armed: b, c and
    d receive clock-enable gates and b's LUT a trailing activation
    input, so the payload modes can engage at activation time.  Arming
    costs one LUT pin, capping the carrier's data arity at 3.
    """
    if fm.combiner_out is None:
        raise PayloadError("carrier must have a combining LUT (converter or gate)")
    if fm.L != sync.L:
        raise PayloadError(f"mixed CSR lengths: carrier L={fm.L}, sync L={sync.L}")
    a_lut = netlist.lut(fm.combiner_out)
    data = a_lut.inputs[COMBINER_DATA_POS:]
    a_table = a_lut.table
    dual = _dual_table(a_table)
    enable_cd = None
    if trigger is not None:
        if len(data) > 3:
            raise PayloadError("armed quads support at most 3 data inputs (one pin gates the payload)")
        if trigger.L != sync.L:
            raise PayloadError(f"mixed CSR lengths: trigger L={trigger.L}, sync L={sync.L}")
        active = decode_level(netlist, trigger, sync)
        enable_b = netlist.add_lut((active,), tt_const(1, 1))
        enable_cd = netlist.add_lut((active,), tt_const(1, 1))
        b_table = _armed_b_table(a_table, mirror=False)
        b = build_fm_register(netlist, sync, b_table, (*data, active), ce=enable_b)
    else:
        b = build_fm_register(netlist, sync, dual, data)
    flipped = range(1, fm.L)  # complement rings reset to ~marker
    c = build_fm_register(netlist, sync, dual, data, flipped, ce=enable_cd)
    d = build_fm_register(netlist, sync, a_table, data, flipped, ce=enable_cd)
    return ConcealedQuad(a=fm, b=b, c=c, d=d, netlist=netlist)


def set_payload_mode(quad: ConcealedQuad, mode: PayloadMode) -> None:
    """Select what the replicas do once the trigger activates.

    Mode 1 freezes b, c and d (clock enables drop when the activation
    level rises); mode 2 freezes c and d and retunes b's LUT to mirror
    the carrier.  Before activation every mode behaves exactly like
    CONCEALED because all gating is conditioned on the decoded trigger.
    Requesting a payload mode on an unarmed quad is rejected.
    """
    if mode is not PayloadMode.CONCEALED and not quad.armed:
        raise PayloadError("payload modes require a quad armed with a trigger")
    nl = quad.netlist
    if quad.armed:
        hold = tt_const(1, 1)
        drop = tt_not()
        # every stage of a ring shares one enable; c and d share theirs
        nl.set_lut_table(nl.ff(quad.b.stages[0]).ce, drop if mode is PayloadMode.MODE1 else hold)
        nl.set_lut_table(nl.ff(quad.c.stages[0]).ce, hold if mode is PayloadMode.CONCEALED else drop)
        a_table = nl.lut(quad.a.combiner_out).table
        nl.set_lut_table(
            quad.b.combiner_out,
            _armed_b_table(a_table, mirror=(mode is PayloadMode.MODE2)),
        )


# ---------------------------------------------------------------------------
# Payload transmitter and the baseline for detector contrast
# ---------------------------------------------------------------------------


def _select_level(netlist: Netlist, level: list[tuple[NetId, str]]) -> list[tuple[NetId, str]]:
    """One level of the transmitter's OR tree: per 6 lines, a LUT that is
    the OR of the lines whose bit is '1'.  Its output's bit is '1'."""
    grouped = []
    for lo in range(0, len(level), 6):
        chunk = level[lo : lo + 6]
        ones = reduce(or_, (INPUT_BITS[i] for i, (_, bit) in enumerate(chunk) if bit == "1"), 0)
        table = TruthTable.from_bits(len(chunk), ones)
        grouped.append((netlist.add_lut([net for net, _ in chunk], table), "1"))
    return grouped


def build_payload_transmitter(
    netlist: Netlist,
    secret: str,
    trigger: FmSignal,
    carrier: ConcealedQuad,
    sync: FmSignal,
) -> NetId:
    """Drive the carrier with one secret bit per SYNC period after activation.

    A one-hot ring counter, advanced at SYNC instants while the trigger
    level is high, walks the secret; the secret itself lives in the
    selection LUT tables.  The transmitter output is forced low until
    activation so the carrier idles at FM 0, concealed.  The secret
    repeats once the ring wraps.  Returns the transmitter output net.
    """
    if not secret or set(secret) - {"0", "1"}:
        raise PayloadError("secret must be a nonempty string of 0/1")
    if sync.L != carrier.a.L:
        raise PayloadError(f"mixed CSR lengths: carrier L={carrier.a.L}, sync L={sync.L}")
    active = carrier.active
    if active is None:
        raise PayloadError("carrier quad must be armed with the trigger")
    if netlist.ff(active).d != trigger.data_tap:  # the pin decode_level wires
        raise PayloadError("carrier quad was armed with a different trigger")
    reset = netlist.reset()

    advance = netlist.add_lut((sync.data_tap, active), tt_and(2))
    n = len(secret)
    ring = [
        netlist.add_ff(FfKind.SET if i == 0 else FfKind.RESET, None, advance, reset)
        for i in range(n)
    ]
    for i in range(n):
        netlist.set_ff_d(ring[i], ring[i - 1])

    # secret held in LUT tables: OR of the one-hot lines at '1' positions
    # (for n = 1, one buffer or constant)
    level = _select_level(netlist, list(zip(ring, secret)))
    while len(level) > 1:
        level = _select_level(netlist, level)
    sel = level[0][0]

    tx = netlist.add_lut((sel, active), tt_and(2))
    carrier.retarget_data(tx)
    return tx


def build_baseline_trojan(netlist: Netlist, opcode_bus: Sequence[NetId], magic: int) -> NetId:
    """A plain condition comparator: idle at 0 until the magic opcode appears.

    Deliberately detectable by unused-circuit scans; kept for contrast
    with the FM constructions.
    """
    return _match_comparator(netlist, opcode_bus, magic)
