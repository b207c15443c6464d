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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .netcore import (
    FfKind,
    NetId,
    Netlist,
    Stimulus,
    TruthTable,
    tt_and,
    tt_buf,
    tt_const,
    tt_equals,
    tt_not,
)
from .fmlogic import (
    COMBINER_DATA_POS,
    COMBINER_FB_POS,
    CsrShape,
    FmSignal,
    FmSync,
    build_fm_register,
    make_combiner_table,
)

__all__ = [
    "TriggerSpec",
    "Aligned",
    "RandomRetry",
    "AlignmentPolicy",
    "PayloadMode",
    "ConcealedQuad",
    "TriggerError",
    "PayloadError",
    "add_opcode_bus",
    "build_event_sync",
    "build_trigger",
    "decode_level",
    "opcode_stimulus",
    "program_stimulus",
    "random_program",
    "scrub_sequences",
    "build_concealed",
    "set_payload_mode",
    "build_payload_transmitter",
    "build_baseline_trojan",
]


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
        if not 1 <= self.opcode_width <= 16:
            raise TriggerError(f"opcode width must be in [1, 16], got {self.opcode_width}")
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
        if self.attempts < 1:
            raise TriggerError("RandomRetry needs at least one attempt")


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
    sync: FmSync,
    locking: bool = True,
) -> FmSignal:
    """Capture the A.B.C.D conjunction into the FM domain.

    The four event lines feed the insert LUT directly, which samples
    their conjunction at SYNC instants; together with SYNC and the
    feedback tap this fills all six LUT pins.  With ``locking`` the
    captured 1 is ORed with the register's own data tap and therefore
    re-inserts itself at every later SYNC instant; without it the
    activation is visible for exactly one rotation (L cycles).
    """
    if locking:
        table = make_combiner_table(4, lambda f, ev: (ev[0] & ev[1] & ev[2] & ev[3]) | f)
    else:
        table = make_combiner_table(4, lambda f, ev: ev[0] & ev[1] & ev[2] & ev[3])
    return build_fm_register(netlist, sync, table, (a, b, c, d))


def decode_level(netlist: Netlist, fm: FmSignal, sync: FmSync) -> NetId:
    """FM-to-standard decoder: a register sampling the data tap at SYNC.

    The output holds the decoded value steadily between SYNC instants.
    Note that for a never-activated trigger this net is constant 0, so
    payload wiring hanging off it is inherently visible to activity
    scans; the FM trigger itself is not.
    """
    return netlist.add_ff(FfKind.RESET, fm.data_tap, sync.tap, netlist.reset())


# ---------------------------------------------------------------------------
# Opcode stimulus
# ---------------------------------------------------------------------------


def random_program(length: int, alphabet_size: int, seed: int) -> list[int]:
    """A background opcode stream drawn uniformly from [0, alphabet_size)."""
    if length < 1:
        raise TriggerError("program length must be positive")
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


def _checked_program(program: Sequence[int], spec: TriggerSpec) -> list[int]:
    program = list(program)
    if not program:
        raise TriggerError("program must be nonempty")
    bad = [o for o in program if not 0 <= o < 1 << spec.opcode_width]
    if bad:
        raise TriggerError(f"program opcodes {bad[:4]} do not fit the bus")
    return program


def program_stimulus(
    program: Sequence[int], spec: TriggerSpec, total_cycles: int | None = None
) -> Stimulus:
    """Bus waveforms for a program as-is (no trigger insertion).

    Cycle 0 carries the filler opcode (it falls inside reset); the
    program occupies cycles 1..len(program); any tail is filler-padded.
    """
    program = _checked_program(program, spec)
    n = 1 + len(program)
    if total_cycles is not None:
        if total_cycles < n:
            raise TriggerError(f"total_cycles {total_cycles} shorter than program ({n})")
        n = total_cycles
    filler = spec.filler()
    opcodes = np.full(n, filler, np.int64)
    opcodes[1 : 1 + len(program)] = program
    waves = {"RESET": np.zeros(n, np.uint8)}
    waves["RESET"][0] = 1
    for j in range(spec.opcode_width):
        waves[f"OP{j}"] = ((opcodes >> j) & 1).astype(np.uint8)
    return Stimulus(waves)


def _insert_sequence(program: list[int], spec: TriggerSpec, start_cycle: int) -> None:
    """Overwrite program slots so alpha..delta occupy start..start+3.

    Cycle t is program index t - 1 (cycle 0 carries filler).
    """
    for i, opcode in enumerate(spec.opcodes):
        program[start_cycle - 1 + i] = opcode


def opcode_stimulus(
    program: Sequence[int],
    spec: TriggerSpec,
    policy: AlignmentPolicy,
    L: int,
    total_cycles: int | None = None,
) -> Stimulus:
    """Bus waveforms (ports OP*) plus RESET for a program with trigger
    sequences placed per the alignment policy.

    ``Aligned`` places one sequence so its completing cycle is a SYNC
    instant.  ``RandomRetry`` places ``attempts`` sequences in disjoint
    slots at offsets drawn uniformly over one period, so each attempt
    aligns with probability 1/L independently.  Placement metadata is
    recorded on the returned stimulus (``meta``).  The default horizon
    ends L cycles after the last delta, where an aligned one decodes.
    """
    program = _checked_program(program, spec)
    filler = spec.filler()
    meta: dict = {"policy": type(policy).__name__, "delta_cycles": []}
    if isinstance(policy, Aligned):
        delta_cycle = L + 1  # first SYNC instant with room for the 3-cycle lead-in
        seq_start = delta_cycle - 3
        _grow(program, delta_cycle, filler)
        _insert_sequence(program, spec, seq_start)
        meta["delta_cycles"].append(delta_cycle)
    elif isinstance(policy, RandomRetry):
        rng = np.random.default_rng(policy.seed)
        stride = L + 8
        for i in range(policy.attempts):
            seq_start = 1 + i * stride + int(rng.integers(0, L))
            _grow(program, seq_start + 3, filler)
            _insert_sequence(program, spec, seq_start)
            meta["delta_cycles"].append(seq_start + 3)
        meta["seed"] = policy.seed
    else:
        raise TriggerError(f"unknown alignment policy {policy!r}")
    if total_cycles is None:
        _grow(program, max(meta["delta_cycles"]) + L, filler)

    stim = program_stimulus(program, spec, total_cycles=total_cycles)
    stim.meta = meta
    return stim


def _grow(program: list[int], last_cycle: int, filler: int) -> None:
    while len(program) < last_cycle:
        program.append(filler)


# ---------------------------------------------------------------------------
# Power concealment
# ---------------------------------------------------------------------------


def _dual_table(table: TruthTable) -> TruthTable:
    """Complement-producing twin of an insert table.

    Flipping the feedback bit and inverting the output turns the LUT of
    register x into the LUT of a register tracking NOT x stage-for-stage
    (and, applied to a marker ring, into the LUT of the dual FM value).
    Applying it twice gives back the original function.
    """
    fb_mask = 1 << COMBINER_FB_POS

    def fn(*bits: int) -> int:
        idx = 0
        for b, v in enumerate(bits):
            idx |= (v & 1) << b
        return 1 - table.value(idx ^ fb_mask)

    return TruthTable.from_function(table.arity, fn)


def _armed_b_table(a_table: TruthTable, mirror: bool) -> TruthTable:
    """Dual LUT with a trailing activation input.

    While ``mirror`` is configured and the activation level is high the
    sync branch reproduces the original function instead of its
    complement (payload mode 2); otherwise the activation input is
    ignored.
    """
    fb_mask = 1 << COMBINER_FB_POS
    arity = a_table.arity + 1

    def fn(*bits: int) -> int:
        active = bits[-1]
        idx = 0
        for b, v in enumerate(bits[:-1]):
            idx |= (v & 1) << b
        if mirror and active:
            return a_table.value(idx)
        return 1 - a_table.value(idx ^ fb_mask)

    return TruthTable.from_function(arity, fn)


@dataclass
class ConcealedQuad:
    """Replication quad making quad-level power independent of the data.

    ``stage_nets`` covers the 4L register outputs the balance theorem is
    stated over.  Armed quads (built with a trigger) carry the gating
    circuitry for the payload modes; mode selection rewrites LUT tables
    only, never topology.
    """

    a: FmSignal
    b: FmSignal
    c: CsrShape
    d: CsrShape
    netlist: Netlist
    trigger: FmSignal | None = None
    active: NetId | None = None
    _enable_b: NetId | None = None
    _enable_cd: NetId | None = None
    _combiners: tuple[NetId, NetId, NetId, NetId] = field(default=())  # a, b, c, d

    @property
    def armed(self) -> bool:
        return self.active is not None

    def stage_nets(self) -> tuple[NetId, ...]:
        return self.a.csr.stages + self.b.csr.stages + self.c.stages + self.d.stages

    def retarget_data(self, net: NetId) -> None:
        """Repoint every combiner's single data slot at a new driver."""
        if len(self.a.data_inputs) != 1:
            raise PayloadError("retarget requires a single-data-input carrier")
        for comb in self._combiners:
            self.netlist.set_lut_input(comb, COMBINER_DATA_POS, net)


def build_concealed(
    netlist: Netlist,
    fm: FmSignal,
    sync: FmSync,
    trigger: FmSignal | None = None,
) -> ConcealedQuad:
    """Replicate ``fm`` into a concealment quad.

    b gets the dual LUT on a marker ring (complementary FM value); c and
    d get kind-flipped rings tracking a and b stage-for-stage.  With a
    ``trigger`` the quad is armed: b, c and d receive clock-enable gates
    and b's LUT a trailing activation input, so the payload modes can
    engage at activation time.  Arming costs one LUT pin, capping the
    carrier's data arity at 3.
    """
    if fm.combiner_out is None:
        raise PayloadError("carrier must have a combining LUT (converter or gate)")
    if fm.L != sync.L:
        raise PayloadError(f"mixed CSR lengths: carrier L={fm.L}, sync L={sync.L}")
    k = len(fm.data_inputs)
    armed = trigger is not None
    if armed and k > 3:
        raise PayloadError("armed quads support at most 3 data inputs (one pin gates the payload)")

    L = fm.L
    a_table = netlist.lut(fm.combiner_out).table
    active = decode_level(netlist, trigger, sync) if armed else None

    enable_b = enable_cd = None
    if armed:
        enable_b = netlist.add_lut((active,), tt_const(1, 1))
        enable_cd = netlist.add_lut((active,), tt_const(1, 1))

    flipped = [s for s in range(1, L + 1) if s != L]  # complement rings reset to ~marker
    dual = _dual_table(a_table)
    if armed:
        b = build_fm_register(
            netlist, sync, _armed_b_table(a_table, mirror=False), (*fm.data_inputs, active), ce=enable_b
        )
    else:
        b = build_fm_register(netlist, sync, dual, fm.data_inputs)
    c = build_fm_register(netlist, sync, dual, fm.data_inputs, flipped, ce=enable_cd)
    d = build_fm_register(netlist, sync, a_table, fm.data_inputs, flipped, ce=enable_cd)

    return ConcealedQuad(
        a=fm,
        b=b,
        c=c.csr,
        d=d.csr,
        netlist=netlist,
        trigger=trigger,
        active=active,
        _enable_b=enable_b,
        _enable_cd=enable_cd,
        _combiners=(fm.combiner_out, b.combiner_out, c.combiner_out, d.combiner_out),
    )


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
        nl.set_lut_table(quad._enable_b, drop if mode is PayloadMode.MODE1 else hold)
        nl.set_lut_table(quad._enable_cd, hold if mode is PayloadMode.CONCEALED else drop)
        a_table = nl.lut(quad._combiners[0]).table
        nl.set_lut_table(
            quad._combiners[1],
            _armed_b_table(a_table, mirror=(mode is PayloadMode.MODE2)),
        )


# ---------------------------------------------------------------------------
# Payload transmitter and the baseline for detector contrast
# ---------------------------------------------------------------------------


def build_payload_transmitter(
    netlist: Netlist,
    secret: str,
    trigger: FmSignal,
    carrier: ConcealedQuad,
    sync: FmSync,
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
    if not carrier.armed:
        raise PayloadError("carrier quad must be armed with the trigger")
    if carrier.trigger != trigger:
        raise PayloadError("carrier quad was armed with a different trigger")
    active = carrier.active
    reset = netlist.reset()

    advance = netlist.add_lut((sync.tap, active), tt_and(2))
    n = len(secret)
    ring = [
        netlist.add_ff(FfKind.SET if i == 0 else FfKind.RESET, None, advance, reset)
        for i in range(n)
    ]
    for i in range(n):
        netlist.set_ff_d(ring[i], ring[i - 1])

    # secret held in LUT tables: OR of the one-hot lines at '1' positions
    level = list(zip(ring, secret))
    while len(level) > 1:
        grouped = []
        for lo in range(0, len(level), 6):
            chunk = level[lo : lo + 6]
            nets = [n for n, _ in chunk]
            table = TruthTable.from_function(
                len(nets), lambda *bits, ch=chunk: int(any(b and ch[i][1] == "1" for i, b in enumerate(bits)))
            )
            grouped.append((netlist.add_lut(nets, table), "1"))
        level = grouped
    sel = level[0][0] if n > 1 else netlist.add_lut(
        (ring[0],), tt_buf() if secret == "1" else tt_const(1, 0)
    )

    tx = netlist.add_lut((sel, active), tt_and(2))
    carrier.retarget_data(tx)
    return tx


def build_baseline_trojan(netlist: Netlist, opcode_bus: Sequence[NetId], magic: int) -> NetId:
    """A plain condition comparator: idle at 0 until the magic opcode appears.

    Deliberately detectable by unused-circuit scans; kept for contrast
    with the FM constructions.
    """
    return _match_comparator(netlist, opcode_bus, magic)
