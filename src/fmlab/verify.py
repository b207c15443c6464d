"""Invariant battery behind ``fmlab verify``: the acceptance spec.

Each check re-derives one of the library's stated guarantees with an
independent oracle (brute-force scan, exhaustive enumeration, analytic
probability, or the reference interpreter) and reports pass/fail.  The
CLI prints one line per check and exits nonzero on any failure; the test
suite runs each check once.  The paper's acceptance criteria live here
and nowhere else, each in the check(s) whose docstring names it:

1. FM encoding and frequency: ``fmlogic-duty-cycles``
2. gate correctness and latency: ``fmlogic-gate-correctness``,
   ``fmlogic-latency``
3. UCI evasion: ``fmlogic-no-constant-nets``
4. concealment balance: ``trojankit-concealment-balance``
5. payload channel: ``trojankit-mode-separation``,
   ``sidechannel-demodulation``
6. trigger retry statistics: ``trojankit-retry-rate``
7. locking: ``trojankit-trigger-locks``, ``trojankit-trigger-soundness``
8. jamming: ``sidechannel-jamming-monotone``
9. determinism: ``cli-scenario-determinism``

Every check is deterministic: randomized ones use frozen seeds whose
outcomes were recorded when the bounds were locked.
"""

from __future__ import annotations

import itertools
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection

import numpy as np

from . import cli, fmlogic, netcore, sidechannel, trojankit
from .netcore import FfKind, Netlist, Stimulus, TruthTable, simulate, tt_and, tt_or, tt_xor
from .reference import default_ff_update, power_reference, reference_simulate, scan_reference, settlement_passes
from .trojankit import Aligned, PayloadMode

CheckResult = tuple[bool, str]

# The standard testbed's parameters (cli.ScenarioConfig defaults).
SPEC = cli.ScenarioConfig().trigger_spec()
L = cli.ScenarioConfig().L
ACTIVATION_SYNC = 2 * L + 1  # aligned: delta at L + 1, decoded one period later
FIRST_BIT_START = 3 * L + 2  # first transmitted bit's power window


# ---------------------------------------------------------------------------
# Shared builders (also used by the test suite)
# ---------------------------------------------------------------------------


def converters(*ports: str, L: int = L):
    """Standard-to-FM converters of fresh input ports; returns
    (netlist, sync, signals)."""
    nl = Netlist()
    sync = fmlogic.build_sync(nl, L)
    nets = [nl.add_input(port) for port in ports]
    return nl, sync, [fmlogic.build_std_to_fm(nl, net, sync) for net in nets]


def two_input_gate(table: TruthTable, L: int = L):
    """Converters of ports A and B feeding one FM gate; returns
    (netlist, sync, converters, gate)."""
    nl, sync, (ca, cb) = converters("A", "B", L=L)
    gate = fmlogic.build_fm_gate(nl, table, [ca, cb], sync)
    return nl, sync, (ca, cb), gate


def data_quad():
    """Unarmed concealment quad over a converter of input port DATA;
    returns (netlist, quad)."""
    nl, sync, (carrier,) = converters("DATA")
    return nl, trojankit.build_concealed(nl, carrier, sync)


def trigger_design() -> cli.Design:
    """The testbed's trigger half (event sync plus locking trigger)."""
    return cli.construct_trigger(cli.ScenarioConfig())


def aligned_payload_run(
    secret: str, mode: PayloadMode, jam_pairs: int = 0, extra_cycles: int = 0
) -> tuple[netcore.Trace, cli.Design]:
    """Simulate the armed testbed transmitting ``secret`` after an
    aligned trigger insertion; returns (trace, design).

    Activation lands at ACTIVATION_SYNC and the first bit's period
    starts at FIRST_BIT_START.  Simulation is causal, so sums over the
    secret's periods do not depend on ``extra_cycles``.  The jammer's
    seed is 0, the one the jamming bounds were locked with.
    """
    cfg = cli.ScenarioConfig(payload_mode=mode.value, jammer_pairs=jam_pairs, jammer_seed=0)
    design = cli.build_testbed(cfg, secret)
    n = FIRST_BIT_START + (len(secret) + 2) * L + extra_cycles
    stim = trojankit.opcode_stimulus([SPEC.filler()], SPEC, Aligned(), L, total_cycles=n)
    if design.jammer is not None:
        stim = stim.extended(design.jammer.stimulus_waves(n))
    return simulate(design.netlist, stim, n), design


def payload_sums(trace: netcore.Trace, design: cli.Design, n_bits: int) -> np.ndarray:
    """Per-period dynamic sums seen by the attacker (quad + jammer scope)."""
    pt = sidechannel.power_trace(trace, design.attack_scope())
    return sidechannel.period_sums(pt, L, FIRST_BIT_START, n_bits)


# ---------------------------------------------------------------------------
# netcore checks
# ---------------------------------------------------------------------------


def check_determinism() -> CheckResult:
    nl, sync, _, gate = two_input_gate(tt_xor(2))
    stim = Stimulus.standard(200, nl, A=np.tile([0, 1], 100), B=1)
    t1 = simulate(nl, stim, 200)
    t2 = simulate(nl, stim, 200)
    ref = reference_simulate(nl, stim, 200)
    if not np.array_equal(t1.values, t2.values):
        return False, "re-simulation differed"
    if not np.array_equal(t1.values, ref.values):
        return False, "compiled simulator disagrees with the reference interpreter"
    return True, "bit-exact across reruns and vs the reference interpreter"


def check_ff_semantics(simulate_fn: Callable | None = None) -> CheckResult:
    """Exhaustive set/reset-over-enable test: every (d, ce, sr) case from
    both states q0, all 16 pairs per flip-flop kind.  Pair k loads q0
    through d and ce on cycle 2k, applies its case on cycle 2k + 1 and
    reads the result on cycle 2k + 2.
    """
    sim = simulate_fn or simulate
    pairs = list(itertools.product((0, 1), itertools.product((0, 1), repeat=3)))  # (q0, (d, ce, sr))
    # rows of (d, ce, sr), one per cycle, and a last cycle to read the last pair's result
    waves = np.array([row for q0, case in pairs for row in ((q0, 1, 0), case)] + [(0, 0, 0)], np.uint8)
    ports = ("D", "CE", "SR")
    for kind in (FfKind.SET, FfKind.RESET):
        nl = Netlist()
        q = nl.add_ff(kind, *map(nl.add_input, ports))
        trace = sim(nl, Stimulus(dict(zip(ports, waves.T))), len(waves))
        for k, (q0, (dv, cv, sv)) in enumerate(pairs):
            want = default_ff_update(kind, q0, dv, cv, sv)
            got = trace.value(q, 2 * k + 2)
            if got != want:
                return False, f"{kind.name} q0={q0} case d={dv} ce={cv} sr={sv}: got {got}, expected {want}"
    return True, "sr priority and hold semantics exact for both kinds (16 histories)"


def check_settlement() -> CheckResult:
    nl, sync, _, gate = two_input_gate(tt_or(2))
    stim = Stimulus.standard(40, nl, A=1, B=np.tile([0, 1], 20))
    trace = simulate(nl, stim, 40)
    for cycle in range(40):
        if not settlement_passes(nl, trace, cycle):
            return False, f"combinational values not a fixpoint at cycle {cycle}"
    return True, "one topological pass reaches the combinational fixpoint"


def check_csr_periodicity() -> CheckResult:
    for L in (4, 8, 16):
        nl = Netlist()
        csr = fmlogic.build_fm_csr(nl, L)
        trace = simulate(nl, Stimulus.standard(4 * L + 2, nl), 4 * L + 2)
        state = trace.values[:, list(csr.stages)]
        t = 1 + (state[1 : 3 * L] != state[1 + L : 4 * L]).any(axis=1).nonzero()[0]
        if len(t):
            return False, f"L={L}: state at {t[0]} differs from {t[0] + L}"
        wave = trace.wave(csr.marker_tap)[1 : 3 * L + 1]
        edges = int(((wave[1:] == 1) & (wave[:-1] == 0)).sum()) + int(wave[0] == 1)
        if edges != 3:
            return False, f"L={L}: tap showed {edges} rising edges over 3 periods"
    return True, "ring state periodic with period L for L in {4, 8, 16}"


# ---------------------------------------------------------------------------
# fmlogic checks
# ---------------------------------------------------------------------------


def check_duty_cycles() -> CheckResult:
    """Criterion 1: exact tap duty cycles over 32 periods, and the L=8
    tap's dominant spectral line at f/8 (value 0) or f/4 (value 1), with
    the f/8 line gone for value 1."""
    expected = {(8, 0): 0.125, (8, 1): 0.25, (4, 0): 0.25, (4, 1): 0.5}
    for (L, value), want in expected.items():
        nl = Netlist()
        rotor = fmlogic.build_const_fm(nl, L, value)
        n = 1 + 40 * L
        trace = simulate(nl, Stimulus.standard(n, nl), n)
        got = fmlogic.duty_cycle(trace, rotor.data_tap, (1, 1 + 32 * L))
        if got != want:
            return False, f"L={L} value={value}: duty {got} != {want}"
        if L != 8:
            continue
        line = 0.25 if value else 0.125
        sp = sidechannel.spectrum(trace.wave(rotor.data_tap)[17:], 256)
        peak = round(line * 256)
        if sp.dominant_fraction() != line or sp.magnitudes[peak] <= sp.magnitudes[1:peak].max():
            return False, f"L=8 value={value}: dominant line {sp.dominant_fraction()}, not {line}"
        if value and sp.magnitude_at(0.125) >= 1e-9:
            return False, "L=8 value=1: the f/8 line did not vanish"
    return True, (
        "tap duty exactly 1/L and 2/L (L=8: 12.5%/25%, L=4: 25%/50%); "
        "L=8 dominant lines f/8 and f/4, no f/8 line for value 1"
    )


def check_single_marker() -> CheckResult:
    nl, sync, (ca, cb), gate = two_input_gate(tt_or(2))
    stim = Stimulus.standard(100, nl, A=np.tile([0, 1], 50), B=1)
    trace = simulate(nl, stim, 100)
    instants = list(fmlogic.sync_instants(L, 100))
    marker_only = np.arange(1, L + 1) == L
    for name, sig in (("converter A", ca), ("converter B", cb), ("gate", gate)):
        # stage L must hold 1 and every stage but L and the data stage L/2 hold 0
        wrong = trace.values[np.ix_(instants, sig.stages)] != marker_only
        wrong[:, L // 2 - 1] = False
        rows = wrong.any(axis=1).nonzero()[0]
        if len(rows):
            t, stage = instants[rows[0]], 1 + int(wrong[rows[0]].argmax())
            if stage == L:
                return False, f"{name} cycle {t}: marker missing at stage {L}"
            return False, f"{name} cycle {t}: stray 1 at stage {stage}"
    return True, (
        "converters and gate: marker at stage L, data at L/2, zeros elsewhere at every SYNC instant"
    )


def check_state_periodicity() -> CheckResult:
    nl, sync, _, gate = two_input_gate(tt_and(2))
    stim = Stimulus.standard(80, nl, A=1, B=1)
    trace = simulate(nl, stim, 80)
    ff_nets = [c.q for c in nl.cells if isinstance(c, netcore.FlipFlop)]
    state = trace.values[:, ff_nets]
    t = 2 * L + (state[2 * L : 60] != state[3 * L : 60 + L]).any(axis=1).nonzero()[0]
    if len(t):
        return False, f"full state at {t[0]} differs from {t[0] + L} under constant inputs"
    return True, "constant-input state periodic with period L from 2L on"


def check_gate_correctness() -> CheckResult:
    """Criterion 2, with ``check_latency``: every nonconstant 2-input
    function decodes right at every SYNC instant from 2L on."""
    # exhaustive over all 14 nonconstant 2-input functions and inputs
    for bits in range(1, 15):
        table = TruthTable.from_bits(2, bits)
        for av, bv in itertools.product((0, 1), repeat=2):
            nl, sync, _, gate = two_input_gate(table)
            trace = simulate(nl, Stimulus.standard(50, nl, A=av, B=bv), 50)
            instants, values = fmlogic.fm_decode_all(trace, gate, start=17)
            wrong = instants[values != table.eval((av, bv))]
            if len(wrong):
                return False, f"table {bits:04b} inputs ({av},{bv}) wrong at {wrong[0]}"
    # sampled 3- and 4-input functions
    rng = np.random.default_rng(7)
    for arity in (3, 4):
        for _ in range(6):
            bits = int(rng.integers(1, (1 << (1 << arity)) - 1))
            table = TruthTable.from_bits(arity, bits)
            if table.is_constant():
                continue
            assign = [int(v) for v in rng.integers(0, 2, arity)]
            nl, sync, sigs = converters(*(f"I{j}" for j in range(arity)))
            gate = fmlogic.build_fm_gate(nl, table, sigs, sync)
            stim = Stimulus.standard(50, nl, **{f"I{j}": v for j, v in enumerate(assign)})
            trace = simulate(nl, stim, 50)
            want = table.eval(assign)
            if fmlogic.fm_decode(trace, gate, 33).value != want:
                return False, f"arity-{arity} table {bits:x} at {assign} decoded wrong"
    return True, "all 14 2-input functions exhaustive; 3/4-input sampled"


def check_latency() -> CheckResult:
    """Criterion 2, with ``check_gate_correctness``: latency exactly 2L."""
    nl, sync, convs = converters("A")
    gate = fmlogic.build_fm_gate(nl, netcore.tt_buf(), convs, sync)
    present = 3 * L + 1  # a SYNC instant well past warm-up
    wave = np.zeros(100, np.uint8)
    wave[present:] = 1
    trace = simulate(nl, Stimulus.standard(100, nl, A=wave), 100)
    before = fmlogic.fm_decode(trace, gate, present + L).value
    after = fmlogic.fm_decode(trace, gate, present + 2 * L).value
    if before != 0:
        return False, f"output changed {L} cycles after presentation (too early)"
    if after != 1:
        return False, f"output not updated {2 * L} cycles after presentation"
    return True, "standard input at SYNC instant t decodes at exactly t + 2L"


def check_no_constant_nets() -> CheckResult:
    """Criterion 3: UCI evasion across every FM construction, plus the
    baseline contrast.

    A net that toggles within a window toggles within every longer one
    from the same cycle, so each design is scanned over one short span
    from cycles 2, 3, 5 and 10: a period L for the FM designs and the
    trigger's FM core, and 8L for the whole trigger, whose event
    comparators need that long to see every opcode.
    """
    designs: list[tuple[str, Netlist, int]] = []

    nl, sync, _, gate = two_input_gate(tt_or(2))
    designs.append(("converter+gate", nl, 100))

    nl2, sync2, sigs = converters("I0", "I1", "I2", "I3")
    expr = fmlogic.FmExpr(
        table=TruthTable.from_function(3, lambda x, y, z: x | (y & z)),
        args=(
            fmlogic.FmExpr(table=tt_xor(2), args=(sigs[0], sigs[1])),
            sigs[2],
            sigs[3],
        ),
    )
    fmlogic.compose_fm(nl2, expr, sync2)
    designs.append(("composed tree", nl2, 120))

    nl3, sync3, (ca, cb) = converters("A", "B")
    fmlogic.build_locking_and(nl3, ca, cb, sync3)
    designs.append(("locking gate", nl3, 120))

    rng = np.random.default_rng(5)
    scans = []  # (name, trace, span, nets that must not be flagged; None for all)
    for name, nl, n in designs:
        ports = [port for port in nl.inputs if port != "RESET"]
        waves = {port: rng.integers(0, 2, n).astype(np.uint8) for port in ports}
        scans.append((name, simulate(nl, Stimulus.standard(n, nl, **waves), n), L, None))

    tb = trigger_design()
    n = 160
    ops = trojankit.scrub_sequences(trojankit.random_program(n - 1, 16, 11), SPEC)
    trace = simulate(tb.netlist, trojankit.program_stimulus(ops, SPEC, total_cycles=n), n)
    core = {*tb.trigger.stages, tb.trigger.combiner_out, *tb.sync.stages}
    scans += [("trigger", trace, 8 * L, None), ("trigger FM core", trace, L, core)]

    for name, trace, span, nets in scans:
        for start in (2, 3, 5, 10):
            flagged = sidechannel.uci_scan(trace, (start, start + span)).suspicious
            bad = [trace.names[x] for x in flagged if nets is None or x in nets]
            if bad:
                return False, f"{name}: constant nets {bad} over cycles [{start}, {start + span})"

    # contrast: the plain condition comparator is caught
    nl5 = Netlist()
    nl5.reset()
    bus5 = trojankit.add_opcode_bus(nl5, 4)
    stuck = trojankit.build_baseline_trojan(nl5, bus5, magic=13)
    ops = [o for o in trojankit.random_program(150, 16, 3) if o != 13]
    stim5 = trojankit.program_stimulus(ops, SPEC, total_cycles=len(ops) + 1)
    trace5 = simulate(nl5, stim5, len(ops) + 1)
    rep5 = sidechannel.uci_scan(trace5, (2, len(ops) + 1))
    if stuck not in rep5.suspicious:
        return False, "baseline comparator was not flagged"
    return True, (
        "FM constructions scan clean over L-cycle windows (whole trigger: 8L) "
        "from cycles 2, 3, 5 and 10; "
        "baseline comparator flagged"
    )


def check_locking_monotone() -> CheckResult:
    nl, sync, (ca, cb) = converters("A", "B")
    lock = fmlogic.build_locking_and(nl, ca, cb, sync)
    rng = np.random.default_rng(9)
    n = 600
    stim = Stimulus.standard(
        n, nl, A=rng.integers(0, 2, n).astype(np.uint8), B=rng.integers(0, 2, n).astype(np.uint8)
    )
    trace = simulate(nl, stim, n)
    instants, values = fmlogic.fm_decode_all(trace, lock)
    drops = instants[1:][values[1:] < values[:-1]]  # values are 0 or 1: a drop is 1 -> 0
    if len(drops):
        return False, f"decoded value dropped from 1 to 0 at cycle {drops[0]}"
    return True, "decoded locking output non-decreasing over SYNC instants"


# ---------------------------------------------------------------------------
# trojankit checks
# ---------------------------------------------------------------------------


def _oracle_activates(program: list[int]) -> bool:
    """Stream-level activation predicate, independent of the circuit."""
    ops = SPEC.opcodes
    for i in range(len(program) - 3):
        delta_cycle = i + 4  # program index i is bus cycle i + 1
        if tuple(program[i : i + 4]) == ops and (delta_cycle - 1) % L == 0:
            return True
    return False


def _activated(design: cli.Design, stim: Stimulus) -> bool:
    """Whether the trigger decodes 1 at the stimulus's last SYNC instant."""
    trace = simulate(design.netlist, stim, stim.length)
    return bool(fmlogic.fm_decode_all(trace, design.trigger)[1][-1])


def _simulate_stream(design: cli.Design, program: list[int]) -> bool:
    n = len(program) + 2 * L + 3
    return _activated(design, trojankit.program_stimulus(program, SPEC, total_cycles=n))


def check_trigger_soundness() -> CheckResult:
    """Criterion 7, with ``check_trigger_locks``: the trigger fires exactly
    when the stream oracle does, never misaligned or out of order."""
    design = trigger_design()
    filler = SPEC.filler()
    alphabet = [*SPEC.opcodes, filler]

    # every 4-gram at an aligned completion cycle (delta cycle 9, aligned for L=8)
    for gram in itertools.product(alphabet, repeat=4):
        program = [filler] * 5 + list(gram) + [filler] * 3
        want = _oracle_activates(program)
        got = _simulate_stream(design, program)
        if got != want:
            return False, f"4-gram {gram}: circuit={got}, oracle={want}"

    # the correct sequence at every phase offset
    activating = 0
    for phase in range(8):
        program = [filler] * (5 + phase) + list(SPEC.opcodes) + [filler] * (15 - phase)
        got = _simulate_stream(design, program)
        want = _oracle_activates(program)
        if got != want:
            return False, f"phase {phase}: circuit={got}, oracle={want}"
        activating += got
    if activating != 1:
        return False, f"{activating} of 8 phase classes activated (expected 1)"

    # randomized long-stream equivalence
    rng = np.random.default_rng(13)
    for trial in range(300):
        program = [alphabet[v] for v in rng.integers(0, 5, 40)]
        want = _oracle_activates(program)
        got = _simulate_stream(design, program)
        if got != want:
            return False, f"random stream {trial}: circuit={got}, oracle={want}"
    return True, "circuit activation == stream oracle (625 grams, 8 phases, 300 streams)"


def check_trigger_locks() -> CheckResult:
    """Criterion 7, with ``check_trigger_soundness``: once activated, the
    trigger stays locked for at least 1000 periods of random traffic."""
    design = trigger_design()
    n = ACTIVATION_SYNC + 1001 * L + 2
    background = trojankit.scrub_sequences(trojankit.random_program(n - 1, 16, seed=77), SPEC)
    stim = trojankit.opcode_stimulus(background, SPEC, Aligned(), L, total_cycles=n)
    trace = simulate(design.netlist, stim, n)
    instants, values = fmlogic.fm_decode_all(trace, design.trigger, start=ACTIVATION_SYNC)
    held = int(np.cumprod(values == 1).sum())  # the periods before the first unlocked one
    if held < len(values):
        return False, f"unlocked at cycle {instants[held]} after {held} periods"
    if held < 1000:
        return False, f"locked for only {held} periods (bound 1000)"
    return True, f"locked from cycle {ACTIVATION_SYNC} for all {held} periods (bound 1000)"


def check_retry_rate() -> CheckResult:
    """Criterion 6: ``RandomRetry(32)`` activates at 1 - (7/8)^32 within
    +/-0.02 over 2000 seeded trials.

    Each try lands in one of 8 phase classes and exactly one of them
    activates (``check_trigger_soundness``), hence the 7/8 per try.
    """
    design = trigger_design()
    trials, hits = 2000, 0
    for t in range(trials):
        policy = trojankit.RandomRetry(32, seed=10_000 + t)
        hits += _activated(design, trojankit.opcode_stimulus([SPEC.filler()], SPEC, policy, L))
    rate, expected = hits / trials, 1.0 - (7.0 / 8.0) ** 32
    detail = f"{hits}/{trials} = {rate:.4f} activated vs 1 - (7/8)^32 = {expected:.4f} (+/-0.02)"
    return abs(rate - expected) <= 0.02, detail


def check_trigger_rarity() -> CheckResult:
    """Aligned-conjunction events over 10^6 uniform random opcode cycles."""
    design = trigger_design()
    nl, sync, (a, b, c, d) = design.netlist, design.sync, design.lines
    rng = np.random.default_rng(2)  # frozen; expected count ~1.9
    total = 0
    chunk = 62500
    for _ in range(16):
        ops = rng.integers(0, 16, size=chunk)
        # cycle 0 carries the filler instead of ops[0]; it falls inside
        # reset, which clears every delay-chain flip-flop
        trace = simulate(nl, trojankit.program_stimulus(ops[1:].tolist(), SPEC), chunk)
        conj = (
            trace.wave(a) & trace.wave(b) & trace.wave(c) & trace.wave(d) & trace.wave(sync.data_tap)
        )
        total += int(conj.sum())
    if total > 3:
        return False, f"{total} aligned conjunctions in 10^6 cycles (bound 3)"
    return True, f"{total} aligned conjunctions in 10^6 random cycles (expected ~1.9, bound 3)"


def check_concealment_balance() -> CheckResult:
    """Criterion 4: exact 0->1/1->0/static balance for arbitrary carrier
    data, so the dynamic power's variance is exactly 0."""
    nl, quad = data_quad()
    rng = np.random.default_rng(21)
    n = 400
    stim = Stimulus.standard(n, nl, DATA=rng.integers(0, 2, n).astype(np.uint8))
    trace = simulate(nl, stim, n)
    pt = sidechannel.power_trace(trace, quad.stage_nets())
    rises, falls, ones, bad = sidechannel.quad_balance(pt, 2, n)
    if bad is not None:
        return False, f"balance broken first at cycle {bad}: {ones[bad - 2]} ones"
    var = float(pt.dynamic[3:].var())
    if var != 0.0:
        return False, f"dynamic variance {var} != 0"
    return True, f"{rises[0]} rises, {falls[0]} falls, {ones[0]} ones every cycle; variance exactly 0"


def check_both_frequencies() -> CheckResult:
    nl, quad = data_quad()
    wave = np.tile(np.repeat([0, 1], 16), 20)[:400]
    trace = simulate(nl, Stimulus.standard(400, nl, DATA=wave), 400)
    instants, da = fmlogic.fm_decode_all(trace, quad.a, start=17)
    _, db = fmlogic.fm_decode_all(trace, quad.b, start=17)
    if (da == db).any():
        i = np.argmax(da == db)
        return False, f"cycle {instants[i]}: decode(a)={da[i]}, decode(b)={db[i]}"
    return True, "decode(a) and decode(b) complementary at every SYNC instant"


def check_mode_separation() -> CheckResult:
    """Criterion 5, with ``check_demodulation``: per-period sums 32/16
    (mode 1) and 64/32 (mode 2), confirmed by raw per-net counting."""
    sums = {}
    for mode in (PayloadMode.MODE1, PayloadMode.MODE2):
        per_bit = {}
        for bit in "01":
            trace, design = aligned_payload_run(bit * 8, mode)
            s = payload_sums(trace, design, 8)
            # independent counting oracle: raw per-net toggles in each period
            toggles = power_reference(trace, design.attack_scope())[0]
            oracle = [sum(toggles[t : t + L]) for t in range(FIRST_BIT_START, FIRST_BIT_START + 8 * L, L)]
            if oracle != [int(v) for v in s]:
                return False, f"{mode.value} bit {bit}: sums {s.tolist()} != toggle counts {oracle}"
            steady = set(int(v) for v in s[1:])  # first period crosses activation
            if len(steady) != 1:
                return False, f"{mode.value} bit {bit}: unsteady sums {sorted(steady)}"
            per_bit[bit] = steady.pop()
        sums[mode] = per_bit
    m1, m2 = sums[PayloadMode.MODE1], sums[PayloadMode.MODE2]
    if (m1["1"], m1["0"]) != (32, 16):
        return False, f"mode1 sums {m1} != (32, 16)"
    if (m2["1"], m2["0"]) != (64, 32):
        return False, f"mode2 sums {m2} != (64, 32)"
    if (m2["1"] - m2["0"]) != 2 * (m1["1"] - m1["0"]):
        return False, "mode2 separation is not exactly twice mode1"
    return True, (
        "per-period sums 32/16 (mode1) and 64/32 (mode2), equal to raw toggle counts; "
        "separation doubled exactly"
    )


# ---------------------------------------------------------------------------
# sidechannel checks
# ---------------------------------------------------------------------------


def check_uci_completeness() -> CheckResult:
    nl = Netlist()
    nl.reset()
    rng = np.random.default_rng(17)
    ports = [nl.add_input(f"P{j}") for j in range(4)]
    nets = list(ports) + [nl.const(0), nl.const(1)]
    for _ in range(30):
        k = int(rng.integers(1, 4))
        ins = [nets[int(i)] for i in rng.integers(0, len(nets), k)]
        bits = int(rng.integers(0, 1 << (1 << k)))
        nets.append(nl.add_lut(ins, TruthTable.from_bits(k, bits)))
    n = 64
    waves = {f"P{j}": rng.integers(0, 2, n).astype(np.uint8) for j in range(4)}
    trace = simulate(nl, Stimulus.standard(n, nl, **waves), n)
    report = sidechannel.uci_scan(trace, (2, n))
    constant, duty, _, _ = scan_reference(trace, (2, n))
    brute_constant = {net for net, _ in constant}
    flagged = set(report.suspicious)
    for net, want in duty.items():
        if (net in brute_constant) != (net in flagged):
            return False, f"net {net}: brute-force={net in brute_constant}, scan={net in flagged}"
        if report.duty_cycles.get(net) != want:
            return False, f"net {net}: duty mismatch"
    return True, "flagged iff windowed duty in {0, 1}; duty cycles exact (brute-forced)"


def check_pair_soundness() -> CheckResult:
    nl = Netlist()
    nl.reset()
    rng = np.random.default_rng(19)
    a = nl.add_input("A")
    b = nl.add_input("B")
    buf = nl.add_lut((a,), netcore.tt_buf())
    inv = nl.add_lut((a,), netcore.tt_not())
    nets = [a, b, buf, inv]
    for _ in range(20):
        ins = [nets[int(i)] for i in rng.integers(0, len(nets), 2)]
        bits = int(rng.integers(1, 15))
        nets.append(nl.add_lut(ins, TruthTable.from_bits(2, bits)))
    n = 40
    trace = simulate(
        nl,
        Stimulus.standard(
            n, nl, A=rng.integers(0, 2, n).astype(np.uint8), B=rng.integers(0, 2, n).astype(np.uint8)
        ),
        n,
    )
    report = sidechannel.pair_scan(trace, (2, n))
    _, _, eq, comp = scan_reference(trace, (2, n))
    for kind, want, got in (("equal", eq, report.equal_pairs), ("complement", comp, report.complement_pairs)):
        wrong = set(want) ^ set(got)
        if wrong:
            x, y = min(wrong)
            return False, f"{kind} pair ({x},{y}): brute={(x, y) in want}, scan={(x, y) in got}"
    if (a, buf) not in eq or (a, inv) not in comp:
        return False, "known buffer/inverter pairs missing"
    return True, "pair relations match the brute-force scan exactly"


def check_spectral_squares() -> CheckResult:
    for period in (4, 8, 16):
        pattern = np.tile(
            np.concatenate([np.ones(period // 2, np.uint8), np.zeros(period // 2, np.uint8)]),
            256 // period + 2,
        )
        sp = sidechannel.spectrum(pattern, 256)
        dom = sp.dominant_fraction()
        if dom != 1.0 / period:
            return False, f"period {period}: dominant {dom} != {1 / period}"
        peak = sp.magnitude_at(1.0 / period)
        others = [m for i, m in enumerate(sp.magnitudes[1:], 1) if i != round(256 / period)]
        if peak <= max(others):
            return False, f"period {period}: fundamental not strictly dominant"
    return True, "square waves: fundamental strictly dominant for P in {4, 8, 16}"


def _random_secret(rng: np.random.Generator, n_bits: int) -> str:
    return "".join("1" if v else "0" for v in rng.integers(0, 2, n_bits))


def check_demodulation() -> CheckResult:
    """Criterion 5, with ``check_mode_separation``: the attacker's
    demodulator recovers 100 random 64-bit secrets exactly."""
    rng = np.random.default_rng(23)
    for mode in (PayloadMode.MODE1, PayloadMode.MODE2):
        threshold = cli.ScenarioConfig(payload_mode=mode.value).threshold()  # 3L, 6L
        for trial in range(50):
            secret = _random_secret(rng, 64)
            trace, design = aligned_payload_run(secret, mode)
            pt = sidechannel.power_trace(trace, design.attack_scope())
            recovered = sidechannel.attacker_demodulate(
                pt, L, FIRST_BIT_START, len(secret), threshold
            )
            if recovered != secret:
                return False, f"{mode.value} trial {trial}: {recovered} != {secret}"
    return True, "100 random 64-bit secrets recovered exactly (50 per mode)"


def check_jamming_monotone() -> CheckResult:
    """Criterion 8: the best single-threshold accuracy never rises with
    more jammer pairs, and four pairs take a 256-bit secret from exactly
    1.0 down to at most 0.65."""

    def accuracy(secret: str, pairs: int) -> float:
        run = aligned_payload_run(secret, PayloadMode.MODE1, jam_pairs=pairs)
        return sidechannel.oracle_threshold_accuracy(payload_sums(*run, len(secret)), secret)[0]

    secret = _random_secret(np.random.default_rng(42), 512)
    accs = [round(accuracy(secret, k), 6) for k in (0, 1, 2, 4, 8)]
    for lo, hi in zip(accs[1:], accs[:-1]):
        if lo > hi:
            return False, f"accuracy increased with more jamming: {accs}"
    if accs[0] != 1.0:
        return False, f"unjammed accuracy {accs[0]} != 1.0"
    secret = _random_secret(np.random.default_rng(42), 256)
    clean, jammed = accuracy(secret, 0), accuracy(secret, 4)
    if clean != 1.0 or not 0.5 <= jammed <= 0.65:
        return False, f"256-bit secret, k=4: accuracy {clean} -> {jammed} (want 1.0 -> 0.5..0.65)"
    return True, (
        f"oracle accuracy non-increasing in jammer pairs: {accs}; "
        f"256-bit secret 1.0 -> {jammed:.4f} with k=4 (bound 0.65)"
    )


# ---------------------------------------------------------------------------
# cli checks
# ---------------------------------------------------------------------------


def check_config_roundtrip() -> CheckResult:
    cfg = cli.ScenarioConfig(
        alignment="random_retry", attempts=5, payload_mode="mode2",
        secret="110010", jammer_pairs=2, demod_threshold=17.5,
    )
    cfg.validate()
    short_ring = cli.ScenarioConfig(
        L=4, alignment="random_retry", attempts=7, payload_mode="mode2",
        secret="1100", jammer_pairs=3, demod_threshold=19.25, seed=99,
    )
    for config, failure in (
        (cfg, "parse(serialize(config)) differs from the original"),
        (cli.ScenarioConfig(), "default config does not round-trip"),
        (short_ring, "L=4 config does not round-trip"),
    ):
        if cli.ScenarioConfig.from_ini(config.to_ini()) != config:
            return False, failure
    return True, "configs round-trip through the INI form"


def check_scenario_determinism() -> CheckResult:
    """Criterion 9: identical configs reproduce every export byte for byte."""
    cfg = cli.ScenarioConfig(alignment="aligned", payload_mode="mode1", secret="1011", cycles=256)
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = Path(tmp, "r1"), Path(tmp, "r2")
        report, ok = cli.run_scenario(cfg, d1)
        cli.run_scenario(cfg, d2)
        for name in cli.EXPORTS:
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                return False, f"{name} differs between identical runs"
    if not ok:
        return False, f"aligned mode1 run failed its checks: {report['checks']}"
    return True, "identical configs produce byte-identical reports and exports"


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    ("netcore-determinism", check_determinism),
    ("netcore-ff-semantics", check_ff_semantics),
    ("netcore-settlement", check_settlement),
    ("netcore-csr-periodicity", check_csr_periodicity),
    ("fmlogic-duty-cycles", check_duty_cycles),
    ("fmlogic-single-marker", check_single_marker),
    ("fmlogic-state-periodicity", check_state_periodicity),
    ("fmlogic-gate-correctness", check_gate_correctness),
    ("fmlogic-latency", check_latency),
    ("fmlogic-no-constant-nets", check_no_constant_nets),
    ("fmlogic-locking-monotone", check_locking_monotone),
    ("trojankit-trigger-soundness", check_trigger_soundness),
    ("trojankit-trigger-locks", check_trigger_locks),
    ("trojankit-retry-rate", check_retry_rate),
    ("trojankit-trigger-rarity", check_trigger_rarity),
    ("trojankit-concealment-balance", check_concealment_balance),
    ("trojankit-both-frequencies", check_both_frequencies),
    ("trojankit-mode-separation", check_mode_separation),
    ("sidechannel-uci-completeness", check_uci_completeness),
    ("sidechannel-pair-soundness", check_pair_soundness),
    ("sidechannel-spectral-squares", check_spectral_squares),
    ("sidechannel-demodulation", check_demodulation),
    ("sidechannel-jamming-monotone", check_jamming_monotone),
    ("cli-config-roundtrip", check_config_roundtrip),
    ("cli-scenario-determinism", check_scenario_determinism),
]


@dataclass
class VerifySummary:
    results: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok, _ in self.results if not ok]


def verify_suite(only: Collection[str] | None = None) -> VerifySummary:
    """Run every invariant check, or the ones named in ``only``; print one
    pass/fail line per check, with the seconds it took."""
    results = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name} ({seconds:.3f} s): {detail}")
    n_ok = sum(1 for _, ok, _ in results if ok)
    print(f"{n_ok}/{len(results)} checks passed")
    return VerifySummary(results)
