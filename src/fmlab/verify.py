"""Invariant battery behind ``fmlab verify``.

Each check re-derives one of the library's stated guarantees with an
independent oracle (brute-force scan, exhaustive enumeration, analytic
probability, or the reference interpreter) and reports pass/fail.  The
test suite runs the same functions; the CLI prints one line per check
and exits nonzero on any failure.

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
from .reference import default_ff_update, reference_simulate, settlement_passes
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
    secret: str, mode: PayloadMode, jam_pairs: int = 0, jam_seed: int = 0, extra_cycles: int = 0
) -> tuple[netcore.Trace, cli.Design]:
    """Simulate the armed testbed transmitting ``secret`` after an
    aligned trigger insertion; returns (trace, design).

    Activation lands at ACTIVATION_SYNC and the first bit's period
    starts at FIRST_BIT_START.  Simulation is causal, so sums over the
    secret's periods do not depend on ``extra_cycles``.
    """
    cfg = cli.ScenarioConfig(payload_mode=mode.value, jammer_pairs=jam_pairs, jammer_seed=jam_seed)
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
    """Exhaustive 8-case set/reset-over-enable test per flip-flop kind."""
    sim = simulate_fn or simulate
    cases = list(itertools.product((0, 1), repeat=3))  # (d, ce, sr)
    for kind in (FfKind.SET, FfKind.RESET):
        for init_q in (0, 1):
            nl = Netlist()
            d = nl.add_input("D")
            ce = nl.add_input("CE")
            sr = nl.add_input("SR")
            q = nl.add_ff(kind, d, ce, sr)
            n = len(cases) + 2
            dw = np.zeros(n, np.uint8)
            cw = np.zeros(n, np.uint8)
            sw = np.zeros(n, np.uint8)
            # cycle 0 forces the starting state via d/ce
            dw[0], cw[0], sw[0] = init_q, 1, 0
            for i, (dv, cv, sv) in enumerate(cases):
                dw[i + 1], cw[i + 1], sw[i + 1] = dv, cv, sv
            trace = sim(nl, Stimulus({"D": dw, "CE": cw, "SR": sw}), n)
            state = init_q
            for i, (dv, cv, sv) in enumerate(cases):
                state = default_ff_update(kind, state, dv, cv, sv)
                got = trace.value(q, i + 2)
                if got != state:
                    return False, (
                        f"{kind.name} q0={init_q} case d={dv} ce={cv} sr={sv}: "
                        f"got {got}, expected {state}"
                    )
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
        for t in range(1, 3 * L):
            if not np.array_equal(state[t], state[t + L]):
                return False, f"L={L}: state at {t} differs from {t + L}"
        wave = trace.wave(csr.marker_tap)[1 : 3 * L + 1]
        edges = int(((wave[1:] == 1) & (wave[:-1] == 0)).sum()) + int(wave[0] == 1)
        if edges != 3:
            return False, f"L={L}: tap showed {edges} rising edges over 3 periods"
    return True, "ring state periodic with period L for L in {4, 8, 16}"


# ---------------------------------------------------------------------------
# fmlogic checks
# ---------------------------------------------------------------------------


def check_duty_cycles() -> CheckResult:
    expected = {(8, 0): 0.125, (8, 1): 0.25, (4, 0): 0.25, (4, 1): 0.5}
    for (L, value), want in expected.items():
        nl = Netlist()
        rotor = fmlogic.build_const_fm(nl, L, value)
        trace = simulate(nl, Stimulus.standard(8 * L + 1, nl), 8 * L + 1)
        got = fmlogic.duty_cycle(trace, rotor.data_tap, (1, 1 + 4 * L))
        if got != want:
            return False, f"L={L} value={value}: duty {got} != {want}"
    return True, "tap duty exactly 1/L and 2/L (L=8: 12.5%/25%, L=4: 25%/50%)"


def check_single_marker() -> CheckResult:
    nl, sync, _, gate = two_input_gate(tt_or(2))
    stim = Stimulus.standard(100, nl, A=np.tile([0, 1], 50), B=1)
    trace = simulate(nl, stim, 100)
    for t in fmlogic.sync_instants(L, 100):
        for stage, net in enumerate(gate.stages, start=1):
            v = trace.value(net, t)
            if stage == L and v != 1:
                return False, f"cycle {t}: marker missing at stage {L}"
            if stage not in (L, L // 2) and v != 0:
                return False, f"cycle {t}: stray 1 at stage {stage}"
    return True, "marker at stage L, data at L/2, zeros elsewhere at every SYNC instant"


def check_state_periodicity() -> CheckResult:
    nl, sync, _, gate = two_input_gate(tt_and(2))
    stim = Stimulus.standard(80, nl, A=1, B=1)
    trace = simulate(nl, stim, 80)
    ff_nets = [c.q for c in nl.cells if isinstance(c, netcore.FlipFlop)]
    state = trace.values[:, ff_nets]
    for t in range(2 * L, 60):
        if not np.array_equal(state[t], state[t + L]):
            return False, f"full state at {t} differs from {t + L} under constant inputs"
    return True, "constant-input state periodic with period L from 2L on"


def check_gate_correctness() -> CheckResult:
    # exhaustive over all 14 nonconstant 2-input functions and inputs
    for bits in range(1, 15):
        table = TruthTable.from_bits(2, bits)
        for av, bv in itertools.product((0, 1), repeat=2):
            nl, sync, _, gate = two_input_gate(table)
            trace = simulate(nl, Stimulus.standard(50, nl, A=av, B=bv), 50)
            want = table.eval((av, bv))
            for t in fmlogic.sync_instants(L, 50, start=17):
                if fmlogic.fm_decode(trace, gate, t).value != want:
                    return False, f"table {bits:04b} inputs ({av},{bv}) wrong at {t}"
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
    """UCI evasion across every FM construction, plus the baseline contrast."""
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

    designs.append(("trigger", trigger_design().netlist, 160))

    rng = np.random.default_rng(5)
    for name, nl, n in designs:
        waves = {}
        for port in nl.inputs:
            if port == "RESET":
                continue
            if port.startswith("OP"):
                continue
            waves[port] = rng.integers(0, 2, n).astype(np.uint8)
        if any(p.startswith("OP") for p in nl.inputs):
            ops = trojankit.scrub_sequences(
                trojankit.random_program(n - 1, 16, 11), SPEC
            )
            stim = trojankit.program_stimulus(ops, SPEC, total_cycles=n)
        else:
            stim = Stimulus.standard(n, nl, **waves)
        trace = simulate(nl, stim, n)
        for start in (2, 3, 10):
            rep = sidechannel.uci_scan(trace, (start, n))
            if rep.suspicious:
                bad = [trace.names[x] for x in rep.suspicious]
                return False, f"{name}: constant nets {bad} from cycle {start}"

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
    return True, "FM constructions scan clean; baseline comparator flagged"


def check_locking_monotone() -> CheckResult:
    nl, sync, (ca, cb) = converters("A", "B")
    lock = fmlogic.build_locking_and(nl, ca, cb, sync)
    rng = np.random.default_rng(9)
    n = 600
    stim = Stimulus.standard(
        n, nl, A=rng.integers(0, 2, n).astype(np.uint8), B=rng.integers(0, 2, n).astype(np.uint8)
    )
    trace = simulate(nl, stim, n)
    prev = 0
    for t in fmlogic.sync_instants(L, n, start=L + 1):
        v = fmlogic.fm_decode(trace, lock, t).value
        if v < prev:
            return False, f"decoded value dropped from {prev} to {v} at cycle {t}"
        prev = v
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


def _simulate_stream(nl, sync, trigger, program: list[int]) -> bool:
    n = len(program) + 2 * sync.L + 3
    stim = trojankit.program_stimulus(program, SPEC, total_cycles=n)
    trace = simulate(nl, stim, n)
    last = max(fmlogic.sync_instants(sync.L, n, start=sync.L + 1))
    return bool(fmlogic.fm_decode(trace, trigger, last).value)


def check_trigger_soundness() -> CheckResult:
    design = trigger_design()
    nl, sync, trigger = design.netlist, design.sync, design.trigger
    filler = SPEC.filler()
    alphabet = [*SPEC.opcodes, filler]

    # every 4-gram at an aligned completion cycle (delta cycle 9, aligned for L=8)
    for gram in itertools.product(alphabet, repeat=4):
        program = [filler] * 5 + list(gram) + [filler] * 3
        want = _oracle_activates(program)
        got = _simulate_stream(nl, sync, trigger, program)
        if got != want:
            return False, f"4-gram {gram}: circuit={got}, oracle={want}"

    # the correct sequence at every phase offset
    activating = 0
    for phase in range(8):
        program = [filler] * (5 + phase) + list(SPEC.opcodes) + [filler] * (15 - phase)
        got = _simulate_stream(nl, sync, trigger, program)
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
        got = _simulate_stream(nl, sync, trigger, program)
        if got != want:
            return False, f"random stream {trial}: circuit={got}, oracle={want}"
    return True, "circuit activation == stream oracle (625 grams, 8 phases, 300 streams)"


def check_trigger_rarity() -> CheckResult:
    """Aligned-conjunction events over 10^6 uniform random opcode cycles."""
    design = trigger_design()
    nl, sync, (a, b, c, d) = design.netlist, design.sync, design.lines
    rng = np.random.default_rng(2)  # frozen; expected count ~1.9
    total = 0
    chunk = 62500
    for _ in range(16):
        ops = rng.integers(0, 16, size=chunk)
        waves = {"RESET": np.zeros(chunk, np.uint8)}
        waves["RESET"][0] = 1
        for j in range(4):
            waves[f"OP{j}"] = ((ops >> j) & 1).astype(np.uint8)
        trace = simulate(nl, Stimulus(waves), chunk)
        conj = (
            trace.wave(a) & trace.wave(b) & trace.wave(c) & trace.wave(d) & trace.wave(sync.tap)
        )
        total += int(conj.sum())
    if total > 3:
        return False, f"{total} aligned conjunctions in 10^6 cycles (bound 3)"
    return True, f"{total} aligned conjunctions in 10^6 random cycles (expected ~1.9, bound 3)"


def check_concealment_balance() -> CheckResult:
    """Exact 0->1/1->0/static balance for arbitrary carrier data."""
    nl, quad = data_quad()
    rng = np.random.default_rng(21)
    n = 400
    stim = Stimulus.standard(n, nl, DATA=rng.integers(0, 2, n).astype(np.uint8))
    trace = simulate(nl, stim, n)
    rises, falls, ones, bad = sidechannel.quad_balance(trace, quad.stage_nets(), 2, n)
    if bad is not None:
        return False, f"balance broken first at cycle {bad}: {ones[bad - 2]} ones"
    pt = sidechannel.power_trace(trace, quad.stage_nets())
    var = float(pt.dynamic[3:].var())
    if var != 0.0:
        return False, f"dynamic variance {var} != 0"
    return True, f"{rises[0]} rises, {falls[0]} falls, {ones[0]} ones every cycle; variance exactly 0"


def check_both_frequencies() -> CheckResult:
    nl, quad = data_quad()
    wave = np.tile(np.repeat([0, 1], 16), 20)[:400]
    trace = simulate(nl, Stimulus.standard(400, nl, DATA=wave), 400)
    for t in fmlogic.sync_instants(L, 395, start=17):
        da = fmlogic.fm_decode(trace, quad.a, t).value
        db = fmlogic.fm_decode(trace, quad.b, t).value
        if {da, db} != {0, 1}:
            return False, f"cycle {t}: decode(a)={da}, decode(b)={db}"
    return True, "decode(a) and decode(b) complementary at every SYNC instant"


def check_mode_separation() -> CheckResult:
    sums = {}
    for mode in (PayloadMode.MODE1, PayloadMode.MODE2):
        per_bit = {}
        for bit in "01":
            s = payload_sums(*aligned_payload_run(bit * 8, mode), 8)
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
    return True, "per-period sums 32/16 (mode1) and 64/32 (mode2); separation doubled exactly"


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
    flagged = set(report.suspicious)
    for net in range(trace.n_nets):
        if trace.names[net] in sidechannel.DEFAULT_EXCLUDED_NAMES:
            continue
        w = trace.wave(net)[2:n]
        brute_constant = bool((w == w[0]).all())
        if brute_constant != (net in flagged):
            return False, f"net {net}: brute-force={brute_constant}, scan={net in flagged}"
        duty = report.duty_cycles[net]
        if duty != float(w.sum()) / len(w):
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
    eq = set(report.equal_pairs)
    comp = set(report.complement_pairs)
    scan_nets = [
        x for x in range(trace.n_nets) if trace.names[x] not in sidechannel.DEFAULT_EXCLUDED_NAMES
    ]
    for i, x in enumerate(scan_nets):
        for y in scan_nets[i + 1 :]:
            wx = trace.wave(x)[2:n]
            wy = trace.wave(y)[2:n]
            want_eq = bool((wx == wy).all())
            want_comp = bool((wx != wy).all())
            if want_eq != ((x, y) in eq):
                return False, f"equal pair ({x},{y}): brute={want_eq}, scan={(x, y) in eq}"
            if want_comp != ((x, y) in comp):
                return False, f"complement pair ({x},{y}): brute={want_comp}, scan={(x, y) in comp}"
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


def check_demodulation() -> CheckResult:
    rng = np.random.default_rng(23)
    for mode, threshold in ((PayloadMode.MODE1, 24.0), (PayloadMode.MODE2, 48.0)):
        for trial in range(50):
            secret = "".join("1" if v else "0" for v in rng.integers(0, 2, 64))
            sums = payload_sums(*aligned_payload_run(secret, mode), len(secret))
            recovered = "".join("1" if s > threshold else "0" for s in sums)
            if recovered != secret:
                return False, f"{mode.value} trial {trial}: {recovered} != {secret}"
    return True, "100 random 64-bit secrets recovered exactly (50 per mode)"


def check_jamming_monotone() -> CheckResult:
    rng = np.random.default_rng(42)
    secret = "".join("1" if v else "0" for v in rng.integers(0, 2, 512))
    accs = []
    for k in (0, 1, 2, 4, 8):
        run = aligned_payload_run(secret, PayloadMode.MODE1, jam_pairs=k, jam_seed=0)
        sums = payload_sums(*run, len(secret))
        acc, _ = sidechannel.oracle_threshold_accuracy(sums, secret)
        accs.append(round(acc, 6))
    for lo, hi in zip(accs[1:], accs[:-1]):
        if lo > hi:
            return False, f"accuracy increased with more jamming: {accs}"
    if accs[0] != 1.0:
        return False, f"unjammed accuracy {accs[0]} != 1.0"
    return True, f"oracle accuracy non-increasing in jammer pairs: {accs}"


# ---------------------------------------------------------------------------
# cli checks
# ---------------------------------------------------------------------------


def check_config_roundtrip() -> CheckResult:
    cfg = cli.ScenarioConfig(
        alignment="random_retry", attempts=5, payload_mode="mode2",
        secret="110010", jammer_pairs=2, demod_threshold=17.5,
    )
    cfg.validate()
    back = cli.ScenarioConfig.from_ini(cfg.to_ini())
    if back != cfg:
        return False, "parse(serialize(config)) differs from the original"
    cfg2 = cli.ScenarioConfig()
    back2 = cli.ScenarioConfig.from_ini(cfg2.to_ini())
    if back2 != cfg2:
        return False, "default config does not round-trip"
    return True, "configs round-trip through the INI form"


def check_scenario_determinism() -> CheckResult:
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


def verify_suite(
    print_fn: Callable[[str], None] | None = print, only: Collection[str] | None = None
) -> VerifySummary:
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
        if print_fn:
            print_fn(f"{'PASS' if ok else 'FAIL'} {name} ({seconds:.3f} s): {detail}")
    summary = VerifySummary(results)
    if print_fn:
        n_ok = sum(1 for _, ok, _ in results if ok)
        print_fn(f"{n_ok}/{len(results)} checks passed")
    return summary
