"""Trigger circuitry, concealment quads, payload modes, transmitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlab import fmlogic, sidechannel
from fmlab.cli import ScenarioConfig, construct_design
from fmlab.fmlogic import COMBINER_DATA_POS, COMBINER_FB_POS, build_std_to_fm, build_sync, fm_decode_all
from fmlab.netcore import FlipFlop, Lut, Netlist, Stimulus, TruthTable, simulate, tt_const, tt_not
from fmlab.reference import power_reference, reference_simulate
from fmlab.trojankit import (
    RETRY_GAP,
    Aligned,
    PayloadError,
    PayloadMode,
    RandomRetry,
    TriggerError,
    TriggerSpec,
    _armed_b_table,
    _dual_table,
    add_opcode_bus,
    build_baseline_trojan,
    build_concealed,
    build_event_sync,
    build_payload_transmitter,
    build_trigger,
    opcode_stimulus,
    program_stimulus,
    random_program,
    scrub_sequences,
    set_payload_mode,
)
from fmlab.verify import (
    ACTIVATION_SYNC,
    FIRST_BIT_START,
    L,
    SPEC,
    aligned_payload_run,
    converters,
    data_quad,
    payload_sums,
    trigger_design,
)


# ---------------------------------------------------------------------------
# TriggerSpec and policies
# ---------------------------------------------------------------------------


def test_spec_requires_distinct_opcodes():
    with pytest.raises(TriggerError, match="distinct"):
        TriggerSpec(alpha=1, beta=1, gamma=2, delta=3, opcode_width=4)


def test_spec_requires_fitting_opcodes():
    with pytest.raises(TriggerError, match="fit"):
        TriggerSpec(alpha=1, beta=2, gamma=3, delta=16, opcode_width=4)


# ---------------------------------------------------------------------------
# Event synchronization
# ---------------------------------------------------------------------------


def _conjunction_cycles(trace, lines):
    a, b, c, d = lines
    conj = trace.wave(a) & trace.wave(b) & trace.wave(c) & trace.wave(d)
    return [int(t) for t in np.nonzero(conj)[0]]


def test_event_sync_fires_once_for_ordered_sequence():
    tb = trigger_design()
    program = [0, 0, SPEC.alpha, SPEC.beta, SPEC.gamma, SPEC.delta, 0, 0]
    stim = program_stimulus(program, SPEC, total_cycles=16)
    trace = simulate(tb.netlist, stim, 16)
    assert _conjunction_cycles(trace, tb.lines) == [6]  # the delta cycle


def test_event_sync_ignores_reversed_order():
    tb = trigger_design()
    program = [0, 0, SPEC.delta, SPEC.gamma, SPEC.beta, SPEC.alpha, 0, 0]
    stim = program_stimulus(program, SPEC, total_cycles=16)
    trace = simulate(tb.netlist, stim, 16)
    assert _conjunction_cycles(trace, tb.lines) == []


@pytest.mark.parametrize("gap_pos", range(1, 4))
def test_event_sync_rejects_any_gap(gap_pos):
    tb = trigger_design()
    seq = list(SPEC.opcodes)
    seq.insert(gap_pos, SPEC.filler())  # one filler inside the sequence
    program = [0, 0] + seq + [0, 0]
    stim = program_stimulus(program, SPEC, total_cycles=20)
    trace = simulate(tb.netlist, stim, 20)
    assert _conjunction_cycles(trace, tb.lines) == []


def test_event_sync_checks_bus_width():
    nl = Netlist()
    nl.reset()
    bus = add_opcode_bus(nl, 3)
    with pytest.raises(TriggerError, match="width"):
        build_event_sync(nl, bus, SPEC)


def test_wide_bus_uses_comparator_tree():
    wide = TriggerSpec(alpha=3, beta=5, gamma=700, delta=1100, opcode_width=11)
    nl = Netlist()
    nl.reset()
    bus = add_opcode_bus(nl, 11)
    lines = build_event_sync(nl, bus, wide)
    program = [0, wide.alpha, wide.beta, wide.gamma, wide.delta, 0]
    stim = program_stimulus(program, wide, total_cycles=12)
    trace = simulate(nl, stim, 12)
    assert _conjunction_cycles(trace, lines) == [5]


# ---------------------------------------------------------------------------
# Trigger capture and locking
# ---------------------------------------------------------------------------


def test_aligned_sequence_locks_trigger():
    tb = trigger_design()
    nl, trigger = tb.netlist, tb.trigger
    stim = opcode_stimulus(random_program(30, 16, seed=4), SPEC, Aligned(), L, total_cycles=400)
    trace = simulate(nl, stim, 400)
    assert stim.meta["delta_cycles"] == [L + 1]
    instants, values = fm_decode_all(trace, trigger)
    assert values.tolist() == (instants >= ACTIVATION_SYNC).tolist()


def test_no_sequence_never_activates():
    tb = trigger_design()
    nl, trigger = tb.netlist, tb.trigger
    program = scrub_sequences(random_program(200, 16, seed=8), SPEC)
    stim = program_stimulus(program, SPEC, total_cycles=220)
    trace = simulate(nl, stim, 220)
    assert not fm_decode_all(trace, trigger)[1].any()


def test_unlocked_trigger_reverts_after_one_rotation():
    tb = trigger_design()
    table = fmlogic.make_combiner_table(4, lambda f, ev: ev[0] & ev[1] & ev[2] & ev[3])
    plain = fmlogic.build_fm_register(tb.netlist, tb.sync, table, tb.lines)
    stim = opcode_stimulus([SPEC.filler()], SPEC, Aligned(), L, total_cycles=120)
    trace = simulate(tb.netlist, stim, 120)
    instants, values = fm_decode_all(trace, plain)
    assert instants[values == 1].tolist() == [ACTIVATION_SYNC]  # visible for exactly one rotation
    tap_high = np.nonzero(trace.wave(plain.data_tap))[0]
    window = [t for t in tap_high if L + 2 <= t <= ACTIVATION_SYNC]
    assert len(window) == 2  # marker pass plus the captured bit, then gone


# ---------------------------------------------------------------------------
# Alignment policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("total_cycles", [48, None])
def test_random_retry_placement_and_alignment_classes(total_cycles):
    tb = trigger_design()
    nl, trigger = tb.netlist, tb.trigger
    seen_offsets = set()
    hits = 0
    trials = 64
    for seed in range(trials):
        stim = opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(1, seed=seed), L, total_cycles=total_cycles)
        delta = stim.meta["delta_cycles"][0]
        seen_offsets.add((delta - 1) % L)
        n = stim.length
        trace = simulate(nl, stim, n)
        got = fm_decode_all(trace, trigger)[1][-1]
        assert got == (1 if (delta - 1) % L == 0 else 0)
        hits += got
    assert seen_offsets == set(range(L))  # uniform draw covers every class
    assert 0 < hits < trials  # roughly 1/L of the draws activate


def test_random_retry_meta_records_attempts():
    stim = opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(5, seed=3), L)
    assert len(stim.meta["delta_cycles"]) == 5
    assert stim.meta["seed"] == 3


@pytest.mark.parametrize("ring", [4, 6, 8, 12, 16])
def test_random_retry_deltas_match_one_draw_per_attempt(ring):
    # the offsets are drawn in one call; each must be the draw a scalar
    # call per attempt gives, so seeded retry stimuli do not change
    for seed in range(200):
        attempts = 1 + seed % 33
        rng = np.random.default_rng(seed)
        want = [1 + i * (ring + RETRY_GAP) + int(rng.integers(0, ring)) + 3 for i in range(attempts)]
        stim = opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(attempts, seed=seed), ring)
        assert stim.meta["delta_cycles"] == want


# ---------------------------------------------------------------------------
# Concealment quad
# ---------------------------------------------------------------------------


def _quad_under_toggle(n=400, seed=31):
    nl, quad = data_quad()
    rng = np.random.default_rng(seed)
    stim = Stimulus.standard(n, nl, DATA=rng.integers(0, 2, n).astype(np.uint8))
    trace = simulate(nl, stim, n)
    return trace, quad


def test_quad_duality_and_stage_complements():
    trace, quad = _quad_under_toggle()
    _, da = fm_decode_all(trace, quad.a, start=2 * L + 1)
    _, db = fm_decode_all(trace, quad.b, start=2 * L + 1)
    assert (db == 1 - da).all()
    a = trace.values[1:, list(quad.a.stages)]
    c = trace.values[1:, list(quad.c.stages)]
    b = trace.values[1:, list(quad.b.stages)]
    d = trace.values[1:, list(quad.d.stages)]
    assert ((a ^ c) == 1).all()
    assert ((b ^ d) == 1).all()
    assert quad.stage_nets() == quad.a.stages + quad.b.stages + quad.c.stages + quad.d.stages


def test_quad_transition_balance_always_six():
    """6 rises and 6 falls from cycle 3 on, for any data."""
    trace, quad = _quad_under_toggle()
    assert sidechannel.quad_balance(sidechannel.power_trace(trace, quad.stage_nets()), 2, 400)[3] is None
    # one register of the quad instead of all four breaks it at once
    assert sidechannel.quad_balance(sidechannel.power_trace(trace, quad.a.stages), 5, 400)[3] == 5


def test_quad_static_count_is_two_l():
    trace, quad = _quad_under_toggle()
    # the ones balance from cycle 1; the step into cycle 2 still carries the load
    _, _, ones, bad = sidechannel.quad_balance(sidechannel.power_trace(trace, quad.stage_nets()), 1, 400)
    assert bad == 2
    assert set(ones.tolist()) == {2 * L}


def test_armed_quad_rejects_wide_carriers():
    nl, sync, sigs = converters("I0", "I1", "I2", "I3")
    from fmlab.netcore import tt_or

    gate = fmlogic.build_fm_gate(nl, tt_or(4), sigs, sync)
    lines = [nl.add_input(n) for n in "WXYZ"]
    trig = build_trigger(nl, *lines, sync)
    with pytest.raises(PayloadError, match="3 data inputs"):
        build_concealed(nl, gate, sync, trigger=trig)
    build_concealed(nl, gate, sync)  # unarmed replication is fine


def test_armed_quad_rejects_a_trigger_of_another_length():
    nl, sync, (carrier,) = converters("DATA")
    sync4 = build_sync(nl, 4)
    trig4 = build_trigger(nl, *[nl.add_input(n) for n in "WXYZ"], sync4)
    cells = len(nl.cells)
    # its decode flip-flop would sample a 4-cycle ring at 8-cycle SYNC instants
    with pytest.raises(PayloadError, match=r"mixed CSR lengths: trigger L=4, sync L=8"):
        build_concealed(nl, carrier, sync, trigger=trig4)
    assert len(nl.cells) == cells  # rejected before any wiring


def test_quad_requires_combining_lut():
    nl = Netlist()
    sync = build_sync(nl, L)
    rotor = fmlogic.build_fm_csr(nl, L)
    with pytest.raises(PayloadError, match="combining"):
        build_concealed(nl, rotor, sync)


# ---------------------------------------------------------------------------
# Payload modes
# ---------------------------------------------------------------------------


def test_mode_change_requires_armed_quad():
    nl = Netlist()
    sync = build_sync(nl, L)
    carrier = build_std_to_fm(nl, nl.const(0), sync)
    quad = build_concealed(nl, carrier, sync)
    assert quad.active is None
    with pytest.raises(PayloadError, match="armed"):
        set_payload_mode(quad, PayloadMode.MODE1)
    set_payload_mode(quad, PayloadMode.CONCEALED)  # concealed is always valid


def test_payload_modes_rewrite_the_ring_enables():
    nl, sync, trig, carrier = _trigger_and_carrier()
    quad = build_concealed(nl, carrier, sync, trigger=trig)
    assert nl.ff(quad.active).d == trig.data_tap  # the decoded trigger level
    hold, drop = tt_const(1, 1), tt_not()
    # (b's enable, c's and d's enable) per mode, each mode set over the last
    expected = {
        PayloadMode.MODE1: (drop, drop),
        PayloadMode.MODE2: (hold, drop),
        PayloadMode.CONCEALED: (hold, hold),
    }
    for mode, (b_table, cd_table) in expected.items():
        set_payload_mode(quad, mode)
        for reg, table in ((quad.b, b_table), (quad.c, cd_table), (quad.d, cd_table)):
            (ce,) = {nl.ff(q).ce for q in reg.stages}
            assert nl.lut(ce).inputs == (quad.active,)
            assert nl.lut(ce).table == table, (mode, reg)


def test_concealed_mode_sums_constant_regardless_of_bit():
    for bit in "01":
        trace, design = aligned_payload_run(bit * 8, PayloadMode.CONCEALED)
        sums = payload_sums(trace, design, 8)
        assert set(int(v) for v in sums) == {96}  # 12 transitions per cycle * 8


def test_frozen_replicas_stop_toggling_in_mode1():
    trace, design = aligned_payload_run("1" * 8, PayloadMode.MODE1)
    quad = design.quad
    frozen = list(quad.b.stages) + list(quad.c.stages) + list(quad.d.stages)
    sub = trace.values[FIRST_BIT_START:, frozen]
    assert (sub == sub[0]).all()


def test_mode2_b_mirrors_a_after_activation():
    trace, design = aligned_payload_run("10110100", PayloadMode.MODE2)
    a = trace.values[FIRST_BIT_START:, list(design.quad.a.stages)]
    b = trace.values[FIRST_BIT_START:, list(design.quad.b.stages)]
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Payload transmitter
# ---------------------------------------------------------------------------


def test_transmitter_replays_secret_pattern():
    trace, design = aligned_payload_run("1011", PayloadMode.MODE1)
    sums = payload_sums(trace, design, 4)
    assert [s > 24 for s in sums] == [True, False, True, True]


def test_transmitter_all_zero_secret_flat_low():
    trace, design = aligned_payload_run("0000", PayloadMode.MODE1)
    sums = payload_sums(trace, design, 4)
    assert set(int(v) for v in sums) == {16}


def test_transmitter_repeats_secret_after_wrap():
    trace, design = aligned_payload_run("10", PayloadMode.MODE1, extra_cycles=6 * L)
    from fmlab.sidechannel import period_sums, power_trace

    pt = power_trace(trace, design.quad.stage_nets())
    sums = period_sums(pt, L, FIRST_BIT_START, 6)
    bits = [int(s > 24) for s in sums]
    assert bits == [1, 0, 1, 0, 1, 0]


def test_transmitter_concealed_before_activation():
    trace, design = aligned_payload_run("1111", PayloadMode.MODE1)
    dynamic = power_reference(trace, design.quad.stage_nets())[0]
    # every change into a cycle before the activation edge is the balanced count
    assert set(dynamic[3:ACTIVATION_SYNC]) == {12}


def test_transmitter_requires_armed_carrier():
    tb = trigger_design()
    nl, sync, trig = tb.netlist, tb.sync, tb.trigger
    carrier = build_std_to_fm(nl, nl.const(0), sync)
    quad = build_concealed(nl, carrier, sync)  # unarmed
    with pytest.raises(PayloadError, match="armed"):
        build_payload_transmitter(nl, "101", trig, quad, sync)
    quad = build_concealed(nl, carrier, sync, trigger=trig)
    other = build_trigger(nl, *tb.lines, sync)
    with pytest.raises(PayloadError, match="different trigger"):
        build_payload_transmitter(nl, "101", other, quad, sync)


def test_transmitter_rejects_a_sync_of_another_length():
    nl, sync, trig, carrier = _trigger_and_carrier()
    quad = build_concealed(nl, carrier, sync, trigger=trig)
    # the secret counter would advance on a 4-cycle SYNC tap
    with pytest.raises(PayloadError, match=r"mixed CSR lengths: carrier L=8, sync L=4"):
        build_payload_transmitter(nl, "101", trig, quad, build_sync(nl, 4))


def test_transmitter_rejects_bad_secret():
    d = construct_design(ScenarioConfig(payload_mode="mode1", secret="1"))
    with pytest.raises(PayloadError, match="secret"):
        build_payload_transmitter(d.netlist, "10a1", d.trigger, d.quad, d.sync)
    with pytest.raises(PayloadError, match="secret"):
        build_payload_transmitter(d.netlist, "", d.trigger, d.quad, d.sync)


def test_replicas_of_a_retargeted_carrier_read_the_transmitter():
    design = construct_design(ScenarioConfig(payload_mode="mode1", secret="1011"))
    nl = design.netlist
    tx = nl.lut(design.quad.a.combiner_out).inputs[COMBINER_DATA_POS]
    assert nl.lut(tx).inputs[1] == design.quad.active  # the transmitter's output gate
    assert tx != nl.const(0)
    again = build_concealed(nl, design.quad.a, design.sync)
    for reg in (again.b, again.c, again.d):
        assert nl.lut(reg.combiner_out).inputs[COMBINER_DATA_POS:] == (tx,)


def _trigger_and_carrier():
    tb = trigger_design()
    return tb.netlist, tb.sync, tb.trigger, build_std_to_fm(tb.netlist, tb.netlist.const(0), tb.sync)


def _or_tree_size(n: int) -> int:
    size = 0
    while True:
        n = -(-n // 6)
        size += n
        if n == 1:
            return size


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=300))
def test_transmitter_selection_tables_or_the_secret_lines(secret):
    nl, sync, trig, carrier = _trigger_and_carrier()
    quad = build_concealed(nl, carrier, sync, trigger=trig)
    first = len(nl.cells)
    tx = build_payload_transmitter(nl, secret, trig, quad, sync)
    for reg in (quad.a, quad.b, quad.c, quad.d):
        assert nl.lut(reg.combiner_out).inputs[COMBINER_DATA_POS] == tx
    cells = nl.cells[first:]
    # each ring line carries its secret bit, each selection LUT output '1'
    bit = {ff.q: s for ff, s in zip((c for c in cells if isinstance(c, FlipFlop)), secret, strict=True)}
    checked = 0
    for lut in (c for c in cells if isinstance(c, Lut)):
        if all(net in bit for net in lut.inputs):
            ch = [bit[net] for net in lut.inputs]
            expected = TruthTable.from_function(
                len(ch), lambda *b: int(any(v and s == "1" for v, s in zip(b, ch)))
            )
            assert lut.table == expected
            bit[lut.out] = "1"
            checked += 1
    assert checked == _or_tree_size(len(secret))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))),
    st.booleans(),
)
def test_complement_and_armed_tables_match_their_definitions(case, mirror):
    arity, bits = case
    a = TruthTable.from_bits(arity, bits)
    fb = 1 << COMBINER_FB_POS

    def index(args):
        return sum(v << b for b, v in enumerate(args))

    def armed(*args):
        if mirror and args[-1]:
            return a.value(index(args[:-1]))
        return 1 - a.value(index(args[:-1]) ^ fb)

    assert _dual_table(a) == TruthTable.from_function(arity, lambda *args: 1 - a.value(index(args) ^ fb))
    if arity < 6:
        assert _armed_b_table(a, mirror) == TruthTable.from_function(arity + 1, armed)


def test_payload_tables_are_built_without_from_function(monkeypatch):
    nl, sync, trig, carrier = _trigger_and_carrier()

    def fail(*args):
        raise AssertionError("TruthTable.from_function called")

    monkeypatch.setattr(TruthTable, "from_function", fail)
    quad = build_concealed(nl, carrier, sync, trigger=trig)
    set_payload_mode(quad, PayloadMode.MODE2)
    build_payload_transmitter(nl, "1011" * 16, trig, quad, sync)


# ---------------------------------------------------------------------------
# Baseline condition trojan
# ---------------------------------------------------------------------------


def test_baseline_constant_without_magic():
    nl = Netlist()
    nl.reset()
    bus = add_opcode_bus(nl, 4)
    out = build_baseline_trojan(nl, bus, magic=13)
    program = [o for o in random_program(120, 16, seed=6) if o != 13]
    stim = program_stimulus(program, SPEC, total_cycles=len(program) + 1)
    trace = simulate(nl, stim, len(program) + 1)
    assert not trace.wave(out).any()


def test_baseline_single_hit_with_magic():
    nl = Netlist()
    nl.reset()
    bus = add_opcode_bus(nl, 4)
    out = build_baseline_trojan(nl, bus, magic=13)
    program = [0, 1, 13, 2, 0]
    stim = program_stimulus(program, SPEC, total_cycles=8)
    trace = simulate(nl, stim, 8)
    assert [t for t in range(8) if trace.value(out, t)] == [3]


# ---------------------------------------------------------------------------
# Stimulus helpers
# ---------------------------------------------------------------------------


def test_scrub_breaks_accidental_sequences():
    program = [0, *SPEC.opcodes, 1, *SPEC.opcodes]
    scrubbed = scrub_sequences(program, SPEC)
    for i in range(len(scrubbed) - 3):
        assert tuple(scrubbed[i : i + 4]) != SPEC.opcodes


def test_program_stimulus_validation():
    with pytest.raises(TriggerError, match="nonempty"):
        program_stimulus([], SPEC)
    with pytest.raises(TriggerError, match="fit"):
        program_stimulus([99], SPEC)
    with pytest.raises(TriggerError, match="shorter"):
        program_stimulus([1, 2, 3], SPEC, total_cycles=2)
    # opcode_stimulus checks the program, then the ring length and the
    # policy, then the horizon
    with pytest.raises(TriggerError, match="nonempty"):
        opcode_stimulus([], SPEC, "bogus", L)
    with pytest.raises(TriggerError, match=r"opcodes \[16, -1\] do not fit"):
        opcode_stimulus([1, 16, -1], SPEC, "bogus", L)
    with pytest.raises(TriggerError, match="unknown alignment policy 'bogus'"):
        opcode_stimulus([1], SPEC, "bogus", L, total_cycles=1)
    # the aligned sequence ends on cycle L + 1, past the one-opcode program
    with pytest.raises(TriggerError, match=rf"total_cycles {L} shorter than program \({L + 2}\)"):
        opcode_stimulus([1], SPEC, Aligned(), L, total_cycles=L)


@pytest.mark.parametrize("policy", [Aligned(), RandomRetry(2, seed=1)])
@pytest.mark.parametrize("ring", [-2, 0, 1, 2, 3, 5])
def test_opcode_stimulus_checks_the_ring_length(policy, ring):
    # L = 2 would place an aligned sequence's alpha on cycle 0, inside
    # reset, and L = 1 fails inside numpy; the designs take no such L
    with pytest.raises(TriggerError, match=rf"CSR length must be even and at least 4, got {ring}"):
        opcode_stimulus([1, 2, 9, 9], SPEC, policy, ring)
    # with no policy nothing is placed, so L is not read
    assert opcode_stimulus([1, 2, 9, 9], SPEC, None, ring).length == 5


def test_retry_trial_simulates_as_the_reference():
    # c6's first trial, whole: its one stage revisits few (state, input)
    # keys, so most cycles come from the simulator's memo
    nl = trigger_design().netlist
    stim = opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(32, seed=10_000), L)
    want = reference_simulate(nl, stim, stim.length)
    assert np.array_equal(simulate(nl, stim, stim.length).values, want.values)
