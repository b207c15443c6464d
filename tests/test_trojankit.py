"""Trigger circuitry, concealment quads, payload modes, transmitter."""

import numpy as np
import pytest

from fmlab import fmlogic, sidechannel
from fmlab.cli import ScenarioConfig, construct_design
from fmlab.fmlogic import build_std_to_fm, build_sync, fm_decode, sync_instants
from fmlab.netcore import Netlist, Stimulus, simulate
from fmlab.trojankit import (
    Aligned,
    PayloadError,
    PayloadMode,
    RandomRetry,
    TriggerError,
    TriggerSpec,
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


def test_random_retry_needs_attempts():
    with pytest.raises(TriggerError):
        RandomRetry(attempts=0)


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
    for t in sync_instants(L, 400, start=L + 1):
        want = 1 if t >= ACTIVATION_SYNC else 0
        assert fm_decode(trace, trigger, t).value == want, t


def test_no_sequence_never_activates():
    tb = trigger_design()
    nl, trigger = tb.netlist, tb.trigger
    program = scrub_sequences(random_program(200, 16, seed=8), SPEC)
    stim = program_stimulus(program, SPEC, total_cycles=220)
    trace = simulate(nl, stim, 220)
    for t in sync_instants(L, 220, start=L + 1):
        assert fm_decode(trace, trigger, t).value == 0


def test_unlocked_trigger_reverts_after_one_rotation():
    nl = Netlist()
    sync = build_sync(nl, L)
    bus = add_opcode_bus(nl, SPEC.opcode_width)
    lines = build_event_sync(nl, bus, SPEC)
    plain = build_trigger(nl, *lines, sync, locking=False)
    stim = opcode_stimulus([SPEC.filler()], SPEC, Aligned(), L, total_cycles=120)
    trace = simulate(nl, stim, 120)
    decoded = {t: fm_decode(trace, plain, t).value for t in sync_instants(L, 120, start=L + 1)}
    assert decoded[ACTIVATION_SYNC] == 1
    assert sum(decoded.values()) == 1  # visible for exactly one rotation
    tap_high = np.nonzero(trace.wave(plain.data_tap))[0]
    window = [t for t in tap_high if L + 2 <= t <= ACTIVATION_SYNC]
    assert len(window) == 2  # marker pass plus the captured bit, then gone


# ---------------------------------------------------------------------------
# Alignment policies
# ---------------------------------------------------------------------------


def test_aligned_policy_is_the_single_activating_phase_class():
    activating = []
    for phase in range(L):
        tb = trigger_design()
        program = [SPEC.filler()] * 40
        start = (L + 1) + phase - 3  # delta lands at L+1+phase
        for j, op in enumerate(SPEC.opcodes):
            program[start - 1 + j] = op
        stim = program_stimulus(program, SPEC, total_cycles=60)
        trace = simulate(tb.netlist, stim, 60)
        last = max(sync_instants(L, 60, start=L + 1))
        activating.append(fm_decode(trace, tb.trigger, last).value)
    assert activating == [1, 0, 0, 0, 0, 0, 0, 0]
    assert sum(activating) == 1


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
        last = max(sync_instants(L, n, start=L + 1))
        got = fm_decode(trace, trigger, last).value
        assert got == (1 if (delta - 1) % L == 0 else 0)
        hits += got
    assert seen_offsets == set(range(L))  # uniform draw covers every class
    assert 0 < hits < trials  # roughly 1/L of the draws activate


def test_random_retry_meta_records_attempts():
    stim = opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(5, seed=3), L)
    assert len(stim.meta["delta_cycles"]) == 5
    assert stim.meta["seed"] == 3


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
    for t in sync_instants(L, 400, start=2 * L + 1):
        da = fm_decode(trace, quad.a, t).value
        db = fm_decode(trace, quad.b, t).value
        assert db == 1 - da
    a = trace.values[1:, list(quad.a.csr.stages)]
    c = trace.values[1:, list(quad.c.stages)]
    b = trace.values[1:, list(quad.b.csr.stages)]
    d = trace.values[1:, list(quad.d.stages)]
    assert ((a ^ c) == 1).all()
    assert ((b ^ d) == 1).all()


def test_quad_transition_balance_always_six():
    """6 rises and 6 falls from cycle 3 on, for any data."""
    trace, quad = _quad_under_toggle()
    assert sidechannel.quad_balance(trace, quad.stage_nets(), 2, 400)[3] is None
    # one register of the quad instead of all four breaks it at once
    assert sidechannel.quad_balance(trace, list(quad.a.csr.stages), 5, 400)[3] == 5


def test_quad_static_count_is_two_l():
    trace, quad = _quad_under_toggle()
    # the ones balance from cycle 1; the step into cycle 2 still carries the load
    _, _, ones, bad = sidechannel.quad_balance(trace, quad.stage_nets(), 1, 400)
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


def test_quad_requires_combining_lut():
    nl = Netlist()
    sync = build_sync(nl, L)
    rotor = fmlogic.build_fm_csr(nl, L)
    sig = fmlogic.FmSignal(csr=rotor, combiner_out=None, data_inputs=())
    with pytest.raises(PayloadError, match="combining"):
        build_concealed(nl, sig, sync)


# ---------------------------------------------------------------------------
# Payload modes
# ---------------------------------------------------------------------------


def test_mode_change_requires_armed_quad():
    nl = Netlist()
    sync = build_sync(nl, L)
    carrier = build_std_to_fm(nl, nl.const(0), sync)
    quad = build_concealed(nl, carrier, sync)
    with pytest.raises(PayloadError, match="armed"):
        set_payload_mode(quad, PayloadMode.MODE1)
    set_payload_mode(quad, PayloadMode.CONCEALED)  # concealed is always valid


def test_concealed_mode_sums_constant_regardless_of_bit():
    for bit in "01":
        trace, design = aligned_payload_run(bit * 8, PayloadMode.CONCEALED)
        sums = payload_sums(trace, design, 8)
        assert set(int(v) for v in sums) == {96}  # 12 transitions per cycle * 8


def test_frozen_replicas_stop_toggling_in_mode1():
    trace, design = aligned_payload_run("1" * 8, PayloadMode.MODE1)
    quad = design.quad
    frozen = list(quad.b.csr.stages) + list(quad.c.stages) + list(quad.d.stages)
    sub = trace.values[FIRST_BIT_START:, frozen]
    assert (sub == sub[0]).all()


def test_mode2_b_mirrors_a_after_activation():
    trace, design = aligned_payload_run("10110100", PayloadMode.MODE2)
    a = trace.values[FIRST_BIT_START:, list(design.quad.a.csr.stages)]
    b = trace.values[FIRST_BIT_START:, list(design.quad.b.csr.stages)]
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
    sub = trace.values[:, list(design.quad.stage_nets())].astype(np.int16)
    dyn = (np.abs(sub[1:] - sub[:-1])).sum(axis=1)
    # every boundary before the activation edge shows the balanced count
    pre = dyn[2 : ACTIVATION_SYNC - 1]
    assert set(pre.tolist()) == {12}


def test_transmitter_requires_armed_carrier():
    nl = Netlist()
    sync = build_sync(nl, L)
    bus = add_opcode_bus(nl, SPEC.opcode_width)
    lines = build_event_sync(nl, bus, SPEC)
    trig = build_trigger(nl, *lines, sync)
    carrier = build_std_to_fm(nl, nl.const(0), sync)
    quad = build_concealed(nl, carrier, sync)  # unarmed
    with pytest.raises(PayloadError, match="armed"):
        build_payload_transmitter(nl, "101", trig, quad, sync)


def test_transmitter_rejects_bad_secret():
    d = construct_design(ScenarioConfig(payload_mode="mode1", secret="1"))
    with pytest.raises(PayloadError, match="secret"):
        build_payload_transmitter(d.netlist, "10a1", d.trigger, d.quad, d.sync)
    with pytest.raises(PayloadError, match="secret"):
        build_payload_transmitter(d.netlist, "", d.trigger, d.quad, d.sync)


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
