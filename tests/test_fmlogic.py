"""FM encoding, converters, gates, composition, locking, decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fmlab import fmlogic
from fmlab.fmlogic import (
    FmError,
    FmExpr,
    MalformedFmError,
    build_const_fm,
    build_fm_csr,
    build_fm_gate,
    build_locking_and,
    build_ring,
    build_std_to_fm,
    build_sync,
    compose_fm,
    duty_cycle,
    fm_decode,
    fm_decode_all,
    sync_instants,
)
from fmlab.netcore import Netlist, Stimulus, Trace, TruthTable, simulate, tt_and, tt_or, tt_xor
from fmlab.verify import converters, two_input_gate

L = 8


# ---------------------------------------------------------------------------
# SYNC generator and free-running registers
# ---------------------------------------------------------------------------


def test_sync_reset_pattern_and_tap():
    nl = Netlist()
    sync = build_sync(nl, 8)
    trace = simulate(nl, Stimulus.standard(20, nl), 20)
    assert [trace.value(s, 1) for s in sync.stages] == [0, 0, 0, 1, 0, 0, 0, 0]
    assert [t for t in range(20) if trace.value(sync.data_tap, t)] == [1, 9, 17]


def test_sync_shortest_length():
    nl = Netlist()
    sync = build_sync(nl, 4)
    trace = simulate(nl, Stimulus.standard(14, nl), 14)
    assert [t for t in range(14) if trace.value(sync.data_tap, t)] == [1, 5, 9, 13]


@pytest.mark.parametrize("bad", [3, 2, 7, 0])
def test_sync_rejects_bad_lengths(bad):
    with pytest.raises(FmError) as built:
        build_sync(Netlist(), bad)
    with pytest.raises(FmError, match=f"^{built.value}$"):
        sync_instants(bad, 10)


def test_fm_csr_reset_pattern():
    nl = Netlist()
    csr = build_fm_csr(nl, 8)
    trace = simulate(nl, Stimulus.standard(4, nl), 4)
    assert [trace.value(s, 1) for s in csr.stages] == [0, 0, 0, 0, 0, 0, 0, 1]


def test_fm_csr_reset_pattern_l4():
    nl = Netlist()
    csr = build_fm_csr(nl, 4)
    trace = simulate(nl, Stimulus.standard(4, nl), 4)
    assert [trace.value(s, 1) for s in csr.stages] == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Standard-to-FM conversion
# ---------------------------------------------------------------------------


def test_converter_high_input_decodes_one_after_first_rotation():
    nl, sync, (conv,) = converters("A")
    trace = simulate(nl, Stimulus.standard(60, nl, A=1), 60)
    assert fm_decode_all(trace, conv)[1].tolist() == [1] * 7


def test_converter_low_input_stays_in_reset_encoding():
    nl, sync, (conv,) = converters("A")
    trace = simulate(nl, Stimulus.standard(60, nl, A=0), 60)
    assert fm_decode_all(trace, conv)[1].tolist() == [0] * 7
    # marker-only pattern at every SYNC instant
    assert [trace.value(s, 17) for s in conv.stages] == [0, 0, 0, 0, 0, 0, 0, 1]


def test_converter_samples_exactly_at_sync_instants():
    nl, sync, (conv,) = converters("A")
    # one bit per period, the cycles on each side of its SYNC instant the
    # opposite value: sampling a cycle early or late decodes the complement
    instants = sync_instants(L, 120 - L, start=1)
    bits = np.resize([0, 1, 1, 0], len(instants))
    wave = np.zeros(120, np.uint8)
    for t, bit in zip(instants, bits):
        wave[t - 1 : t + 2] = (1 - bit, bit, 1 - bit)
    trace = simulate(nl, Stimulus.standard(120, nl, A=wave), 120)
    assert fm_decode_all(trace, conv)[1].tolist() == bits.tolist()  # one period later


# ---------------------------------------------------------------------------
# FM gates
# ---------------------------------------------------------------------------


def test_or_gate_figure_rows():
    nl, sync, (ca, cb), gate = two_input_gate(tt_or(2))
    trace = simulate(nl, Stimulus.standard(60, nl, A=0, B=1), 60)
    # steady state: after combination at SYNC instant t, the marker walks
    # stages 1..8 while the result bit stays half a rotation behind
    t0 = 17
    for k in range(1, 9):
        row = [trace.value(s, t0 + k) for s in gate.stages]
        marker = (k - 1) % 8
        data = (marker + 4) % 8
        expect = [0] * 8
        expect[marker] = 1
        expect[data] = 1
        assert row == expect, f"row {k}"
    assert fm_decode(trace, gate, 25).value == 1


def test_gate_rejects_constant_function():
    nl, sync, (conv,) = converters("A")
    with pytest.raises(FmError, match="constant"):
        build_fm_gate(nl, TruthTable.from_bits(1, 0b00), [conv], sync)


def test_gate_rejects_more_than_four_inputs():
    nl, sync, sigs = converters(*(f"I{j}" for j in range(5)))
    with pytest.raises(FmError, match="compose"):
        build_fm_gate(nl, tt_or(5), sigs, sync)


def test_gate_rejects_mixed_lengths():
    nl = Netlist()
    sync8 = build_sync(nl, 8)
    sync4 = build_sync(nl, 4)
    a = nl.add_input("A")
    conv4 = build_std_to_fm(nl, a, sync4)
    with pytest.raises(FmError, match="mixed"):
        build_fm_gate(nl, TruthTable.from_bits(1, 0b10), [conv4], sync8)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_wide_function_splits_into_two_gates():
    # a 6-input function built as XOR feeding an OR-fold node: one gate
    # per internal node, every gate output active
    nl, sync, sigs = converters(*(f"I{j}" for j in range(5)))
    cells_before = len(nl.cells)
    expr = FmExpr(
        table=TruthTable.from_function(4, lambda s, x, y, z: s | (x & y & z)),
        args=(FmExpr(table=tt_xor(2), args=(sigs[0], sigs[1])), sigs[2], sigs[3], sigs[4]),
    )
    out = compose_fm(nl, expr, sync)
    gates_added = (len(nl.cells) - cells_before) // (L + 1)
    assert gates_added == 2

    for assign in itertools.product((0, 1), repeat=5):
        stim = Stimulus.standard(60, nl, **{f"I{j}": v for j, v in enumerate(assign)})
        trace = simulate(nl, stim, 60)
        want = (assign[0] ^ assign[1]) | (assign[2] & assign[3] & assign[4])
        assert fm_decode(trace, out, 41).value == want, assign


def test_compose_rejects_constant_subfunction():
    nl, sync, sigs = converters("I0", "I1")
    expr = FmExpr(table=TruthTable.from_bits(2, 0b1111), args=(sigs[0], sigs[1]))
    with pytest.raises(FmError, match="constant"):
        compose_fm(nl, expr, sync)


def test_compose_rejects_five_ary_node():
    nl, sync, sigs = converters(*(f"I{j}" for j in range(5)))
    expr = FmExpr(table=tt_or(5), args=tuple(sigs))
    with pytest.raises(FmError, match="compose"):
        compose_fm(nl, expr, sync)


def test_flat_four_ary_and_vs_tree_latency():
    def build(flat: bool):
        nl, sync, sigs = converters("I0", "I1", "I2", "I3")
        if flat:
            expr = FmExpr(table=tt_and(4), args=tuple(sigs))
        else:
            expr = FmExpr(
                table=tt_and(2),
                args=(
                    FmExpr(table=tt_and(2), args=(sigs[0], sigs[1])),
                    FmExpr(table=tt_and(2), args=(sigs[2], sigs[3])),
                ),
            )
        return nl, expr, compose_fm(nl, expr, sync)

    present = 3 * L + 1
    waves = {}
    for j in range(4):
        w = np.zeros(100, np.uint8)
        w[present:] = 1
        waves[f"I{j}"] = w

    results = {}
    for flat in (True, False):
        nl, expr, out = build(flat)
        trace = simulate(nl, Stimulus.standard(100, nl, **waves), 100)
        depth = expr.depth()
        # inputs valid (decodable) at present + L; output depth rotations later
        settle = present + L + depth * L
        assert fm_decode(trace, out, settle).value == 1, f"flat={flat}"
        assert fm_decode(trace, out, settle - L).value == 0, f"flat={flat} settled early"
        results[flat] = fm_decode(trace, out, 65).value
    assert results[True] == results[False] == 1  # same decoded function


# ---------------------------------------------------------------------------
# Locking AND
# ---------------------------------------------------------------------------


def _locking_design():
    nl, sync, (ca, cb) = converters("A", "B")
    return nl, build_locking_and(nl, ca, cb, sync)


def test_locking_latches_after_one_aligned_coincidence():
    nl, lock = _locking_design()
    pulse_at = 3 * L + 1  # one SYNC instant
    aw = np.zeros(300, np.uint8)
    bw = np.zeros(300, np.uint8)
    aw[pulse_at] = 1
    bw[pulse_at] = 1
    trace = simulate(nl, Stimulus.standard(300, nl, A=aw, B=bw), 300)
    instants, values = fm_decode_all(trace, lock)
    assert values.tolist() == (instants >= pulse_at + 2 * L).tolist()


def test_locking_never_fires_without_coincidence():
    nl, lock = _locking_design()
    aw = np.tile([1, 0], 150)[:300]
    bw = np.tile([0, 1], 150)[:300]  # high on alternating cycles, never together
    trace = simulate(nl, Stimulus.standard(300, nl, A=aw, B=bw), 300)
    assert not fm_decode_all(trace, lock)[1].any()


@pytest.mark.parametrize("offset", range(1, L))
def test_locking_ignores_misaligned_pulses(offset):
    nl, lock = _locking_design()
    n = 200
    wave = np.zeros(n, np.uint8)
    for t in range(1 + offset, n, L):  # every cycle congruent to 1+offset
        wave[t] = 1
    trace = simulate(nl, Stimulus.standard(n, nl, A=wave, B=wave), n)
    assert not fm_decode_all(trace, lock)[1].any()


# ---------------------------------------------------------------------------
# Decoding and duty cycles
# ---------------------------------------------------------------------------


def test_decode_const_rotors():
    nl = Netlist()
    r0 = build_const_fm(nl, L, 0)
    r1 = build_const_fm(nl, L, 1)
    trace = simulate(nl, Stimulus.standard(40, nl), 40)
    bit0 = fm_decode(trace, r0, 17)
    bit1 = fm_decode(trace, r1, 17)
    assert (bit0.value, bit0.period) == (0, 8)
    assert (bit1.value, bit1.period) == (1, 4)


def test_decode_rejects_corrupted_ring():
    nl = Netlist()
    qs = build_ring(nl, L, [4, 5])  # two adjacent circulating ones
    ring = fmlogic.FmSignal(tuple(qs))
    trace = simulate(nl, Stimulus.standard(40, nl), 40)
    with pytest.raises(MalformedFmError, match=rf"^tap {ring.data_tap} at cycle 9: "):
        fm_decode(trace, ring, 9)


def _decode_per_instant(wave, L, start, stop):
    """The decode rule one SYNC instant at a time: the values read before
    the first malformed instant, and that instant (None if there is none)."""
    values = []
    for t in range(start, stop):
        if (t - 1) % L:
            continue
        window = wave[t - L : t + 1].tolist()
        edges = sum(a == 0 and b == 1 for a, b in zip(window, window[1:]))
        if edges != window[-1] + 1:
            return values, t
        values.append(window[-1])
    return values, None


@st.composite
def fm_tap_cases(draw):
    """An FM register's tap over n cycles, as (L, n, bits, flips, start, stop).

    The tap carries one value per SYNC instant 1, 1 + L, ... (``bits``)
    and a marker pulse half a period after each; ``flips`` lists the 0-2
    samples to invert, and [start, stop) is the range to decode.
    """
    L = draw(st.sampled_from([4, 6, 8, 12, 16]))
    n = draw(st.integers(2 * L + 1, 12 * L))
    periods = len(range(1, n, L))
    bits = draw(st.lists(st.integers(0, 1), min_size=periods, max_size=periods))
    # a seeded draw spreads the flips evenly; hypothesis's own leans to cycle 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flips = rng.choice(n, draw(st.integers(0, 2)), replace=False).tolist()
    # by default decoding runs from L + 1 to the trace's end
    start = draw(st.one_of(st.just(L + 1), st.integers(L + 1, n - 1)))
    return L, n, bits, flips, start, draw(st.one_of(st.just(n), st.integers(start + 1, n)))


@settings(max_examples=300, deadline=None)
@given(fm_tap_cases())
# a 1 flipped in right after a SYNC instant that reads 0: only an edge
# count from that instant (cycles t - L + 1 .. t) sees it, at t = 17
@example((8, 18, [0, 0, 0], [10], 9, 18))
def test_decode_all_matches_per_instant_count(case):
    L, n, bits, flips, start, stop = case
    wave = np.zeros(n, np.uint8)
    wave[1::L] = bits
    wave[1 + L // 2 :: L] = 1  # the marker
    wave[flips] ^= 1
    trace = Trace(values=wave[:, None], names=("TAP",))
    want, bad = _decode_per_instant(wave, L, start, stop)
    event(f"L={L}")
    event("well-formed" if bad is None else "malformed")
    if bad is not None:
        with pytest.raises(MalformedFmError, match=rf"^tap 0 at cycle {bad}: "):
            fm_decode_all(trace, fmlogic.FmSignal((0,) * L), start, stop)
        return
    instants, values = fm_decode_all(trace, fmlogic.FmSignal((0,) * L), start, stop)
    assert instants.tolist() == [t for t in range(start, stop) if (t - 1) % L == 0]
    assert values.tolist() == want


def test_decode_validates_cycle():
    nl = Netlist()
    r0 = build_const_fm(nl, L, 0)
    trace = simulate(nl, Stimulus.standard(40, nl), 40)
    with pytest.raises(FmError, match="SYNC instant"):
        fm_decode(trace, r0, 18)
    with pytest.raises(FmError, match="history"):
        fm_decode(trace, r0, 1)
    with pytest.raises(FmError, match="beyond"):
        fm_decode(trace, r0, 41)
    with pytest.raises(FmError, match="beyond"):
        fm_decode_all(trace, r0, stop=41)
    assert fm_decode_all(trace, r0, 17, 17)[0].tolist() == []
