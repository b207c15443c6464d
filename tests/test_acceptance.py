"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them); tolerances are
pinned here, not deferred.  Derived constants (period sums 32/16 and
64/32, the jamming accuracy) were first computed with the independent
counting oracles used below and then frozen.
"""

import itertools
import json
from importlib import resources
from pathlib import Path

import numpy as np

from fmlab import fmlogic, sidechannel as sc, trojankit as tk
from fmlab.cli import EXPORTS, ScenarioConfig, run_scenario
from fmlab.fmlogic import (
    FmExpr,
    build_const_fm,
    build_locking_and,
    duty_cycle,
    fm_decode,
    sync_instants,
)
from fmlab.netcore import Netlist, Stimulus, TruthTable, simulate, tt_or, tt_xor
from fmlab.trojankit import Aligned, PayloadMode, RandomRetry
from fmlab.verify import (
    ACTIVATION_SYNC,
    FIRST_BIT_START,
    L,
    SPEC,
    aligned_payload_run,
    check_trigger_soundness,
    converters,
    data_quad,
    trigger_design,
    two_input_gate,
)


def _ok(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


# ---------------------------------------------------------------------------


def test_c1_encoding_and_frequency():
    """Duty cycles exact; dominant spectral bins at the encoding lines."""
    for length, value, want_duty in ((8, 0, 0.125), (8, 1, 0.25), (4, 0, 0.25), (4, 1, 0.5)):
        nl = Netlist()
        rotor = build_const_fm(nl, length, value)
        n = 1 + 40 * length
        trace = simulate(nl, Stimulus.standard(n, nl), n)
        assert duty_cycle(trace, rotor.data_tap, (1, 1 + 32 * length)) == want_duty

    for value, want_bin in ((0, 0.125), (1, 0.25)):
        nl = Netlist()
        rotor = build_const_fm(nl, 8, value)
        trace = simulate(nl, Stimulus.standard(300, nl), 300)
        sp = sc.spectrum(trace.wave(rotor.data_tap)[17:], 256)
        assert sp.dominant_fraction() == want_bin
        peak_idx = round(want_bin * 256)
        below = sp.magnitudes[1:peak_idx]
        assert sp.magnitudes[peak_idx] > (below.max() if len(below) else 0.0)
        assert value == 0 or sp.magnitude_at(0.125) < 1e-9  # the slow line vanishes for value 1
    _ok(1, "duty 12.5%/25% (L=8) and 25%/50% (L=4); dominant bins f/8 and f/4")


def test_c2_gate_correctness_and_latency():
    """All 14 nonconstant 2-input functions decode right; latency exactly 2L."""
    for bits in range(1, 15):
        table = TruthTable.from_bits(2, bits)
        for av, bv in itertools.product((0, 1), repeat=2):
            nl, sync, _, gate = two_input_gate(table)
            trace = simulate(nl, Stimulus.standard(58, nl, A=av, B=bv), 58)
            want = table.eval((av, bv))
            for t in sync_instants(L, 58, start=2 * L):
                assert fm_decode(trace, gate, t).value == want, (bits, av, bv, t)

    # present new inputs at a SYNC instant; the decode flips exactly 2L later
    nl, sync, _, gate = two_input_gate(tt_xor(2))
    present = 3 * L + 1
    wave = np.zeros(100, np.uint8)
    wave[present:] = 1
    trace = simulate(nl, Stimulus.standard(100, nl, A=wave, B=0), 100)
    assert fm_decode(trace, gate, present + L).value == 0
    assert fm_decode(trace, gate, present + 2 * L).value == 1
    _ok(2, "14 functions x 4 inputs exhaustive at every SYNC >= 2L; latency = 2L exactly")


def test_c3_uci_evasion():
    """Zero constant nets on every FM construction; the baseline is caught."""
    rng = np.random.default_rng(5)

    def toggling(n):
        return rng.integers(0, 2, n).astype(np.uint8)

    designs = []

    nl, _, _ = converters("A")
    designs.append(("converter", nl, ["A"]))

    nl2, _, _, gate2 = two_input_gate(tt_or(2))
    designs.append(("gate", nl2, ["A", "B"]))

    nl3, sync3, sigs = converters("I0", "I1", "I2")
    expr = FmExpr(
        table=TruthTable.from_function(2, lambda x, y: x | y),
        args=(FmExpr(table=tt_xor(2), args=(sigs[0], sigs[1])), sigs[2]),
    )
    fmlogic.compose_fm(nl3, expr, sync3)
    designs.append(("composed tree", nl3, ["I0", "I1", "I2"]))

    nl4, sync4, (ca, cb) = converters("A", "B")
    build_locking_and(nl4, ca, cb, sync4)
    designs.append(("locking gate", nl4, ["A", "B"]))

    n = 98  # window lengths stay multiples of L
    for name, nl_i, ports in designs:
        stim = Stimulus.standard(n, nl_i, **{p: toggling(n) for p in ports})
        trace = simulate(nl_i, stim, n)
        for start, span in ((2, L), (2, 8 * L), (5, 4 * L)):
            report = sc.uci_scan(trace, (start, start + span))
            assert report.suspicious == (), (name, start, span, report.suspicious)

    # trigger: the FM core stays active over every short window; the event
    # comparators need windows long enough for the stream to exercise each
    # opcode, so the whole design is scanned over >= 8L spans
    tb5 = trigger_design()
    ops = tk.scrub_sequences(tk.random_program(n - 1, 16, 11), SPEC)
    trace5 = simulate(tb5.netlist, tk.program_stimulus(ops, SPEC, total_cycles=n), n)
    fm_core = set(tb5.trigger.stages) | {tb5.trigger.combiner_out} | set(tb5.sync.csr.stages)
    for start, span in ((2, L), (3, L), (2, 4 * L)):
        flagged = set(sc.uci_scan(trace5, (start, start + span)).suspicious)
        assert not (flagged & fm_core), (start, span, flagged & fm_core)
    for start, span in ((2, 8 * L), (2, n - 2 - (n - 2) % L)):
        assert sc.uci_scan(trace5, (start, start + span)).suspicious == ()

    nl6 = Netlist()
    nl6.reset()
    bus6 = tk.add_opcode_bus(nl6, 4)
    stuck = tk.build_baseline_trojan(nl6, bus6, magic=13)
    ops6 = [o for o in tk.random_program(n - 1, 16, 3) if o != 13]
    trace6 = simulate(nl6, tk.program_stimulus(ops6, SPEC, total_cycles=n), n)
    flagged = sc.uci_scan(trace6, (2, n)).suspicious
    assert stuck in flagged and len(flagged) >= 1
    _ok(3, "FM constructions: zero constant nets; baseline comparator flagged")


def test_c4_concealment_balance():
    """Per-cycle 6 rises, 6 falls, 16 ones; dynamic variance exactly 0."""
    nl, quad = data_quad()
    rng = np.random.default_rng(33)
    n = 600
    trace = simulate(nl, Stimulus.standard(n, nl, DATA=rng.integers(0, 2, n).astype(np.uint8)), n)
    rises, falls, ones, bad = sc.quad_balance(trace, quad.stage_nets(), 2, n)
    assert bad is None, (bad, rises[0], falls[0], ones[0])
    pt = sc.power_trace(trace, quad.stage_nets())
    assert float(pt.dynamic[3:].var()) == 0.0
    _ok(4, "0->1 and 1->0 both exactly 6 per cycle, static 16, variance 0")


def test_c5_payload_channel():
    """Mode sums 32/16 and 64/32 (oracle-confirmed), 100/100 secrets exact."""
    frozen = {
        (PayloadMode.MODE1, "1"): 32,
        (PayloadMode.MODE1, "0"): 16,
        (PayloadMode.MODE2, "1"): 64,
        (PayloadMode.MODE2, "0"): 32,
    }
    for (mode, bit), want in frozen.items():
        trace, design = aligned_payload_run(bit * 8, mode)
        # independent counting oracle: raw per-net diffs on the stage nets
        sub = trace.values[:, list(design.quad.stage_nets())].astype(np.int16)
        diffs = np.abs(sub[1:] - sub[:-1]).sum(axis=1)
        oracle = [
            int(diffs[FIRST_BIT_START - 1 + k * L : FIRST_BIT_START - 1 + (k + 1) * L].sum())
            for k in range(8)
        ]
        pt = sc.power_trace(trace, design.quad.stage_nets())
        sums = sc.period_sums(pt, L, FIRST_BIT_START, 8)
        assert oracle == [int(v) for v in sums]
        assert set(oracle[1:]) == {want}, (mode, bit)
    sep1 = frozen[(PayloadMode.MODE1, "1")] - frozen[(PayloadMode.MODE1, "0")]
    sep2 = frozen[(PayloadMode.MODE2, "1")] - frozen[(PayloadMode.MODE2, "0")]
    assert sep2 == 2 * sep1

    rng = np.random.default_rng(1234)
    for trial in range(100):
        secret = "".join("1" if v else "0" for v in rng.integers(0, 2, 64))
        trace, design = aligned_payload_run(secret, PayloadMode.MODE1)
        pt = sc.power_trace(trace, design.quad.stage_nets())
        got = sc.attacker_demodulate(pt, L, FIRST_BIT_START, 64, threshold=24)
        assert got == secret, trial
    _ok(5, "sums 32/16 and 64/32 confirmed; 100/100 random 64-bit secrets recovered")


def test_c6_trigger_statistics():
    """Retry rate within +/-0.02 of theory.

    Exactly one of the 8 phase classes activating is the phase sweep of
    ``verify.check_trigger_soundness`` (``test_c7_locking``).
    """
    tb = trigger_design()
    trials, hits = 2000, 0
    for t in range(trials):
        stim = tk.opcode_stimulus(
            [SPEC.filler()], SPEC, RandomRetry(32, seed=10_000 + t), L
        )
        n = stim.length
        trace = simulate(tb.netlist, stim, n)
        last = max(sync_instants(L, n, start=L + 1))
        hits += fm_decode(trace, tb.trigger, last).value
    rate = hits / trials
    expected = 1.0 - (7.0 / 8.0) ** 32
    assert abs(rate - expected) <= 0.02, (rate, expected)
    _ok(6, f"retry rate {rate:.4f} vs {expected:.4f} (+/-0.02)")


def test_c7_locking():
    """Locked forever (>= 1000 periods); never on misaligned/out-of-order."""
    tb = trigger_design()
    nl, trigger = tb.netlist, tb.trigger
    n = ACTIVATION_SYNC + 1001 * L + 2
    background = tk.scrub_sequences(tk.random_program(n - 1, 16, seed=77), SPEC)
    stim = tk.opcode_stimulus(background, SPEC, Aligned(), L, total_cycles=n)
    trace = simulate(nl, stim, n)
    held = 0
    for t in sync_instants(L, n, start=ACTIVATION_SYNC):
        assert fm_decode(trace, trigger, t).value == 1, t
        held += 1
    assert held >= 1000

    # exhaustive 4-grams at an aligned slot and the sequence at every phase
    ok, detail = check_trigger_soundness()
    assert ok, detail
    _ok(7, "locked for 1000+ periods; 625 grams + 7 misaligned phases never fire")


def test_c8_jamming():
    """Oracle accuracy 1.00 unjammed drops to <= 0.65 with 4 jammer pairs."""
    rng = np.random.default_rng(42)
    secret = "".join("1" if v else "0" for v in rng.integers(0, 2, 256))

    trace, design = aligned_payload_run(secret, PayloadMode.MODE1)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    sums = sc.period_sums(pt, L, FIRST_BIT_START, 256)
    clean_acc, _ = sc.oracle_threshold_accuracy(sums, secret)
    assert clean_acc == 1.0

    trace, design = aligned_payload_run(secret, PayloadMode.MODE1, jam_pairs=4, jam_seed=0)
    scope = list(design.quad.stage_nets()) + list(design.jammer.all_nets())
    pt = sc.power_trace(trace, scope)
    sums = sc.period_sums(pt, L, FIRST_BIT_START, 256)
    jam_acc, _ = sc.oracle_threshold_accuracy(sums, secret)
    assert 0.5 <= jam_acc <= 0.65, jam_acc
    _ok(8, f"accuracy 1.00 -> {jam_acc:.8f} with k=4 (bound 0.65)")


def test_c9_determinism(tmp_path):
    """Identical configs reproduce reports and traces byte-exactly."""
    cfg = ScenarioConfig.load(
        Path(resources.files("fmlab") / "scenarios" / "payload_mode1.ini")
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, d1)
    run_scenario(cfg, d2)
    for name in EXPORTS:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    r1 = json.loads((d1 / "report.json").read_text())
    assert r1["pass"]
    _ok(9, "scenario rerun byte-identical across all exports")
