"""Activity scans, power model, spectra, demodulation, jamming."""

import numpy as np
import pytest

from fmlab import sidechannel as sc
from fmlab.fmlogic import build_const_fm, build_sync
from fmlab.netcore import Netlist, Stimulus, simulate, tt_buf, tt_or
from fmlab.trojankit import (
    PayloadMode,
    add_opcode_bus,
    build_baseline_trojan,
    program_stimulus,
    random_program,
)
from fmlab.verify import (
    FIRST_BIT_START,
    L,
    SPEC,
    aligned_payload_run,
    converters,
    data_quad,
    payload_sums,
    two_input_gate,
)


# ---------------------------------------------------------------------------
# uci_scan
# ---------------------------------------------------------------------------


def test_uci_clean_on_fm_gate_design():
    nl, sync, (ca, cb), gate = two_input_gate(tt_or(2))
    wave = np.tile([0, 1, 1, 0], 30)[:96]
    trace = simulate(nl, Stimulus.standard(96, nl, A=wave, B=np.tile([1, 0], 48)), 96)
    report = sc.uci_scan(trace, (L + 1, 96 - (96 - L - 1) % L))
    assert report.suspicious == ()


def test_uci_flags_baseline_trojan():
    nl = Netlist()
    nl.reset()
    bus = add_opcode_bus(nl, 4)
    out = build_baseline_trojan(nl, bus, magic=13)
    program = [o for o in random_program(96, 16, seed=6) if o != 13]
    n = len(program) + 1
    trace = simulate(nl, program_stimulus(program, SPEC, total_cycles=n), n)
    report = sc.uci_scan(trace, (2, n))
    assert (out, 0) in report.constant_nets
    assert out in report.suspicious


def test_uci_flags_buffer_under_constant_stimulus():
    nl = Netlist()
    nl.reset()
    a = nl.add_input("A")
    buf = nl.add_lut((a,), tt_buf())
    trace = simulate(nl, Stimulus.standard(20, nl, A=0), 20)
    report = sc.uci_scan(trace, (2, 20))
    assert buf in report.suspicious
    assert a in report.suspicious  # the idle port is just as constant


def test_uci_duty_cycles_reported():
    nl = Netlist()
    nl.reset()
    a = nl.add_input("A")
    trace = simulate(nl, Stimulus.standard(10, nl, A=np.tile([0, 1], 5)), 10)
    report = sc.uci_scan(trace, (2, 10))
    assert report.duty_cycles[a] == 0.5


def test_uci_empty_window_rejected():
    nl = Netlist()
    nl.reset()
    trace = simulate(nl, Stimulus.standard(10, nl), 10)
    with pytest.raises(sc.AnalysisError):
        sc.uci_scan(trace, (5, 5))


# ---------------------------------------------------------------------------
# pair_scan
# ---------------------------------------------------------------------------


def test_pair_scan_finds_buffered_copy():
    nl = Netlist()
    nl.reset()
    a = nl.add_input("A")
    buf = nl.add_lut((a,), tt_buf())
    trace = simulate(nl, Stimulus.standard(30, nl, A=np.tile([0, 1, 1], 10)), 30)
    report = sc.pair_scan(trace, (2, 30))
    assert (a, buf) in report.equal_pairs


def test_pair_scan_finds_quad_complements():
    nl, quad = data_quad()
    rng = np.random.default_rng(3)
    trace = simulate(
        nl, Stimulus.standard(120, nl, DATA=rng.integers(0, 2, 120).astype(np.uint8)), 120
    )
    report = sc.pair_scan(trace, (1, 120))
    comp = set(report.complement_pairs)
    for sa, scomp in zip(quad.a.csr.stages, quad.c.stages):
        assert tuple(sorted((sa, scomp))) in comp
    for sb, sd in zip(quad.b.csr.stages, quad.d.stages):
        assert tuple(sorted((sb, sd))) in comp


def test_pair_scan_independent_signals_unrelated():
    nl, sync, (ca, cb) = converters("A", "B")
    trace = simulate(nl, Stimulus.standard(80, nl, A=1, B=0), 80)
    report = sc.pair_scan(trace, (2 * L, 80))
    rel = set(report.equal_pairs) | set(report.complement_pairs)
    assert tuple(sorted((ca.data_tap, cb.data_tap))) not in rel


# ---------------------------------------------------------------------------
# power_trace / power_stats
# ---------------------------------------------------------------------------


def test_power_concealed_quad_constant():
    trace, design = aligned_payload_run("1" * 6, PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    assert set(pt.dynamic[3:].tolist()) == {12}  # 6 rises + 6 falls
    assert set(pt.static[1:].tolist()) == {16}


def test_power_mode1_period_sums():
    trace, design = aligned_payload_run("1" * 6, PayloadMode.MODE1)
    sums = payload_sums(trace, design, 6)
    assert set(int(v) for v in sums[1:]) == {32}
    trace, design = aligned_payload_run("0" * 6, PayloadMode.MODE1)
    sums = payload_sums(trace, design, 6)
    assert set(int(v) for v in sums[1:]) == {16}


def test_power_no_activity_zero_dynamic():
    nl = Netlist()
    nl.reset()
    a = nl.add_input("A")
    buf = nl.add_lut((a,), tt_buf())
    trace = simulate(nl, Stimulus.standard(10, nl, A=0), 10)
    pt = sc.power_trace(trace, (a, buf))
    assert not pt.dynamic.any()
    assert not pt.static.any()


def test_power_scope_validation():
    nl = Netlist()
    nl.reset()
    trace = simulate(nl, Stimulus.standard(4, nl), 4)
    with pytest.raises(sc.AnalysisError, match="unknown net"):
        sc.power_trace(trace, (99,))
    with pytest.raises(sc.AnalysisError, match="nonempty"):
        sc.power_trace(trace, ())


def test_power_stats_exact_zero_variance_when_concealed():
    trace, design = aligned_payload_run("10" * 4, PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    start = 2 * L + 1
    stop = start + ((len(pt) - start) // L) * L
    stats = sc.power_stats(pt.window(start, stop), L)
    assert stats.dynamic_variance == 0.0
    assert stats.static_variance == 0.0
    assert stats.dynamic_mean == 12.0


def test_power_stats_bimodal_for_mode1_random_bits():
    trace, design = aligned_payload_run("10110100", PayloadMode.MODE1)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    stats = sc.power_stats(pt.window(FIRST_BIT_START, FIRST_BIT_START + 8 * L), L)
    lows = {int(v) for v in stats.dynamic_period_sums if v < 24}
    highs = {int(v) for v in stats.dynamic_period_sums if v > 24}
    assert lows and highs
    assert lows <= {16, 17} and highs <= {31, 32}


def test_power_stats_requires_exact_tiling():
    trace, design = aligned_payload_run("11", PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    with pytest.raises(sc.AnalysisError, match="divide"):
        sc.power_stats(pt.window(0, L + 1), L)


def test_power_stats_constant_series():
    pt = sc.PowerTrace(dynamic=np.full(16, 5), static=np.full(16, 3), scope=(0,))
    stats = sc.power_stats(pt, 4)
    assert stats.dynamic_variance == 0.0
    assert stats.dynamic_period_sums.tolist() == [20, 20, 20, 20]


# ---------------------------------------------------------------------------
# spectrum / peaks
# ---------------------------------------------------------------------------


def _rotor_trace(value, n=300):
    nl = Netlist()
    rotor = build_const_fm(nl, L, value)
    trace = simulate(nl, Stimulus.standard(n, nl), n)
    return trace.wave(rotor.data_tap)


def test_spectrum_fm_taps_dominant_bins():
    sp0 = sc.spectrum(_rotor_trace(0)[2 * L + 1 :], 256)
    sp1 = sc.spectrum(_rotor_trace(1)[2 * L + 1 :], 256)
    assert sp0.dominant_fraction() == 0.125
    assert sp1.dominant_fraction() == 0.25
    assert sp1.magnitude_at(0.125) < 1e-9  # the slow line vanishes for value 1


def test_spectrum_constant_series_flat():
    sp = sc.spectrum(np.ones(256), 256)
    assert float(sp.magnitudes[1:].max()) <= 1e-9
    assert sp.dominant_fraction() is None


def test_spectrum_parseval_consistency():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2, 256).astype(float)
    sp = sc.spectrum(x, 256)
    centered = x - x.mean()
    time_energy = float((centered**2).sum())
    m = sp.magnitudes
    freq_energy = (m[0] ** 2 + 2 * (m[1:-1] ** 2).sum() + m[-1] ** 2) / 256.0
    assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1.0)


def test_spectrum_validation():
    with pytest.raises(sc.AnalysisError, match="power of two"):
        sc.spectrum(np.zeros(100), 100)
    with pytest.raises(sc.AnalysisError, match="exceeds"):
        sc.spectrum(np.zeros(100), 128)
    assert sp_bins_ok()


def sp_bins_ok():
    sp = sc.spectrum(np.zeros(64), 64)
    return len(sp.magnitudes) == 64 // 2 + 1


def test_detect_peaks_on_unconcealed_power():
    nl, sync, (ca, cb), gate = two_input_gate(tt_or(2))
    trace = simulate(nl, Stimulus.standard(300, nl, A=1, B=0), 300)
    scope = [
        n for n in range(trace.n_nets)
        if trace.names[n] not in sc.DEFAULT_EXCLUDED_NAMES and not trace.names[n].startswith(("A", "B"))
    ]
    pt = sc.power_trace(trace, scope)
    sp = sc.spectrum(pt.dynamic[2 * L + 1 :], 256)
    peaks = sc.detect_fm_peaks(sp, 0.5)
    assert peaks
    assert all(abs(f * L - round(f * L)) < 1e-9 for f in peaks)  # lines at k/L only
    assert (0.125 in peaks) or (0.25 in peaks)


def test_detect_peaks_flat_on_concealed_quad():
    trace, design = aligned_payload_run("10" * 4, PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    sp = sc.spectrum(pt.dynamic[2 * L + 1 :], 64)
    assert sc.detect_fm_peaks(sp, 0.5) == []


def test_detect_peaks_validation():
    sp = sc.spectrum(np.zeros(64), 64)
    assert sc.detect_fm_peaks(sp, 1.0) == []
    with pytest.raises(sc.AnalysisError):
        sc.detect_fm_peaks(sp, 0.0)


# ---------------------------------------------------------------------------
# demodulation
# ---------------------------------------------------------------------------


def test_demodulate_mode1_recovers_secret():
    trace, design = aligned_payload_run("1011", PayloadMode.MODE1)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    got = sc.attacker_demodulate(pt, L, FIRST_BIT_START, 4, threshold=24)
    assert got == "1011"


def test_demodulate_mode2_doubled_margin():
    secret = "100110"
    trace, design = aligned_payload_run(secret, PayloadMode.MODE2)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    got = sc.attacker_demodulate(pt, L, FIRST_BIT_START, len(secret), threshold=48)
    assert got == secret
    sums = sc.period_sums(pt, L, FIRST_BIT_START, len(secret))
    ones = sums[np.array([c == "1" for c in secret])]
    zeros = sums[np.array([c == "0" for c in secret])]
    assert ones.min() - zeros.max() >= 28  # roughly twice the mode-1 gap


def test_demodulate_concealed_is_degenerate():
    trace, design = aligned_payload_run("1011", PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    got = sc.attacker_demodulate(pt, L, FIRST_BIT_START, 4, threshold=24)
    assert got in ("0000", "1111")  # all periods identical: nothing to read


def test_demodulate_insufficient_trace():
    pt = sc.PowerTrace(dynamic=np.zeros(20), static=np.zeros(20), scope=(0,))
    with pytest.raises(sc.AnalysisError):
        sc.attacker_demodulate(pt, 8, 10, 4, threshold=1)


def test_oracle_threshold_perfect_separation():
    sums = np.array([16, 32, 17, 31.0])
    acc, thr = sc.oracle_threshold_accuracy(sums, "0101")
    assert acc == 1.0
    assert 17 < thr < 31


# ---------------------------------------------------------------------------
# jammer
# ---------------------------------------------------------------------------


def test_jammer_requires_pairs():
    nl = Netlist()
    sync = build_sync(nl, L)
    with pytest.raises(sc.AnalysisError):
        sc.build_jammer(nl, sync, 0, seed=1)


def test_jammer_allocates_past_existing_ports():
    nl = Netlist()
    sync = build_sync(nl, L)
    nl.add_input("JAM1")
    jam = sc.build_jammer(nl, sync, 1, seed=1)
    assert jam.ports == ("JAM2", "JAM3")


def test_jammer_alone_shows_both_frequencies():
    nl = Netlist()
    sync = build_sync(nl, L)
    jam = sc.build_jammer(nl, sync, 2, seed=5)
    n = 2 * L + 1 + 256
    stim = Stimulus.standard(n, nl).extended(jam.stimulus_waves(n))
    trace = simulate(nl, stim, n)
    pt = sc.power_trace(trace, jam.all_nets())
    sp = sc.spectrum(pt.dynamic[2 * L + 1 :], 256)
    peaks = sc.detect_fm_peaks(sp, 0.3)
    assert 0.125 in peaks and 0.25 in peaks


def test_jammer_waves_deterministic_and_period_stable():
    nl = Netlist()
    sync = build_sync(nl, L)
    jam = sc.build_jammer(nl, sync, 1, seed=9)
    w1 = jam.stimulus_waves(100)
    w2 = jam.stimulus_waves(100)
    for port in jam.ports:
        assert np.array_equal(w1[port], w2[port])
        wave = w1[port]
        for p in range((100 - 1) // L):
            seg = wave[1 + p * L : 1 + (p + 1) * L]
            assert len(set(seg.tolist())) == 1  # held across each period
