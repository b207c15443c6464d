"""Activity scans, power model, spectra, demodulation, jamming."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fmlab import sidechannel as sc
from fmlab.cli import ScenarioConfig, simulate_scenario
from fmlab.fmlogic import COMBINER_DATA_POS, build_sync
from fmlab.netcore import Netlist, Stimulus, Trace, simulate, tt_buf, tt_or
from fmlab.reference import power_reference, scan_reference
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
    for sa, scomp in zip(quad.a.stages, quad.c.stages):
        assert tuple(sorted((sa, scomp))) in comp
    for sb, sd in zip(quad.b.stages, quad.d.stages):
        assert tuple(sorted((sb, sd))) in comp


def test_pair_scan_independent_signals_unrelated():
    nl, sync, (ca, cb) = converters("A", "B")
    trace = simulate(nl, Stimulus.standard(80, nl, A=1, B=0), 80)
    report = sc.pair_scan(trace, (2 * L, 80))
    rel = set(report.equal_pairs) | set(report.complement_pairs)
    assert tuple(sorted((ca.data_tap, cb.data_tap))) not in rel


# ---------------------------------------------------------------------------
# Both scans against the net-by-net and pair-by-pair reference
# ---------------------------------------------------------------------------


def _check_scans(trace, window) -> sc.PairReport:
    constant, duty, equal, complement = scan_reference(trace, window)
    uci = sc.uci_scan(trace, window)
    assert uci.constant_nets == tuple(constant)
    assert uci.suspicious == tuple(n for n, _ in constant)
    assert uci.duty_cycles == duty and all(type(d) is float for d in uci.duty_cycles.values())
    pairs = sc.pair_scan(trace, window)
    assert pairs.equal_pairs == tuple(equal)
    assert pairs.complement_pairs == tuple(complement)
    return pairs


@st.composite
def scan_cases(draw):
    """A 0/1 trace of 0-40 nets and a window of it for the scans.

    Each column is random, a copy or complement of an earlier one, or
    constant; RESET and the tie-off names label random columns.  The
    window spans one cycle, a multiple of 8 cycles, or neither, so the
    packed waveforms' last byte is full or padded.
    """
    n = draw(st.integers(0, 40))
    span = draw(
        st.one_of(
            st.just(1),
            st.integers(1, 6).map(lambda k: 8 * k),
            st.integers(2, 60).filter(lambda s: s % 8),
        )
    )
    start = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 2, (start + span + draw(st.integers(0, 4)), n), np.uint8)
    for j in range(n):
        kind = draw(st.sampled_from(("random", "copy", "complement", "constant")))
        if kind == "constant":
            values[:, j] = rng.integers(0, 2)
        elif kind != "random" and j:
            earlier = values[:, draw(st.integers(0, j - 1))]
            values[:, j] = earlier if kind == "copy" else 1 - earlier
    names = [f"n{j}" for j in range(n)]
    for name in ("RESET", "CONST0", "CONST1"):
        if n and draw(st.booleans()):
            names[draw(st.integers(0, n - 1))] = name
    return Trace(values=values, names=tuple(names)), (start, start + span)


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_scans_match_net_and_pair_references(case):
    """``uci_scan`` and ``pair_scan`` report what each net's waveform and
    every pair of them show, padded last byte or not."""
    trace, (start, stop) = case
    pairs = _check_scans(trace, (start, stop))
    event(f"span mod 8: {(stop - start) % 8}")
    event("complement pairs" if pairs.complement_pairs else "no complement pairs")


@pytest.mark.parametrize("name", ["concealed_trigger", "payload_mode1", "payload_mode2", "jammed"])
def test_scans_match_references_on_bundled_scenarios(name):
    cfg = ScenarioConfig.load(resources.files("fmlab") / "scenarios" / f"{name}.ini")
    _, _, trace = simulate_scenario(cfg)
    _check_scans(trace, (cfg.analysis_start, trace.cycles))


# ---------------------------------------------------------------------------
# power_trace / power_stats
# ---------------------------------------------------------------------------


def test_power_concealed_quad_constant():
    trace, design = aligned_payload_run("1" * 6, PayloadMode.CONCEALED)
    pt = sc.power_trace(trace, design.quad.stage_nets())
    assert set(pt.dynamic[3:].tolist()) == {12}  # 6 rises + 6 falls
    assert set(pt.static[1:].tolist()) == {16}


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


def test_power_scope_rejects_a_repeated_net():
    # a scope is a set of nets: a mask cannot count net 0 twice, so (0, 0)
    # is refused rather than read as the scope (0,)
    trace = Trace(values=np.array([[0], [1], [0], [1]], np.uint8), names=("A",))
    with pytest.raises(sc.AnalysisError, match="net 0 appears twice in scope"):
        sc.power_trace(trace, (0, 0))


def _check_power(trace, scope) -> None:
    pt = sc.power_trace(trace, scope)
    dynamic, static = power_reference(trace, scope)
    assert pt.scope == tuple(scope)
    for got, want in ((pt.dynamic, dynamic), (pt.static, static)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want


@st.composite
def power_cases(draw):
    """A 0/1 trace of 0-150 nets and 1-200 cycles, and a scope of it.

    Net counts cross the 64- and 128-net word edges, and half of them sit
    next to one.  Columns are random, constant or toggling every cycle.
    The scope is one net, the first and the last net with others between,
    or a random subset in random order.
    """
    n = draw(st.one_of(st.integers(0, 150), st.sampled_from([63, 64, 65, 127, 128, 129])))
    cycles = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 2, (cycles, n), np.uint8)
    kinds = rng.integers(0, 3, n)  # random, constant or toggling
    constant, toggling = kinds == 1, kinds == 2
    values[:, constant] = rng.integers(0, 2, np.count_nonzero(constant))
    values[:, toggling] = (np.arange(cycles)[:, None] + rng.integers(0, 2, np.count_nonzero(toggling))) % 2
    trace = Trace(values=values, names=tuple(f"n{j}" for j in range(n)))
    if not n:
        return trace, []
    kind = draw(st.sampled_from(("single", "first and last", "subset")))
    if kind == "single":
        scope = [draw(st.integers(0, n - 1))]
    elif kind == "first and last":
        scope = sorted({0, n - 1} | set(rng.permutation(n)[: draw(st.integers(0, n))].tolist()))
    else:
        scope = rng.permutation(n)[: draw(st.integers(1, n))].tolist()
    return trace, scope


@settings(max_examples=300, deadline=None)
@given(power_cases())
def test_power_trace_matches_net_reference(case):
    """``power_trace``'s packed words count what each scoped net's
    waveform shows, wherever the scope's span starts and ends."""
    trace, scope = case
    if not scope:
        with pytest.raises(sc.AnalysisError, match="nonempty"):
            sc.power_trace(trace, scope)
        event("no nets")
        return
    _check_power(trace, scope)
    span = max(scope) - min(scope) + 1
    event("span within one 64-net word" if span <= 64 else "span crosses a 64-net word boundary")
    ends = {0, trace.n_nets - 1} <= set(scope)
    event("single net" if len(scope) == 1 else "first and last net" if ends else "other scope")


@pytest.mark.parametrize("name", ["concealed_trigger", "payload_mode1", "payload_mode2", "jammed"])
def test_power_trace_matches_net_reference_on_bundled_scenarios(name):
    cfg = ScenarioConfig.load(resources.files("fmlab") / "scenarios" / f"{name}.ini")
    design, _, trace = simulate_scenario(cfg)
    for scope in (design.quad.stage_nets(), design.attack_scope(), sc.scan_nets(trace)):
        _check_power(trace, scope)


@st.composite
def balance_cases(draw):
    """A 0/1 trace, a scope and a window for :func:`sc.quad_balance`.

    Half the traces are quad-like: complementary column pairs of which
    exactly 6 toggle on every step, so the scope of all pairs balances
    until a few flipped cells break it.  The others are random columns.
    The scope is every column or a random subset, in random order.
    """
    cycles = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pairs = draw(st.integers(6, 9))
        steps = np.zeros((cycles, pairs), np.uint8)
        for t in range(1, cycles):
            steps[t, rng.permutation(pairs)[:6]] = 1
        half = np.bitwise_xor.accumulate(steps) ^ rng.integers(0, 2, pairs, np.uint8)
        values = np.hstack([half, 1 - half])
        for _ in range(draw(st.integers(0, 2))):
            values[rng.integers(cycles), rng.integers(2 * pairs)] ^= 1
    else:
        values = rng.integers(0, 2, (cycles, draw(st.integers(1, 20))), np.uint8)
    nets = values.shape[1]
    scope = rng.permutation(nets)[: draw(st.integers(1, nets))] if draw(st.booleans()) else range(nets)
    start = draw(st.integers(0, cycles - 1))
    stop = draw(st.integers(start + 1, cycles))
    trace = Trace(values=values, names=tuple(f"n{i}" for i in range(nets)))
    return trace, list(scope), start, stop


@settings(max_examples=300, deadline=None)
@given(balance_cases())
def test_quad_balance_matches_direct_counting(case):
    """The rises and falls ``quad_balance`` derives from a power trace's
    changes and ones are the 0->1 and 1->0 changes counted directly, and
    the first broken cycle is the first that breaks those counts."""
    trace, scope, start, stop = case
    rises, falls, ones, bad = sc.quad_balance(sc.power_trace(trace, scope), start, stop)
    sub = trace.values[start:stop, scope]
    want_rises = (sub[1:] > sub[:-1]).sum(axis=1)
    want_falls = (sub[1:] < sub[:-1]).sum(axis=1)
    want_ones = sub.sum(axis=1)
    assert np.array_equal(rises, want_rises) and np.array_equal(falls, want_falls)
    assert np.array_equal(ones, want_ones)
    broken = want_ones != len(scope) // 2
    broken[1:] |= (want_rises != 6) | (want_falls != 6)
    want_bad = start + int(np.argmax(broken)) if broken.any() else None
    assert bad == want_bad
    event("balanced" if bad is None else "broken on the window's first cycle" if bad == start else "broken later")


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


def test_period_sums_rejects_a_non_positive_period():
    pt = sc.PowerTrace(dynamic=np.zeros(20), static=np.zeros(20), scope=(0,))
    with pytest.raises(sc.AnalysisError, match="period L=0 must be at least 1"):
        sc.attacker_demodulate(pt, 0, 3, 4, threshold=1.0)
    with pytest.raises(sc.AnalysisError, match="period L=-2 must be at least 1"):
        sc.period_sums(pt, -2, 10, 2)


@pytest.mark.parametrize("start, n_bits", [(0, 0), (4, -1)])
def test_period_sums_rejects_a_non_positive_bit_count(start, n_bits):
    pt = sc.PowerTrace(dynamic=np.zeros(20), static=np.zeros(20), scope=(0,))
    with pytest.raises(sc.AnalysisError, match="n_bits must be positive"):
        sc.period_sums(pt, 8, start, n_bits)


def test_oracle_threshold_perfect_separation():
    sums = np.array([16, 32, 17, 31.0])
    acc, thr = sc.oracle_threshold_accuracy(sums, "0101")
    assert acc == 1.0
    assert 17 < thr < 31


def test_oracle_threshold_rejects_empty_sums():
    with pytest.raises(sc.AnalysisError, match="got 0 sums for 0 secret bits"):
        sc.oracle_threshold_accuracy(np.zeros(0), "")


@pytest.mark.parametrize("secret", ["01x1", "0121"])
def test_oracle_threshold_rejects_a_non_binary_secret(secret):
    with pytest.raises(sc.AnalysisError, match=f"secret '{secret}' must be a string of 0/1"):
        sc.oracle_threshold_accuracy(np.array([16, 32, 17, 31.0]), secret)


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
    assert jam.L == sync.L
    # each register samples its own port; the scope lists stages, then combiners
    for port, reg in zip(jam.ports, jam.signals, strict=True):
        assert nl.lut(reg.combiner_out).inputs[COMBINER_DATA_POS:] == (nl.inputs[port],)
    first, second = jam.signals
    assert jam.stage_nets() == first.stages + second.stages
    assert jam.all_nets() == jam.stage_nets() + (first.combiner_out, second.combiner_out)


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
