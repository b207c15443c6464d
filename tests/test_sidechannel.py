"""Activity scans, power model, spectra, demodulation, jamming."""

import json
import re

import numpy as np
import pytest
from conftest import BUNDLED, scenario_path
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fmlab import csvcells
from fmlab import sidechannel as sc
from fmlab.cli import ScenarioConfig, main, simulate_scenario
from fmlab.fmlogic import COMBINER_DATA_POS, build_sync
from fmlab.netcore import Netlist, Stimulus, Trace, simulate, tt_buf, tt_or
from fmlab.reference import power_reference, scan_reference
from fmlab.trojankit import PayloadMode
from fmlab.verify import FIRST_BIT_START, L, aligned_payload_run, converters, data_quad, two_input_gate


# ---------------------------------------------------------------------------
# uci_scan
# ---------------------------------------------------------------------------


def test_scan_windows_are_python_ints():
    trace = Trace(values=np.zeros((4, 2), np.uint8), names=("A", "B"))
    windows = [sc.uci_scan(trace, (np.int64(1), np.uint8(3))).window, sc.pair_scan(trace, (np.int32(0), 4)).window]
    assert windows == [(1, 3), (0, 4)]
    assert {type(bound) for window in windows for bound in window} == {int}


# ---------------------------------------------------------------------------
# pair_scan
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("name", BUNDLED)
def test_scans_match_references_on_bundled_scenarios(name):
    cfg = ScenarioConfig.load(scenario_path(name))
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


@pytest.mark.parametrize(
    "scope, net",
    [((0, 99, -1), 99), ((-1, 99), -1), ((1, 2**70), 2**70), (np.array([0, 3]), 3)],
    ids=["past-the-end", "negative", "past-int64", "array"],
)
def test_power_scope_names_the_first_unknown_net(scope, net):
    trace = Trace(values=np.zeros((4, 3), np.uint8), names=("A", "B", "C"))
    with pytest.raises(sc.AnalysisError, match=rf"^unknown net {net} in scope$"):
        sc.power_trace(trace, scope)


@pytest.mark.parametrize(
    "scope, net",
    [([1.7], 1.7), (["1"], "1"), ([True], True), ([np.float64(0.9)], np.float64(0.9)),
     ([0, True, 2], True), (np.array([False, True]), False), ((np.int64(1), None), None)],
    ids=["float", "str", "bool", "np.float64", "bool-among-ints", "bool-array", "None"],
)
def test_power_scope_rejects_ids_that_are_not_integers(scope, net):
    # np.asarray([0, True, 2]) is int64: the one bool would read as net 1
    trace = Trace(values=np.zeros((4, 3), np.uint8), names=("A", "B", "C"))
    with pytest.raises(sc.AnalysisError, match=rf"^net id {re.escape(repr(net))} in scope is not an integer$"):
        sc.power_trace(trace, scope)


def test_power_scope_is_a_tuple_of_python_ints():
    trace = Trace(values=np.array([[0, 1, 1], [1, 1, 0]], np.uint8), names=("A", "B", "C"))
    pt = sc.power_trace(trace, np.array([2, 0], np.uint16))
    assert pt.scope == (2, 0) and all(type(n) is int for n in pt.scope)
    assert pt.static.tolist() == [1, 1] and pt.dynamic.tolist() == [0, 2]


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


@pytest.mark.parametrize("name", BUNDLED)
def test_power_trace_matches_net_reference_on_bundled_scenarios(name):
    cfg = ScenarioConfig.load(scenario_path(name))
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


def test_power_stats_variances_are_variances_not_deviations():
    pt = sc.PowerTrace(dynamic=np.array([0, 4, 0, 4]), static=np.array([0, 6, 0, 6]), scope=(0,))
    stats = sc.power_stats(pt, 2)
    assert (stats.dynamic_mean, stats.dynamic_variance) == (2.0, 4.0)
    assert (stats.static_mean, stats.static_variance) == (3.0, 9.0)


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
    # its rejected window lengths are rows of the bounds table in test_netcore
    assert len(sc.spectrum(np.zeros(64), 64).magnitudes) == 64 // 2 + 1


@pytest.mark.parametrize("fraction", [float("nan"), np.inf, -np.inf, np.float64("nan"), "0.5", None, 0.6], ids=repr)
def test_magnitude_at_names_a_fraction_with_no_bin(fraction):
    # each is rejected before it is rounded to a bin; 0.6 rounds past the last
    sp = sc.spectrum(np.arange(64.0), 64)
    assert sp.magnitude_at(0.25) == sp.magnitudes[16]
    with pytest.raises(sc.AnalysisError, match=rf"^no bin at fraction {re.escape(repr(fraction))}$"):
        sp.magnitude_at(fraction)


# bin 3 tops bin 1 by less than the 1e-9 tie tolerance
NEAR_TIE = sc.Spectrum(
    magnitudes=np.array([0.0, 1.0, 0.5, 1.0 + 1e-12, 0.2]), bin_freqs=np.fft.rfftfreq(8), window_len=8
)


def test_dominant_fraction_is_the_lowest_bin_within_the_tie_tolerance():
    assert NEAR_TIE.dominant_fraction() == 0.125


def test_detect_peaks_at_ratio_one_returns_the_maximal_bin():
    assert sc.detect_fm_peaks(NEAR_TIE, 1.0) == [0.375]


def test_magnitude_at_rounds_to_the_nearest_bin():
    # 0.3 of a 16-cycle window is bin 4.8: the nearest bin is 5, not 4
    sp = sc.spectrum(np.cos(2 * np.pi * 5 * np.arange(16) / 16), 16)
    assert sp.magnitudes[4] != sp.magnitudes[5]
    assert sp.magnitude_at(0.3) == sp.magnitudes[5]


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
# CSV exports against the row-by-row writers
# ---------------------------------------------------------------------------


def _loop_power_csv(pt: sc.PowerTrace) -> str:
    """The row-by-row writer that ``PowerTrace.to_csv`` must match byte for byte."""
    rows = zip(range(len(pt)), pt.dynamic.tolist(), pt.static.tolist())
    return "cycle,dynamic,static\n" + "".join(f"{t},{d},{s}\n" for t, d, s in rows)


def _loop_spectrum_csv(sp: sc.Spectrum) -> str:
    """The row-by-row writer that ``Spectrum.to_csv`` must match byte for
    byte: each cell is the repr of a numpy scalar."""
    rows = zip(sp.bin_freqs, sp.magnitudes)
    return "fraction,magnitude\n" + "".join(f"{f!r},{m!r}\n" for f, m in rows)


# digit-count edges, signs and the int64 extremes
_INT_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000, 10**9, 10**18, 2**63 - 1, -1, -9, -10, -100, -(2**63)]
# signed zeros, the subnormal and normal extremes, and the magnitudes at
# which repr switches between positional and exponent notation
_FLOAT_EDGES = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-5, 1e-4, 0.0001234, 0.1, 1 / 3, 123.456,
]


@st.composite
def export_cases(draw):
    """Power and spectrum columns of 0-40 rows, sometimes repeated past
    the writers' 4096-row blocks.

    Cells are integer and float edges or any int64 or float64; half the
    cases draw no negative integers, as power traces have none.  Half the
    fraction columns hold only multiples of 2**-13 in [0, 1), as the bin
    fractions of windows up to 8192 cycles do, or one other float.
    """
    low = -(2**63) if draw(st.booleans()) else 0
    ints = st.one_of(
        st.sampled_from([v for v in _INT_EDGES if v >= low]),
        st.integers(low, 2**63 - 1),
        st.integers(max(low, -150), 1500),
    )
    floats = st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(allow_subnormal=True))
    bins = st.integers(0, 2**13 - 1).map(lambda j: j / 2**13)
    fractions = draw(st.sampled_from([floats, bins]))
    rows = draw(st.lists(st.tuples(ints, ints, fractions, floats), max_size=40))
    if rows and fractions is bins and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = rows[0][:2] + (draw(floats), rows[0][3])
    if rows and draw(st.integers(0, 9)) == 0:
        rows *= csvcells.BLOCK_ROWS // len(rows) + 1
    return _export_case(rows)


def _export_case(rows) -> tuple[sc.PowerTrace, sc.Spectrum]:
    """A power trace and a spectrum whose rows are (dynamic, static,
    fraction, magnitude) of each of ``rows``."""
    dynamic, static, freqs, mags = (np.array([row[i] for row in rows]) for i in range(4))
    pt = sc.PowerTrace(dynamic=dynamic.astype(np.int64), static=static.astype(np.int64), scope=(0,))
    sp = sc.Spectrum(magnitudes=mags.astype(np.float64), bin_freqs=freqs.astype(np.float64), window_len=2)
    return pt, sp


@settings(max_examples=200, deadline=None)
@given(export_cases())
@example(_export_case([]))
@example(_export_case([(-(2**63), 2**63 - 1, float("nan"), -0.0)]))
def test_csv_exports_match_row_writers(tmp_path_factory, case):
    """``PowerTrace.to_csv`` and ``Spectrum.to_csv`` write the bytes of
    the row-by-row writers, in one block or several."""
    pt, sp = case
    tmp = tmp_path_factory.mktemp("exports")
    pt.to_csv(tmp / "power.csv")
    sp.to_csv(tmp / "spectrum.csv")
    assert (tmp / "power.csv").read_bytes() == _loop_power_csv(pt).encode()
    assert (tmp / "spectrum.csv").read_bytes() == _loop_spectrum_csv(sp).encode()
    event("no rows" if not len(pt) else "one block" if len(pt) <= csvcells.BLOCK_ROWS else "several blocks")
    event("negative cells" if (pt.dynamic < 0).any() or (pt.static < 0).any() else "no negative cells")
    event("fractions j / 2**13" if csvcells.fraction_reprs(sp.bin_freqs) else "other fractions")


def test_fraction_reprs_match_repr_on_every_bin_fraction():
    """The digit-arithmetic text of the bin fractions is ``repr`` for each
    j / 2**13 in [0, 1), and for the bins of every window up to 8192
    cycles; other columns are left to ``repr``."""
    every = np.arange(2**13) / 2**13
    assert csvcells.fraction_reprs(every) == list(map(repr, every.tolist()))
    for bits in range(1, 14):
        bins = np.fft.rfftfreq(1 << bits)
        assert csvcells.fraction_reprs(bins) == list(map(repr, bins.tolist()))
    for other in (np.fft.rfftfreq(1 << 14), [-0.0], [1.0], [2**-14], [np.nan], [np.inf], [1.7976931348623157e308]):
        assert csvcells.fraction_reprs(np.array(other, np.float64)) is None


def test_cli_analyze_writes_the_reference_exports(tmp_path):
    """``fmlab analyze`` on the jammed scenario's trace writes what the
    reference scans, the reference power model and the row-by-row
    writers give."""
    cfg = ScenarioConfig.load(scenario_path("jammed"))
    _, _, trace = simulate_scenario(cfg)
    trace.to_csv(tmp_path / "trace.csv")
    assert main(["analyze", "--trace", str(tmp_path / "trace.csv"), "--out", str(tmp_path / "ana")]) == 0

    window, names = (2, trace.cycles), trace.names
    nets = [n for n in range(trace.n_nets) if names[n] not in ("RESET", "CONST0", "CONST1")]
    dynamic, static = power_reference(trace, nets)
    pt = sc.PowerTrace(dynamic=np.array(dynamic), static=np.array(static), scope=tuple(nets))
    series = pt.dynamic[2:]
    sp = sc.spectrum(series, 1 << (len(series).bit_length() - 1))
    constant, duty, equal, complement = scan_reference(trace, window)
    report = {
        "window": list(window),
        "uci": {
            "window": list(window),
            "suspicious_count": len(constant),
            "constant_nets": [[names[n], v] for n, v in constant],
            "duty_cycles": {names[n]: d for n, d in duty.items()},
        },
        "pairs": {
            "window": list(window),
            "equal_count": len(equal),
            "complement_count": len(complement),
            "equal_pairs": [[names[a], names[b]] for a, b in equal],
            "complement_pairs": [[names[a], names[b]] for a, b in complement],
        },
        "spectral_peaks": sc.detect_fm_peaks(sp, 0.5),
        "dominant_fraction": sp.dominant_fraction(),
    }
    ana = tmp_path / "ana"
    assert (ana / "power.csv").read_bytes() == _loop_power_csv(pt).encode()
    assert (ana / "spectrum.csv").read_bytes() == _loop_spectrum_csv(sp).encode()
    assert (ana / "analysis.json").read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


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


def test_oracle_threshold_perfect_separation():
    sums = np.array([16, 32, 17, 31.0])
    acc, thr = sc.oracle_threshold_accuracy(sums, "0101")
    assert acc == 1.0
    assert 17 < thr < 31


def test_oracle_threshold_keeps_the_first_threshold_of_the_best_accuracy():
    # thresholds 0, 2.5 and 5 each reach 0.5; none does better
    assert sc.oracle_threshold_accuracy([1, 2, 3, 4], "1010") == (0.5, 0.0)


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
