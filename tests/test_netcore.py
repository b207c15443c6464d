"""Netlist model, truth tables, simulator semantics, serialization."""

from functools import partial

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmlab import fmlogic
from fmlab.netcore import (
    CombinationalCycleError,
    FfKind,
    Lut,
    Netlist,
    NetlistError,
    Stimulus,
    Trace,
    TruthTable,
    simulate,
    tt_and,
    tt_buf,
    tt_equals,
    tt_mux,
    tt_not,
    tt_or,
    tt_xor,
)
from fmlab.reference import reference_simulate
from fmlab.verify import trigger_design, two_input_gate


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


def test_table_replicates_unused_inputs():
    xor = TruthTable.from_bits(2, 0b0110)
    for high in range(16):
        assert xor.value(0b01 | (high << 2)) == 1
        assert xor.value(0b11 | (high << 2)) == 0


def test_table_arity_bounds():
    with pytest.raises(NetlistError):
        TruthTable.from_bits(7, 0)
    with pytest.raises(NetlistError):
        TruthTable.from_bits(0, 0)
    with pytest.raises(NetlistError):
        TruthTable(bits=1, arity=2)  # not replicated


def test_table_constant_detection():
    assert TruthTable.from_bits(2, 0b0000).is_constant()
    assert TruthTable.from_bits(2, 0b1111).is_constant()
    assert not tt_xor(2).is_constant()


def test_tt_helpers():
    assert tt_and(3).eval((1, 1, 1)) == 1
    assert tt_and(3).eval((1, 0, 1)) == 0
    assert tt_or(2).eval((0, 0)) == 0
    assert tt_not().eval((1,)) == 0
    assert tt_mux().eval((1, 1, 0)) == 1  # sel picks first data input
    assert tt_mux().eval((0, 1, 0)) == 0
    assert tt_equals(4, 11).eval((1, 1, 0, 1)) == 1
    assert tt_equals(4, 11).eval((0, 1, 0, 1)) == 0


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_add_input_first_allocation():
    nl = Netlist()
    assert nl.add_input("RESET") == 0


def test_add_input_duplicate():
    nl = Netlist()
    nl.add_input("A")
    with pytest.raises(NetlistError, match="duplicate"):
        nl.add_input("A")


def test_add_input_distinct_ids():
    nl = Netlist()
    assert nl.add_input("A") != nl.add_input("B")


def test_add_lut_xor_behavior():
    nl = Netlist()
    a = nl.add_input("A")
    b = nl.add_input("B")
    out = nl.add_lut((a, b), TruthTable.from_bits(2, 0b0110))
    stim = Stimulus({"A": [0, 0, 1, 1], "B": [0, 1, 0, 1]})
    trace = simulate(nl, stim, 4)
    assert [trace.value(out, t) for t in range(4)] == [0, 1, 1, 0]


def test_add_lut_identity_buffer():
    nl = Netlist()
    a = nl.add_input("A")
    out = nl.add_lut((a,), tt_buf())
    trace = simulate(nl, Stimulus({"A": [0, 1, 0]}), 3)
    assert [trace.value(out, t) for t in range(3)] == [0, 1, 0]


def test_add_lut_arity_mismatch():
    nl = Netlist()
    a = nl.add_input("A")
    with pytest.raises(NetlistError, match="arity"):
        nl.add_lut((a,), tt_xor(2))


def test_add_lut_undriven_input():
    nl = Netlist()
    nl.add_input("A")
    with pytest.raises(NetlistError, match="undriven"):
        nl.add_lut((99,), tt_buf())


def test_seven_input_function_needs_multiple_luts():
    with pytest.raises(NetlistError):
        tt_and(7)


# ---------------------------------------------------------------------------
# Flip-flop semantics
# ---------------------------------------------------------------------------


def _single_ff(kind):
    nl = Netlist()
    d = nl.add_input("D")
    ce = nl.add_input("CE")
    sr = nl.add_input("SR")
    q = nl.add_ff(kind, d, ce, sr)
    return nl, q


def test_ff_set_pulse():
    nl, q = _single_ff(FfKind.SET)
    stim = Stimulus({"D": [0, 0, 0], "CE": [0, 0, 0], "SR": [1, 0, 0]})
    trace = simulate(nl, stim, 3)
    assert trace.value(q, 0) == 0
    assert trace.value(q, 1) == 1  # set by the cycle-0 edge
    assert trace.value(q, 2) == 1  # holds


def test_ff_reset_kind_loads_data():
    nl, q = _single_ff(FfKind.RESET)
    stim = Stimulus({"D": [1, 0, 0], "CE": [1, 0, 0], "SR": [0, 0, 0]})
    trace = simulate(nl, stim, 3)
    assert trace.value(q, 1) == 1
    assert trace.value(q, 2) == 1  # ce low afterwards: hold


def test_ff_hold_when_disabled():
    nl, q = _single_ff(FfKind.RESET)
    stim = Stimulus({"D": [1, 1, 1, 1], "CE": [1, 0, 0, 0], "SR": [0, 0, 0, 0]})
    trace = simulate(nl, stim, 4)
    assert [trace.value(q, t) for t in range(4)] == [0, 1, 1, 1]


@pytest.mark.parametrize("kind", [FfKind.SET, FfKind.RESET])
def test_ff_sr_beats_ce_exhaustive(kind):
    forced = 1 if kind is FfKind.SET else 0
    for case in range(8):
        d, ce, sr = case & 1, (case >> 1) & 1, (case >> 2) & 1
        for q0 in (0, 1):
            nl, q = _single_ff(kind)
            # cycle 0 loads q0, cycle 1 applies the case, cycle 2 shows the result
            stim = Stimulus({"D": [q0, d, 0], "CE": [1, ce, 0], "SR": [0, sr, 0]})
            trace = simulate(nl, stim, 3)
            want = forced if sr else (d if ce else q0)
            assert trace.value(q, 2) == want, (kind, d, ce, sr, q0)


def test_ff_deferred_d_must_be_wired():
    nl = Netlist()
    ce = nl.add_input("CE")
    sr = nl.add_input("SR")
    q = nl.add_ff(FfKind.RESET, None, ce, sr)
    with pytest.raises(NetlistError, match="unwired"):
        simulate(nl, Stimulus({"CE": [0], "SR": [0]}), 1)
    nl.set_ff_d(q, q)
    simulate(nl, Stimulus({"CE": [0], "SR": [0]}), 1)
    with pytest.raises(NetlistError, match="already"):
        nl.set_ff_d(q, q)


# ---------------------------------------------------------------------------
# Topological order
# ---------------------------------------------------------------------------


def test_topo_chain_order():
    nl = Netlist()
    a = nl.add_input("A")
    l1 = nl.add_lut((a,), tt_not())
    l2 = nl.add_lut((l1,), tt_not())
    order = nl.topo_order()
    assert order.index(nl._lut_by_out[l1]) < order.index(nl._lut_by_out[l2])


def test_topo_self_loop_reports_cycle_net():
    nl = Netlist()
    a = nl.add_input("A")
    buf = nl.add_lut((a,), tt_buf())
    nl.set_lut_input(buf, 0, buf)  # close a LUT-only loop
    with pytest.raises(CombinationalCycleError) as err:
        nl.topo_order()
    assert err.value.net == buf


@pytest.mark.parametrize("table", [tt_buf(), tt_not()], ids=["buffer", "inverter"])
@pytest.mark.parametrize("route", [simulate, reference_simulate], ids=["kernel", "reference"])
def test_lut_self_loop_rejected_by_both_routes(table, route):
    nl = Netlist()
    a = nl.add_input("A")
    lut = nl.add_lut((a,), table)
    nl.set_lut_input(lut, 0, lut)
    with pytest.raises(CombinationalCycleError) as err:
        route(nl, Stimulus.standard(3, nl), 3)
    assert err.value.net == lut


def test_topo_register_ring_is_fine():
    nl = Netlist()
    fmlogic.build_fm_csr(nl, 8)
    nl.topo_order()  # no error: the loop goes through flip-flops


# ---------------------------------------------------------------------------
# Simulation semantics
# ---------------------------------------------------------------------------


def test_csr_tap_period():
    nl = Netlist()
    csr = fmlogic.build_fm_csr(nl, 8)
    trace = simulate(nl, Stimulus.standard(20, nl), 20)
    tap = [t for t in range(20) if trace.value(csr.marker_tap, t)]
    assert tap == [1, 9, 17]


def test_constant_stimulus_constant_trace():
    nl = Netlist()
    a = nl.add_input("A")
    b = nl.add_input("B")
    out = nl.add_lut((a, b), tt_and(2))
    trace = simulate(nl, Stimulus({"A": [0] * 10, "B": [0] * 10}), 10)
    assert not trace.wave(out).any()
    assert not trace.wave(a).any()


def _lut_only_design():
    nl = Netlist()
    a, b = nl.add_input("A"), nl.add_input("B")
    x = nl.add_lut([a, b], tt_xor(2))
    nl.add_lut([x, a, nl.const(1)], tt_mux())
    return nl


def _ff_only_design():
    nl = Netlist()
    rst, a = nl.reset(), nl.add_input("A")
    q = nl.add_ff(FfKind.SET, None, a, rst)
    nl.set_ff_d(q, nl.add_ff(FfKind.RESET, q, nl.const(1), rst))
    return nl


def _mixed_level_design():
    """Each logic level holds an input-only LUT and one reading a flip-flop."""
    nl = Netlist()
    rst, a, b = nl.reset(), nl.add_input("A"), nl.add_input("B")
    q = nl.add_ff(FfKind.RESET, None, nl.const(1), rst)
    static = nl.add_lut([a, b], tt_and(2))
    stateful = nl.add_lut([b, q], tt_xor(2))
    nl.add_lut([static, a], tt_or(2))
    nl.set_ff_d(q, nl.add_lut([static, stateful, a], tt_mux()))
    return nl


def _random_table(rng, arity: int) -> TruthTable:
    return TruthTable.from_bits(arity, int.from_bytes(rng.bytes(8), "little"))


def _wide_cone_design(extra: int):
    """A flip-flop whose pins reach 8 + ``extra`` nets through two loop LUTs:
    RESET, its own output and 6 + ``extra`` ports, under random tables."""
    rng = np.random.default_rng(3)
    nl = Netlist()
    rst = nl.reset()
    ports = [nl.add_input(f"I{i}") for i in range(6 + extra)]
    q = nl.add_ff(FfKind.RESET, None, nl.const(1), rst)
    x = nl.add_lut([q, *ports[:5]], _random_table(rng, 6))
    nl.set_ff_d(q, nl.add_lut([x, *ports[5:]], _random_table(rng, 1 + len(ports[5:]))))
    return nl


def _loop_pins_design():
    """Clock enable and set/reset driven by LUTs that read flip-flops."""
    nl = Netlist()
    rst, a, b = nl.reset(), nl.add_input("A"), nl.add_input("B")
    q1 = nl.add_ff(FfKind.RESET, None, nl.const(1), rst)
    ce = nl.add_lut([q1, a], tt_xor(2))
    sr = nl.add_lut([rst, q1, b], TruthTable.from_function(3, lambda r, q, b: r or (q and b)))
    q2 = nl.add_ff(FfKind.SET, None, ce, sr)
    nl.set_ff_d(q1, nl.add_lut([q2, b], tt_xor(2)))
    nl.set_ff_d(q2, nl.add_lut([q1, q2, a], tt_mux()))
    return nl


def _shared_loop_lut_design():
    """One loop LUT read by two flip-flops (as d and as ce), another LUT
    and an output."""
    nl = Netlist()
    rst, a, b = nl.reset(), nl.add_input("A"), nl.add_input("B")
    q1 = nl.add_ff(FfKind.RESET, None, nl.const(1), rst)
    x = nl.add_lut([q1, a], tt_xor(2))
    q2 = nl.add_ff(FfKind.SET, x, b, rst)
    q3 = nl.add_ff(FfKind.RESET, a, x, rst)
    y = nl.add_lut([x, q3], tt_and(2))
    nl.mark_output("X", x)
    nl.set_ff_d(q1, nl.add_lut([y, q2], tt_or(2)))
    return nl


def _constant_inputs_design():
    """Constants on flip-flop pins and on loop LUT inputs."""
    nl = Netlist()
    rst, a = nl.reset(), nl.add_input("A")
    one, zero = nl.const(1), nl.const(0)
    q1 = nl.add_ff(FfKind.SET, None, one, rst)
    x = nl.add_lut([q1, one, a, zero], TruthTable.from_function(4, lambda q, o, a, z: (q and o) ^ a ^ z))
    q2 = nl.add_ff(FfKind.RESET, x, one, zero)
    nl.set_ff_d(q1, nl.add_lut([q2, one], tt_xor(2)))
    return nl


def _ring(nl: Netlist, rng, count: int) -> list[int]:
    """``count`` registers in a ring, each loading a random function of the
    one before it and port A."""
    rst, a = nl.reset(), nl.inputs.get("A") or nl.add_input("A")
    qs = [nl.add_ff(FfKind.RESET, None, nl.const(1), rst) for _ in range(count)]
    for prev, q in zip(qs[-1:] + qs[:-1], qs):
        nl.set_ff_d(q, nl.add_lut([prev, a], _random_table(rng, 2)))
    return qs


def _wide(nl: Netlist, rng, nets: list[int]) -> int:
    """A random function of 7 to 11 ``nets``, as two LUTs."""
    x = nl.add_lut(nets[:6], _random_table(rng, 6))
    return nl.add_lut([x, *nets[6:]], _random_table(rng, 1 + len(nets[6:])))


def _two_stage_design():
    """A register that reads a cone of 9 ring registers: it folds in a
    second stage, where that cone's output is one leaf.  A register that
    loads it waits for that stage too."""
    rng = np.random.default_rng(5)
    nl = Netlist()
    wide = _wide(nl, rng, _ring(nl, rng, 9))
    r = nl.add_ff(FfKind.SET, None, nl.inputs["A"], nl.reset())
    nl.set_ff_d(r, nl.add_lut([wide, r], _random_table(rng, 2)))
    nl.add_ff(FfKind.RESET, r, nl.inputs["A"], nl.reset())
    return nl


def _wide_feedback_design():
    """Nine ring registers that each also read a cone over all nine: no
    stage fits."""
    rng = np.random.default_rng(6)
    nl = Netlist()
    qs = _ring(nl, rng, 9)
    wide = _wide(nl, rng, qs)
    for q in qs:
        nl.set_lut_input(nl.ff(q).d, 1, wide)
    return nl


def _stage_chain_design(groups: int):
    """``groups`` banks of 9 registers; each bank after the first loads the
    cone over the bank before it, enabled by one of its registers."""
    rng = np.random.default_rng(8)
    nl = Netlist()
    bank = _ring(nl, rng, 9)
    for _ in range(groups - 1):
        wide = _wide(nl, rng, bank)
        bank = [nl.add_ff(FfKind.SET, wide, q, nl.reset()) for q in bank]
    return nl


# shape: hoisted LUT levels, then per stage: LUT levels in its cycle
# loop, LUT levels after it, flip-flop table width.  A stage folds when
# each of its flip-flops' support (the nets its pins reach through loop
# LUTs not yet evaluated, constants left out) is at most 8 nets: no LUT
# level stays in its loop, and the flip-flop table is as wide as the
# widest support.  A flip-flop whose cone is wider waits for a later
# stage, after which the cone's evaluated LUTs are leaves; if none fits,
# or the stages outnumber the loop levels plus one, the design compiles
# as one unfolded stage.  Each folded case would fail the reference
# comparison on a wrong fold: a wrongly ordered or wrongly built table
# (wide-cone: all 8 address bits under random tables), a cone missed on
# ce or sr (loop-pins), a loop LUT left unevaluated after the loop
# (shared-loop-lut, whose LUT is also a recorded output), a constant
# read as 0 (constant-inputs, whose CONST1 pins enable), or a stage run
# before the cone it reads (two-stage, three-stage-chain).
@pytest.mark.parametrize(
    "build, shape",
    [
        (_lut_only_design, (2, ())),
        (_ff_only_design, (0, ((0, 0, 4),))),
        (_mixed_level_design, (2, ((0, 2, 5),))),
        (partial(_wide_cone_design, 0), (0, ((0, 2, 8),))),
        (partial(_wide_cone_design, 1), (0, ((2, 0, 4),))),
        (_loop_pins_design, (0, ((0, 1, 5),))),
        (_shared_loop_lut_design, (0, ((0, 3, 5),))),
        (_constant_inputs_design, (0, ((0, 1, 3),))),
        (_two_stage_design, (0, ((0, 2, 4), (0, 1, 4)))),
        (_wide_feedback_design, (0, ((3, 0, 4),))),
        (partial(_stage_chain_design, 3), (0, ((0, 2, 4), (0, 2, 4), (0, 0, 4)))),
        (partial(_stage_chain_design, 4), (0, ((2, 0, 4),))),
    ],
    ids=[
        "no-flip-flops",
        "no-luts",
        "mixed-level",
        "support-8-folds",
        "support-9-does-not",
        "loop-pins",
        "shared-loop-lut",
        "constant-inputs",
        "two-stage",
        "wide-feedback-does-not",
        "three-stage-chain",
        "four-stage-chain-does-not",
    ],
)
def test_simulate_matches_reference_on_kernel_edge_cases(build, shape):
    nl = build()
    comp = nl._compile()
    stages = tuple((len(s.levels), len(s.after), s.ff.ins.shape[1]) for s in comp.stages)
    assert (len(comp.hoisted), stages) == shape
    rng = np.random.default_rng(7)
    waves = {n: rng.integers(0, 2, 400) for n in nl.inputs if n != "RESET"}
    stim = Stimulus.standard(400, nl, **waves)
    trace = simulate(nl, stim, 400)
    assert np.array_equal(trace.values, reference_simulate(nl, stim, 400).values)


def test_trigger_design_cycle_loop_has_no_lut_level():
    # the opcode comparators read only the input bus, so they leave the
    # loop; the one LUT level that reads flip-flops folds into the
    # flip-flop tables of the one stage and runs after its loop
    comp = trigger_design().netlist._compile()
    assert len(comp.hoisted) == 1
    assert [(len(s.levels), len(s.after)) for s in comp.stages] == [(0, 1)]


def test_simulate_stimulus_too_short():
    nl = Netlist()
    nl.add_input("A")
    with pytest.raises(NetlistError, match="shorter"):
        simulate(nl, Stimulus({"A": [0, 1]}), 5)


def test_simulate_missing_port():
    nl = Netlist()
    nl.add_input("A")
    nl.add_input("B")
    with pytest.raises(NetlistError, match="missing"):
        simulate(nl, Stimulus({"A": [0]}), 1)


def test_stimulus_validation():
    with pytest.raises(NetlistError, match="equal length"):
        Stimulus({"A": [0, 1], "B": [0]})
    with pytest.raises(NetlistError, match="non-binary"):
        Stimulus({"A": [0, 2]})


def test_stimulus_standard_rejects_non_binary_scalar():
    with pytest.raises(NetlistError, match="'A' must be 0 or 1"):
        Stimulus.standard(4, ["A"], A=2)


def test_trace_is_immutable():
    nl = Netlist()
    nl.add_input("A")
    trace = simulate(nl, Stimulus({"A": [0, 1]}), 2)
    with pytest.raises(ValueError):
        trace.values[0, 0] = 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_netlist_text_roundtrip():
    nl, sync, (ca, cb), gate = two_input_gate(tt_or(2))
    nl.mark_output("OUT", gate.data_tap)
    text = nl.to_text()
    back = Netlist.from_text(text)
    assert back.to_text() == text
    stim = Stimulus.standard(60, nl, A=1, B=np.tile([0, 1], 30))
    t1 = simulate(nl, stim, 60)
    t2 = simulate(back, stim, 60)
    assert np.array_equal(t1.values, t2.values)
    assert t1.names == t2.names


def test_netlist_text_includes_consts_and_ffs():
    nl = Netlist()
    csr = fmlogic.build_fm_csr(nl, 4)
    text = nl.to_text()
    assert "CONST" in text
    assert "FFS" in text and "FFR" in text
    assert "IN RESET 0" in text


def test_netlist_from_text_rejects_garbage():
    with pytest.raises(NetlistError, match="unknown record"):
        Netlist.from_text("BOGUS 1 2 3\n")
    with pytest.raises(NetlistError, match="malformed"):
        Netlist.from_text("LUT x y\n")


def _loop_csv(trace: Trace) -> str:
    """The row-by-row CSV writer that ``Trace.to_csv`` must match byte for byte."""
    lines = [",".join(trace.names)]
    lines += [",".join("1" if v else "0" for v in row) for row in trace.values]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "shape",
    [(5, 7), (3, 1), (0, 4), (4, 0), (0, 0), (20000, 5)],
    ids=["rows", "one-net", "no-cycles", "no-nets", "empty", "many-blocks"],
)
def test_trace_csv_matches_row_loop(tmp_path, shape):
    values = np.random.default_rng(7).integers(0, 2, size=shape, dtype=np.uint8)
    trace = Trace(values=values, names=tuple(f"n{i}" for i in range(shape[1])))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == _loop_csv(trace).encode()
    back = Trace.from_csv(path)
    assert back.names == trace.names
    assert np.array_equal(back.values, trace.values)


def test_trace_csv_roundtrip(tmp_path):
    nl = Netlist()
    csr = fmlogic.build_fm_csr(nl, 4)
    trace = simulate(nl, Stimulus.standard(12, nl), 12)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = Trace.from_csv(path)
    assert back.names == trace.names
    assert np.array_equal(back.values, trace.values)


@pytest.mark.parametrize("rows", ["0,1\n1,0\n1\n", "0,1\n1,0\n2,0\n"], ids=["ragged", "cell-2"])
def test_trace_csv_rejects_malformed_rows(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("RESET,A\n" + rows)
    with pytest.raises(NetlistError, match="line 4"):
        Trace.from_csv(path)


@st.composite
def traces(draw):
    """Any trace of 0-8 nets over 0-300 cycles, with names to_csv can write."""
    n = draw(st.integers(0, 8))
    name = st.text(
        st.characters(exclude_characters=",\r\n", exclude_categories=("Cs",)), min_size=1, max_size=4
    )
    names = tuple(draw(st.lists(name, min_size=n, max_size=n)))
    values = draw(arrays(np.uint8, (draw(st.integers(0, 300)), n), elements=st.integers(0, 1)))
    return Trace(values=values, names=names)


@settings(max_examples=200, deadline=None)
@example(
    trace=Trace(
        values=np.random.default_rng(3).integers(0, 2, size=(9000, 8), dtype=np.uint8),
        names=tuple(f"n{i}" for i in range(8)),
    )
)  # three 64 KiB blocks
@given(trace=traces())
def test_trace_csv_roundtrip_any_trace(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    trace.to_csv(path)
    back = Trace.from_csv(path)
    assert back.names == trace.names
    assert back.values.dtype == np.uint8 and not back.values.flags.writeable
    assert np.array_equal(back.values, trace.values)


def _line_csv_reader(path) -> Trace:
    """The line-splitting reader ``Trace.from_csv`` replaced: the oracle for
    what it accepts, and for the line it names when it rejects."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        names = tuple(header.split(","))
        try:
            rows = [
                np.array(line.rstrip("\n").split(","), dtype=np.uint8)
                for line in fh
                if line.strip()
            ]
            values = np.vstack(rows) if rows else np.zeros((0, len(names)), np.uint8)
        except (ValueError, OverflowError):
            values = None
    if values is None or values.shape[1] != len(names) or (values.size and values.max() > 1):
        width = len(names)
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1 or not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")
                try:
                    ok = len(cells) == width and np.array(cells, dtype=np.uint8).max() <= 1
                except (ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise NetlistError(f"{path}: line {lineno} is not {width} comma-separated 0/1 cells")
        raise NetlistError(f"{path}: malformed trace rows")
    return Trace(values=values, names=names)


CSV_MUTATIONS = ("ragged", "cell-2", "cell-form", "stray", "crlf", "no-final-newline", "blank")


@st.composite
def mutated_trace_csvs(draw):
    """The CSV of a trace with 1-4 nets after one to three mutations."""
    n = draw(st.integers(1, 4))
    values = draw(arrays(np.uint8, (draw(st.integers(1, 10)), n), elements=st.integers(0, 1)))
    text = _loop_csv(Trace(values=values, names=tuple(f"n{i}" for i in range(n))))
    for kind in draw(st.lists(st.sampled_from(CSV_MUTATIONS), min_size=1, max_size=3)):
        lines = text.split("\n")
        if len(lines) < 2:  # a stray overwrite took the only newline
            break
        row = draw(st.integers(1, len(lines) - 1))
        if kind in ("ragged", "cell-2", "cell-form"):
            cells = lines[row].split(",")
            col = draw(st.integers(0, len(cells) - 1))
            if kind == "ragged":
                cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
            elif kind == "cell-2":
                cells[col] = "2"
            else:
                cells[col] = draw(st.sampled_from(["01", "+1", "-0", " 1", "1 ", "\t0", "00"]))
            lines[row] = ",".join(cells)
            text = "\n".join(lines)
        elif kind == "stray":  # inserted or overwritten, half the time at a separator
            char = draw(st.sampled_from([" ", "\t", ";"]))
            commas = [i for i, c in enumerate(text) if c == ","]
            if commas and draw(st.booleans()):
                at = draw(st.sampled_from(commas))
            else:
                at = draw(st.integers(0, len(text)))
            text = text[:at] + char + text[at + draw(st.integers(0, 1)) :]
        elif kind == "crlf":  # every newline, or the one after line ``row``
            if draw(st.booleans()):
                text = text.replace("\n", "\r\n")
            else:
                lines[row - 1] += "\r"
                text = "\n".join(lines)
        elif kind == "no-final-newline":
            text = text.removesuffix("\n")
        elif kind == "blank":
            # after the header: a blank header line would read as no nets
            lines.insert(row, draw(st.sampled_from(["", " ", "\t"])))
            text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@example(text="n0,n1\n0,1\n1\n")  # ragged
@example(text="n0,n1\n0,1\n2,0\n")  # a 2
@example(text="n0,n1\n0 1\n1,0\n")  # a space for a separator
@example(text="n0,n1\n0;1\n1,0\n")  # a stray separator
@example(text="n0,n1\n0, 1\n\t1,0\n")  # stray space and tab beside cells
@example(text="n0,n1\r\n0,1\r\n1,0\r\n")  # CRLF
@example(text="n0,n1\n0,1\r1,0\n")  # a lone CR
@example(text="n0,n1\n0,1\n1,0")  # no final newline
@example(text="n0,n1\n0,1\n\n \n1,0\n")  # blank lines
@example(text="n0,n1\n01,+1\n-0,1\n")  # cells numpy reads as 0/1
@given(text=mutated_trace_csvs())
def test_trace_csv_reader_matches_line_reader_on_mutations(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    path.write_bytes(text.encode())
    try:
        expected = _line_csv_reader(path)
    except NetlistError as exc:
        with pytest.raises(NetlistError) as err:
            Trace.from_csv(path)
        assert str(err.value) == str(exc)
    else:
        back = Trace.from_csv(path)
        assert back.names == expected.names
        assert np.array_equal(back.values, expected.values)


# ---------------------------------------------------------------------------
# Differential check: compiled kernel vs reference interpreter
# ---------------------------------------------------------------------------


def tables(k: int):
    return st.integers(0, (1 << (1 << k)) - 1).map(partial(TruthTable.from_bits, k))


@st.composite
def netlists_with_stimuli(draw):
    """Random netlists and stimuli, with a flag for a closed LUT loop.

    LUTs read only earlier nets, so the LUT graph is acyclic until one
    LUT input is rewired to a LUT in its own fan-out cone, which some
    cases do last; up to two more LUTs may then read that cone too, so
    a LUT can lead into a loop without being on it.  Flip-flops of both
    kinds take ``ce``/``sr`` from any earlier net and may defer ``d``,
    which is then wired to any net, closing loops through state.  A LUT
    input may be rewired to a later flip-flop: a forward reference in
    the text form, but no LUT loop.  Half the netlists also get a
    register whose next state reads up to 10 more nets, some of them new
    ports, through two LUTs: its support may pass the fold limit.  Half
    get one or two registers that load a cone wider than the fold limit
    over another register, which then fold in a later stage.
    """
    nl = Netlist()
    for i in range(draw(st.integers(1, 3))):
        nl.add_input(f"I{i}")
    if draw(st.booleans()):
        nl.reset()
    for value in draw(st.sets(st.integers(0, 1))):
        nl.const(value)
    deferred = []
    for _ in range(draw(st.integers(1, 16))):
        net = st.integers(0, nl.net_count - 1)
        if draw(st.booleans()):
            k = draw(st.integers(1, 6))
            nl.add_lut(draw(st.lists(net, min_size=k, max_size=k)), draw(tables(k)))
        else:
            d = draw(st.none() | net)
            q = nl.add_ff(draw(st.sampled_from(FfKind)), d, draw(net), draw(net))
            if d is None:
                deferred.append(q)
    if draw(st.booleans()):
        for i in range(draw(st.integers(0, 6))):
            nl.add_input(f"W{i}")
        net = st.integers(0, nl.net_count - 1)
        q = nl.add_ff(draw(st.sampled_from(FfKind)), None, draw(net), draw(net))
        x = nl.add_lut([q, *draw(st.lists(net, min_size=5, max_size=5))], draw(tables(6)))
        k = draw(st.integers(1, 6))
        ins = [x, *draw(st.lists(net, min_size=k - 1, max_size=k - 1))]
        nl.set_ff_d(q, nl.add_lut(ins, draw(tables(k))))
    if draw(st.sampled_from((False, True, True))):
        # one or two registers load a cone over a new register and 8 new
        # ports, with up to 2 more nets: past the fold limit until a
        # stage after the new register's evaluates the cone
        net = st.integers(0, nl.net_count - 1)
        src = nl.add_ff(draw(st.sampled_from(FfKind)), draw(net), draw(net), draw(net))
        ports = [nl.add_input(f"V{i}") for i in range(8)]
        more = draw(st.lists(st.integers(0, src), max_size=2))
        leaves = draw(st.permutations(ports + more))
        x = nl.add_lut([src, *leaves[:5]], draw(tables(6)))
        wide = nl.add_lut([x, *leaves[5:]], draw(tables(1 + len(leaves[5:]))))
        for _ in range(draw(st.integers(1, 2))):
            nl.add_ff(draw(st.sampled_from(FfKind)), wide, draw(net), draw(net))
    for q in deferred:
        nl.set_ff_d(q, draw(st.integers(0, nl.net_count - 1)))
    luts = [c for c in nl.cells if isinstance(c, Lut)]
    ffs = [c.q for c in nl.cells if not isinstance(c, Lut)]
    forward = [(lut, q) for lut in luts for q in ffs if q > lut.out]
    if forward and draw(st.booleans()):
        lut, q = draw(st.sampled_from(forward))
        nl.set_lut_input(lut.out, draw(st.integers(0, len(lut.inputs) - 1)), q)
    looped = bool(luts) and draw(st.sampled_from((False, False, False, True)))
    if looped:
        lut = draw(st.sampled_from(luts))
        cone = {lut.out}
        for later in luts:
            if set(later.inputs) & cone:
                cone.add(later.out)
        for reader in [lut] + draw(st.lists(st.sampled_from(luts), max_size=2)):
            position = draw(st.integers(0, len(reader.inputs) - 1))
            nl.set_lut_input(reader.out, position, draw(st.sampled_from(sorted(cone))))
    n_cycles = draw(st.integers(1, 24))
    bits = st.lists(st.integers(0, 1), min_size=n_cycles, max_size=n_cycles)
    stim = Stimulus({name: draw(bits) for name in nl.inputs})
    return nl, stim, n_cycles, looped


def _on_lut_loop(nl: Netlist, net: int) -> bool:
    """True if ``net`` is a LUT output that reaches itself through LUT inputs."""
    lut_of = {c.out: c for c in nl.cells if isinstance(c, Lut)}
    if net not in lut_of:
        return False
    seen, todo = set(), list(lut_of[net].inputs)
    while todo:
        n = todo.pop()
        if n == net:
            return True
        if n in lut_of and n not in seen:
            seen.add(n)
            todo.extend(lut_of[n].inputs)
    return False


@settings(max_examples=300, deadline=None)
@given(netlists_with_stimuli(), st.sampled_from(FfKind))
def test_simulate_matches_reference_on_random_netlists(case, open_kind):
    nl, stim, n_cycles, looped = case
    text = nl.to_text()
    back = Netlist.from_text(text)
    assert back.to_text() == text
    if looped:
        for route in (simulate, reference_simulate):
            with pytest.raises(CombinationalCycleError) as err:
                route(nl, stim, n_cycles)
            assert _on_lut_loop(nl, err.value.net)
        return
    # --hypothesis-show-statistics prints how often each kind occurs
    comp = nl._compile()
    event("unfolded" if any(s.levels for s in comp.stages) else f"{len(comp.stages)} folded stages")
    trace = simulate(nl, stim, n_cycles)
    assert np.array_equal(trace.values, reference_simulate(nl, stim, n_cycles).values)

    again = simulate(back, stim, n_cycles)
    assert again.names == trace.names
    assert np.array_equal(again.values, trace.values)

    # an unwired d pin is rejected by both routes
    nl.add_ff(open_kind, None, 0, 0)
    for route in (simulate, reference_simulate):
        with pytest.raises(NetlistError, match="unwired"):
            route(nl, stim, n_cycles)
