"""Netlist model, truth tables, simulator semantics, serialization."""

import ast
import inspect
import re
import tracemalloc
from dataclasses import replace
from functools import cache, partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmlab import fmlogic, kernel, reference
from fmlab import sidechannel as sc
from fmlab.cli import ConfigError, ScenarioConfig, analyze_trace
from fmlab.fmlogic import FmError, fm_decode, fm_decode_all
from fmlab.netcore import (
    CombinationalCycleError,
    FfKind,
    Lut,
    Netlist,
    NetlistError,
    Stimulus,
    Trace,
    TruthTable,
    _parse_csv_buffer,
    simulate,
    tt_and,
    tt_buf,
    tt_const,
    tt_equals,
    tt_mux,
    tt_not,
    tt_or,
    tt_xor,
)
from fmlab.reference import reference_simulate
from fmlab.sidechannel import AnalysisError
from fmlab.trojankit import Aligned, RandomRetry, TriggerError, opcode_stimulus, random_program
from fmlab.verify import SPEC, converters, trigger_design, two_input_gate


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
    assert tt_mux() == TruthTable.from_function(3, lambda sel, a, b: a if sel else b)
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


@pytest.mark.parametrize("name", ["my port", "tab\tname", "line\n", "\u00a0lead", "a,b", ""])
@pytest.mark.parametrize("role", ["input", "output"])
def test_port_names_the_text_form_or_csv_header_cannot_carry_are_rejected(role, name):
    # the text form splits its fields on whitespace and a trace CSV header
    # splits on commas, so neither could read such a name back
    nl = Netlist()
    net = nl.add_input("A")
    with pytest.raises(NetlistError, match=f"^{role} name"):
        nl.add_input(name) if role == "input" else nl.mark_output(name, net)


def test_unusual_port_names_survive_the_text_form_and_csv(tmp_path):
    nl = Netlist()
    a = nl.add_input("#a-\u00e9")
    nl.mark_output("y;\"q\"", nl.add_lut((a,), tt_not()))
    back = Netlist.from_text(nl.to_text())
    assert (back.inputs, back.outputs) == (nl.inputs, nl.outputs)
    trace = simulate(nl, Stimulus.standard(3, nl), 3)
    trace.to_csv(tmp_path / "t.csv")
    assert Trace.from_csv(tmp_path / "t.csv").names == trace.names


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


@pytest.mark.parametrize("net", [1.7, "1", None])
def test_add_lut_rejects_non_integer_nets(net):
    nl = Netlist()
    nl.add_input("A")
    nl.add_input("B")
    with pytest.raises(NetlistError, match="undriven"):
        nl.add_lut([net], tt_buf())
    assert nl.cells == []


# each wires its ``net`` argument to a fresh netlist's pin; ``q`` is an
# open flip-flop and ``x`` a buffer LUT
_BOOL_WIRINGS = {
    "add_lut": lambda nl, q, x, net: nl.add_lut([net], tt_buf()),
    "add_ff": lambda nl, q, x, net: nl.add_ff(FfKind.RESET, None, net, q),
    "set_ff_d": lambda nl, q, x, net: nl.set_ff_d(q, net),
    "set_lut_input": lambda nl, q, x, net: nl.set_lut_input(x, 0, net),
}


@pytest.mark.parametrize("net", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("wiring", list(_BOOL_WIRINGS))
def test_netlist_rejects_boolean_nets(wiring, net):
    # bool is an int subclass: True would wire net 1, False net 0
    nl = Netlist()
    a, b = nl.add_input("A"), nl.add_input("B")
    q = nl.add_ff(FfKind.RESET, None, a, b)
    x = nl.add_lut([a], tt_buf())
    version = nl._version
    with pytest.raises(NetlistError, match="undriven net"):
        _BOOL_WIRINGS[wiring](nl, q, x, net)
    assert nl._version == version


# the readers' net 1 exists: a bool or float naming it is still refused
_BAD_NET_IDS = [True, np.True_, 1.0, "1", None, -1, 2]


@pytest.mark.parametrize("net", _BAD_NET_IDS, ids=repr)
@pytest.mark.parametrize("kind", ["lut", "ff", "name_of"])
def test_cell_readers_reject_bad_net_ids(kind, net):
    nl = Netlist()
    a = nl.add_input("A")
    assert (nl.add_lut([a], tt_buf()) if kind == "lut" else nl.add_ff(FfKind.SET, a, a, a)) == 1
    with pytest.raises(NetlistError, match=rf"^net {re.escape(repr(net))} is not a"):
        getattr(nl, kind)(net)


def test_tt_const_checks_arity_before_building():
    # an arity of 26 would first build a 2**26-bit (8 MiB) table
    tracemalloc.start()
    try:
        with pytest.raises(NetlistError, match="arity"):
            tt_const(26, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tt_const(3, 1).is_constant() and tt_const(3, 1).bits == (1 << 64) - 1
    assert tt_const(3, 0).bits == 0


def test_seven_input_function_needs_multiple_luts():
    with pytest.raises(NetlistError):
        tt_and(7)


@pytest.mark.parametrize("arity", [0, 7, 40])
def test_from_function_checks_arity_before_calling(arity):
    def fn(*bits):
        raise AssertionError("fn called")

    with pytest.raises(NetlistError, match="arity"):
        TruthTable.from_function(arity, fn)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))))
def test_from_function_matches_from_bits(case):
    arity, bits = case

    def lookup(*args):
        return bits >> sum(v << b for b, v in enumerate(args)) & 1

    assert TruthTable.from_function(arity, lookup) == TruthTable.from_bits(arity, bits)


@pytest.mark.parametrize("k", range(1, 7))
def test_tt_gates_match_their_definitions(k):
    assert tt_and(k) == TruthTable.from_function(k, lambda *b: all(b))
    assert tt_or(k) == TruthTable.from_function(k, lambda *b: any(b))
    assert tt_xor(k) == TruthTable.from_function(k, lambda *b: sum(b) & 1)


# ---------------------------------------------------------------------------
# Flip-flop semantics
# ---------------------------------------------------------------------------


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
    assert kernel._topo_order(nl) == [nl.lut(l1), nl.lut(l2)]


def test_topo_self_loop_reports_cycle_net():
    nl = Netlist()
    a = nl.add_input("A")
    buf = nl.add_lut((a,), tt_buf())
    nl.set_lut_input(buf, 0, buf)  # close a LUT-only loop
    with pytest.raises(CombinationalCycleError) as err:
        kernel._topo_order(nl)
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
    kernel._topo_order(nl)  # no error: the loop goes through flip-flops


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


def _free_running_design():
    """A two-register ring with constant pins beside an unused port: its
    stage reads no net it does not write, so every cycle's memo key has
    an empty input part."""
    nl = Netlist()
    one, zero = nl.const(1), nl.const(0)
    nl.add_input("A")
    q1 = nl.add_ff(FfKind.SET, None, one, zero)
    q2 = nl.add_ff(FfKind.RESET, q1, one, zero)
    nl.set_ff_d(q1, nl.add_lut([q2], tt_not()))
    return nl


def _ring(nl: Netlist, rng, count: int, port: str = "A") -> list[int]:
    """``count`` registers in a ring, each loading a random function of the
    one before it and ``port``."""
    rst, a = nl.reset(), nl.inputs.get(port) or nl.add_input(port)
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


def _rings_design(ports: str):
    """An 8-register ring on each of ``ports``: rings on ports of their own
    are independent groups of one stage, and each runs as a loop of its own."""
    rng = np.random.default_rng(9)
    nl = Netlist()
    for port in ports:
        _ring(nl, rng, 8, port)
    return nl


def _largest_scc_design():
    """A 2-register ring whose tap enables a 4-register one-hot counter,
    and a toggle register that reads neither: the counter is the largest
    strongly connected component of the stage, so it runs in a loop of
    its own after the ring's and before the toggle's."""
    nl = Netlist()
    rst, a, one = nl.reset(), nl.add_input("A"), nl.const(1)
    r1 = nl.add_ff(FfKind.SET, None, one, rst)
    r2 = nl.add_ff(FfKind.RESET, r1, one, rst)
    nl.set_ff_d(r1, r2)
    counter = [nl.add_ff(FfKind.SET if i == 0 else FfKind.RESET, None, r2, rst) for i in range(4)]
    for prev, q in zip(counter[-1:] + counter[:-1], counter):
        nl.set_ff_d(q, prev)
    toggle = nl.add_ff(FfKind.RESET, None, a, rst)
    nl.set_ff_d(toggle, nl.add_lut([toggle], tt_not()))
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
# read as 0 (constant-inputs, whose CONST1 pins enable), a stage run
# before the cone it reads (two-stage, three-stage-chain), a memo key
# with no input part (free-running), or the largest strongly connected
# component of a stage run before the ring it reads (largest-scc-splits:
# a stage cut into the ring, the counter and the toggle), or a group loop
# keyed by another group's port (two-rings-own-ports).
EDGE_CASES = {
    "no-flip-flops": (_lut_only_design, (2, ())),
    "no-luts": (_ff_only_design, (0, ((0, 0, 4),))),
    "mixed-level": (_mixed_level_design, (2, ((0, 2, 5),))),
    "support-8-folds": (partial(_wide_cone_design, 0), (0, ((0, 2, 8),))),
    "support-9-does-not": (partial(_wide_cone_design, 1), (0, ((2, 0, 4),))),
    "loop-pins": (_loop_pins_design, (0, ((0, 1, 5),))),
    "shared-loop-lut": (_shared_loop_lut_design, (0, ((0, 3, 5),))),
    "constant-inputs": (_constant_inputs_design, (0, ((0, 1, 3),))),
    "free-running": (_free_running_design, (0, ((0, 1, 2),))),
    "two-stage": (_two_stage_design, (0, ((0, 2, 4), (0, 1, 4)))),
    "wide-feedback-does-not": (_wide_feedback_design, (0, ((3, 0, 4),))),
    "three-stage-chain": (partial(_stage_chain_design, 3), (0, ((0, 2, 4), (0, 2, 4), (0, 0, 4)))),
    "four-stage-chain-does-not": (partial(_stage_chain_design, 4), (0, ((2, 0, 4),))),
    "largest-scc-splits": (_largest_scc_design, (0, ((0, 0, 3), (0, 0, 4), (0, 1, 3)))),
    "two-rings-own-ports": (partial(_rings_design, "AB"), (0, ((0, 1, 4),))),
}


@pytest.mark.parametrize("build, shape", EDGE_CASES.values(), ids=EDGE_CASES)
def test_simulate_matches_reference_on_kernel_edge_cases(build, shape):
    nl = build()
    comp = nl._compile()
    stages = tuple((len(s.levels), len(s.after), max(g.ff.ins.shape[1] for g in s.groups)) for s in comp.stages)
    assert (len(comp.hoisted), stages) == shape
    rng = np.random.default_rng(7)
    waves = {n: rng.integers(0, 2, 400) for n in nl.inputs if n != "RESET"}
    stim = Stimulus.standard(400, nl, **waves)
    trace = simulate(nl, stim, 400)
    assert np.array_equal(trace.values, reference_simulate(nl, stim, 400).values)


@pytest.mark.parametrize("ports, loops", [("AB", 2), ("AA", 1), ("ABA", 1)])
def test_a_stage_runs_as_group_loops_when_each_group_reads_a_net_of_its_own(ports, loops):
    # the rings share RESET; a ring that reads no port of its own keeps
    # every ring in the stage's one loop
    nl = _rings_design(ports)
    (stage,) = nl._compile().stages
    assert len(stage.groups) == loops
    if loops > 1:
        rst = nl.inputs["RESET"]
        assert [g.reads.tolist() for g in stage.groups] == [[rst, nl.inputs[p]] for p in ports]
        ffs = [c.q for c in nl.cells if not isinstance(c, Lut)]
        assert [g.ff.out.tolist() for g in stage.groups] == np.reshape(ffs, (loops, -1)).tolist()
        assert all(g.cols == slice(g.ff.out[0], g.ff.out[-1] + 1) for g in stage.groups)


def test_trigger_design_cycle_loop_has_no_lut_level():
    # the opcode comparators read only the input bus, so they leave the
    # loop; the one LUT level that reads flip-flops folds into the
    # flip-flop tables of the one stage and runs after its loop
    comp = trigger_design().netlist._compile()
    assert len(comp.hoisted) == 1
    assert [(len(s.levels), len(s.after)) for s in comp.stages] == [(0, 1)]


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


@pytest.mark.parametrize("net", _BAD_NET_IDS, ids=repr)
@pytest.mark.parametrize("read", [Trace.wave, lambda trace, net: trace.value(net, 0)], ids=["wave", "value"])
def test_trace_readers_reject_bad_net_ids(read, net):
    trace = Trace(values=np.array([[0, 1], [1, 1], [0, 1]], np.uint8), names=("A", "B"))
    with pytest.raises(NetlistError, match=rf"^trace has no net {re.escape(repr(net))}$"):
        read(trace, net)


@pytest.mark.parametrize("cycle", [True, np.True_, 1.0, "1", None, -2, 3], ids=repr)
def test_trace_value_rejects_bad_cycles(cycle):
    trace = Trace(values=np.array([[0, 1], [1, 1], [0, 1]], np.uint8), names=("A", "B"))
    with pytest.raises(NetlistError, match=rf"^trace has no cycle {re.escape(repr(cycle))}$"):
        trace.value(0, cycle)


# ---------------------------------------------------------------------------
# The integer-bounds rule at every bounded argument
# ---------------------------------------------------------------------------


@cache
def _bounds_bed() -> SimpleNamespace:
    """What the bounds rows read: a converter of port A, its 40-cycle
    stimulus (A held 0) and trace, a 4-cycle trace of two zero nets, a
    20-cycle power trace and a jammer of one register on port J."""
    nl, sync, (fm,) = converters("A")
    stim = Stimulus.standard(40, nl)
    return SimpleNamespace(
        nl=nl, sync=sync, fm=fm, lut=fm.combiner_out, stim=stim, trace=simulate(nl, stim, 40),
        zeros=Trace(values=np.zeros((4, 2), np.uint8), names=("A", "B")),
        pt=sc.PowerTrace(dynamic=np.zeros(20), static=np.zeros(20), scope=(0,)),
        jammer=sc.JammerPlan(ports=("J",), signals=(fm,), seed=0),
    )


# True would read as cycle 1, and a float bound would end in numpy's slicing TypeError
_BAD_WINDOWS = [(True, 3), (0, np.True_), (1.0, 3), (1, np.float64(3)), ("1", 3)]
_WINDOW = "^empty or out-of-range window {}$"
_DECODE = r"^decode bounds \({}\) are not integers$"
_PERIOD = "period L={} must be at least 1"
_CYCLES = r"^n_cycles {} must be an integer in \[1, 40\]: a stimulus shorter than the run"
_POSITIVE = "^n_cycles {} must be a positive integer$"

# (name, call, bad values, error, message): call(bed, v) hands one bounded
# argument the value v, and the error's message, "{}" standing for v's repr,
# names it
_BOUNDS_ROWS = [
    ("uci_scan", lambda b, w: sc.uci_scan(b.zeros, w), [*_BAD_WINDOWS, (5, 5)], AnalysisError, _WINDOW),
    ("pair_scan", lambda b, w: sc.pair_scan(b.zeros, w), _BAD_WINDOWS, AnalysisError, _WINDOW),
    ("PowerTrace.window", lambda b, w: b.pt.window(*w), _BAD_WINDOWS, AnalysisError, _WINDOW),
    ("duty_cycle", lambda b, w: fmlogic.duty_cycle(b.trace, b.fm.data_tap, w),
     [(True, 8), (0, np.True_), (0.0, 8), (0, np.float64(8)), (5, 5)], FmError, _WINDOW),
    ("fm_decode", lambda b, t: fm_decode(b.trace, b.fm, t), [17.0], FmError, _DECODE.format(r"17\.0, 18\.0")),
    ("fm_decode", lambda b, t: fm_decode(b.trace, b.fm, t), ["17"], FmError, _DECODE.format("'17', '17'")),
    ("fm_decode_all", lambda b, t: fm_decode_all(b.trace, b.fm, t), [True], FmError, _DECODE.format("True, 40")),
    ("sync_instants-start", lambda b, t: fmlogic.sync_instants(8, 40, t), [True], FmError, "not {}$"),
    ("sync_instants-n_cycles", lambda b, n: fmlogic.sync_instants(8, n), [40.0], FmError, "not {}$"),
    ("build_sync", lambda b, L: fmlogic.build_sync(Netlist(), L), [8.0], FmError, "^CSR length .* got {}$"),
    ("attacker_demodulate-L", lambda b, L: sc.attacker_demodulate(b.pt, L, 3, 4, 1.0), [0], AnalysisError, _PERIOD),
    ("attacker_demodulate-start", lambda b, t: sc.attacker_demodulate(b.pt, 8, t, 4, 1.0), [2.0, 10], AnalysisError,
     "^start cycle {} "),
    ("period_sums-L", lambda b, L: sc.period_sums(b.pt, L, 10, 2), [-2, 8.0], AnalysisError, _PERIOD),
    ("period_sums-start", lambda b, t: sc.period_sums(b.pt, 4, t, 2), [True], AnalysisError, "^start cycle {} "),
    ("period_sums-start-n_bits", lambda b, v: sc.period_sums(b.pt, 8, *v), [(0, 0), (4, -1)], AnalysisError,
     "n_bits must be positive"),
    ("period_sums-n_bits", lambda b, n: sc.period_sums(b.pt, 4, 0, n), [2.0], AnalysisError, "got {}$"),
    ("spectrum", lambda b, n: sc.spectrum(np.zeros(100), n), [100, 8.0], AnalysisError, "power of two .* got {}$"),
    ("spectrum", lambda b, n: sc.spectrum(np.zeros(100), n), [128], AnalysisError, "exceeds"),
    ("analyze_trace", lambda b, n: analyze_trace(b.zeros, "a", spectrum_window=n), [8.0], AnalysisError, "got {}$"),
    ("power_stats", lambda b, p: sc.power_stats(b.pt, p), [4.0, True], AnalysisError, "^period {} must be"),
    ("build_jammer", lambda b, k: sc.build_jammer(b.nl, b.sync, k, 0), [1.0], AnalysisError, "got {}$"),
    ("Stimulus.standard", lambda b, n: Stimulus.standard(n, b.nl), [4.0, True, 0], NetlistError, _POSITIVE),
    ("stimulus_waves", lambda b, n: b.jammer.stimulus_waves(n), [8.0, True, 0], AnalysisError, _POSITIVE),
    ("simulate", lambda b, n: simulate(b.nl, b.stim, n), [2.0, True, 41], NetlistError, _CYCLES),
    ("reference_simulate", lambda b, n: reference_simulate(b.nl, b.stim, n), [2.0, True], NetlistError, _CYCLES),
    ("from_bits", lambda b, k: TruthTable.from_bits(k, 1), [True], NetlistError, r"^table arity .* got {}$"),
    ("tt_equals", lambda b, v: tt_equals(2, v), [1.0], NetlistError, "^value {} does not fit in 2 bits$"),
    ("set_lut_input", lambda b, i: b.nl.set_lut_input(b.lut, i, 0), [True], NetlistError, "position {}$"),
    ("opcode_stimulus-total_cycles", lambda b, n: opcode_stimulus([1], SPEC, None, 0, n), [400.0], TriggerError,
     "^total_cycles {} "),
    ("opcode_stimulus-L", lambda b, L: opcode_stimulus([1], SPEC, Aligned(), L), [8.0], TriggerError, "got {}$"),
    ("random_program", lambda b, n: random_program(n, 16, 4), [30.0], TriggerError, "got {}$"),
    ("RandomRetry", lambda b, n: RandomRetry(n), [0, 2.0], TriggerError, "got {}$"),
    ("TriggerSpec", lambda b, w: replace(SPEC, opcode_width=w), [4.0], TriggerError, "got {}$"),
    ("ScenarioConfig-L", lambda b, L: ScenarioConfig(L=L).validate(), [8.0], ConfigError, "^L: CSR .* got {}$"),
]


@pytest.mark.parametrize(
    "call, bad, error, message",
    [pytest.param(call, v, error, message, id=f"{name}-{v!r}")
     for name, call, bad, error, message in _BOUNDS_ROWS for v in bad],
)
def test_bounded_arguments_follow_the_integer_rule(call, bad, error, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # analyze_trace writes to ./a
    with pytest.raises(error, match=message.format(re.escape(repr(bad)))):
        call(_bounds_bed(), bad)


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("CONST 0 7\n", "malformed record on line 1: 'CONST 0 7'"),
        ("IN A 0\nLUT 1 0000000000000002\n", "line 2: table arity must be in [1, 6], got 0"),
        ("IN A 0\nLUT 1 0000000000000001 0\n", "line 2: table is not replicated"),
        ("IN A 0\nFFS 1 0 0 5\n", "line 2: FF sr references undriven net 5"),
        ("IN A 0\nFFR 1 9 0 0\n", "line 2: FF d references undriven net 9"),
        ("IN A 0\nLUT 1 5555555555555555 4\n", "line 2: LUT input references undriven net 4"),
        ("IN A 0\n\nOUT Y 3\n", "line 3: output references undriven net 3"),
        ("CONST 0 1\nCONST 1 1\n", "line 2: net numbering mismatch at 1"),
        ("IN A 0\nIN B 0\n", "line 2: net 0 is already driven by line 1"),
        (
            "IN A 0\nLUT 1 5555555555555555 0\n\nLUT 1 aaaaaaaaaaaaaaaa 0\n",
            "line 4: net 1 is already driven by line 2",
        ),
    ],
    ids=[
        "const-7",
        "lut-no-ins",
        "lut-unreplicated",
        "ff-sr",
        "ff-d",
        "lut-in",
        "out",
        "const-2x",
        "in-2x",
        "lut-2x",
    ],
)
def test_netlist_from_text_names_the_bad_line(text, message):
    with pytest.raises(NetlistError) as err:
        Netlist.from_text(text)
    assert str(err.value).startswith(message), str(err.value)


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


@pytest.mark.parametrize("rows", ["0,1\n1,0\n1\n", "0,1\n1,0\n2,0\n"], ids=["ragged", "cell-2"])
def test_trace_csv_rejects_malformed_rows(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("RESET,A\n" + rows)
    with pytest.raises(NetlistError, match="line 4"):
        Trace.from_csv(path)


def test_trace_csv_rejects_a_bad_cell_in_a_later_reader_block(tmp_path):
    # the reader checks 64 KiB of text at a time: a 2 in its fourth block
    # sends the file to the line reader, which names the line
    values = np.random.default_rng(5).integers(0, 2, size=(20000, 5), dtype=np.uint8)
    text = _loop_csv(Trace(values=values, names=tuple(f"n{i}" for i in range(5)))).split("\n")
    text[19990] = "2" + text[19990][1:]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(text))
    with pytest.raises(NetlistError, match="line 19991 is not 5 comma-separated"):
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
@example(text="n0,n1\n,0\n1,0\n")  # a separator in a digit slot
@example(text="n0,n1\n,,0\n1,0\n")  # the same, in a body of whole rows
@example(text="n0,n1\n0,\n\n1,0\n")  # a newline in a digit slot
@example(text="n0,n1\n0,1\n1,0\r")  # a final row ending in CR
@example(text="n0,n1\n0,1\n1,0\n\n")  # a body of odd byte length
@given(text=mutated_trace_csvs())
def test_trace_csv_reader_matches_line_reader_on_mutations(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "trace.csv"
    data = text.encode()
    path.write_bytes(data)
    fast = _parse_csv_buffer(data)
    if fast is not None:  # only what to_csv writes, bar a CRLF header, takes the word-level path
        Trace(values=fast[1], names=fast[0]).to_csv(tmp / "written.csv")
        header, _, body = data.partition(b"\n")
        assert header.removesuffix(b"\r") + b"\n" + body == (tmp / "written.csv").read_bytes()
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


def test_reference_interpreter_imports_only_the_model():
    """The reference stays an independent route: every fmlab name it
    imports is defined in netcore, and it imports nothing from the kernel
    it cross-checks (fmlab's package import loads every module, so
    ``sys.modules`` cannot show this)."""
    tree = ast.parse(inspect.getsource(reference))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("fmlab")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fmlab")):
            assert node.module in ("netcore", "fmlab.netcore"), node.module
            names += [a.asname or a.name for a in node.names]
    assert names
    for name in names:
        assert getattr(reference, name).__module__ == "fmlab.netcore", name


KINDS = st.sampled_from(FfKind)


# each strategy is built once per argument: hypothesis validates every
# new strategy object on its first draw
@cache
def tables(k: int):
    return st.integers(0, (1 << (1 << k)) - 1).map(partial(TruthTable.from_bits, k))


@cache
def waves(n: int):
    """A 0/1 waveform of ``n`` cycles, drawn as one ``n``-bit integer."""
    return st.integers(0, (1 << n) - 1).map(lambda v: [(v >> t) & 1 for t in range(n)])


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
    over another register, which then fold in a later stage.  Each port's
    stimulus is one drawn integer of ``n_cycles`` bits.
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
            q = nl.add_ff(draw(KINDS), d, draw(net), draw(net))
            if d is None:
                deferred.append(q)
    if draw(st.booleans()):
        for i in range(draw(st.integers(0, 6))):
            nl.add_input(f"W{i}")
        net = st.integers(0, nl.net_count - 1)
        q = nl.add_ff(draw(KINDS), None, draw(net), draw(net))
        x = nl.add_lut([q, *draw(st.lists(net, min_size=5, max_size=5))], draw(tables(6)))
        k = draw(st.integers(1, 6))
        ins = [x, *draw(st.lists(net, min_size=k - 1, max_size=k - 1))]
        nl.set_ff_d(q, nl.add_lut(ins, draw(tables(k))))
    if draw(st.sampled_from((False, True, True))):
        # one or two registers load a cone over a new register and 8 new
        # ports, with up to 2 more nets: past the fold limit until a
        # stage after the new register's evaluates the cone
        net = st.integers(0, nl.net_count - 1)
        src = nl.add_ff(draw(KINDS), draw(net), draw(net), draw(net))
        ports = [nl.add_input(f"V{i}") for i in range(8)]
        more = draw(st.lists(st.integers(0, src), max_size=2))
        leaves = draw(st.permutations(ports + more))
        x = nl.add_lut([src, *leaves[:5]], draw(tables(6)))
        wide = nl.add_lut([x, *leaves[5:]], draw(tables(1 + len(leaves[5:]))))
        for _ in range(draw(st.integers(1, 2))):
            nl.add_ff(draw(KINDS), wide, draw(net), draw(net))
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
    stim = Stimulus({name: draw(waves(n_cycles)) for name in nl.inputs})
    return nl, stim, n_cycles, looped


def _stages_in_order(nl: Netlist) -> tuple[tuple, int]:
    """The stages of ``nl``'s first compile, and how many plans
    :func:`kernel.cut` cut, after checking that each stage's loop reads
    only flip-flops whose state columns earlier stages have written."""
    real, parts = kernel.cut, []

    def cut(sccs, reads):
        parts.append(real(sccs, reads))
        return parts[-1]

    with mock.patch.object(kernel, "cut", cut):
        stages = nl._compile().stages
    written = set()
    for stage in reversed(stages):
        written.update(*(g.ff.out.tolist() for g in stage.groups))
        assert all(written.isdisjoint(g.reads.tolist()) for g in stage.groups)
    return stages, sum(len(p) > 1 for p in parts)


def _memo_hit_share(nl: Netlist, trace: Trace) -> float:
    """The share of cycles whose (state, external inputs) key an earlier
    cycle of the same loop already had, over every group's loop."""
    loops = [g for s in nl._compile().stages for g in s.groups]
    keys = sum(len({(row[g.ff.out].tobytes(), row[g.reads].tobytes()) for row in trace.values}) for g in loops)
    return 1 - keys / (trace.cycles * len(loops))


@settings(max_examples=300, deadline=None)
@given(netlists_with_stimuli(), st.data())
def test_simulate_matches_reference_on_random_netlists(folded_table_mismatches, case, data):
    """Every kernel property, on one drawn netlist.

    The text form round-trips, and a LUT loop is rejected by both
    routes.  Otherwise each stage's loop reads only flip-flops whose
    state columns earlier stages have written, including the parts a
    stage is cut into at its largest strongly connected component; each
    folded table matches its cone; and both the drawn stimulus and a
    periodic one simulate as the reference does.  In the periodic one
    every port repeats a random pattern of ``period`` cycles, so the
    flip-flops settle into a short cycle and most cycles of each group's
    loop take their next state from the memo instead of the tables.
    Last, an unwired d pin is rejected by both routes.
    """
    nl, stim, n_cycles, looped = case
    text = nl.to_text()
    back = Netlist.from_text(text)
    assert back.to_text() == text
    if looped:
        for route in (simulate, reference_simulate):
            with pytest.raises(CombinationalCycleError) as err:
                route(nl, stim, n_cycles)
            assert err.value.net in reference.lut_loop_nets(nl)
        return

    stages, cuts = _stages_in_order(nl)
    # --hypothesis-show-statistics prints how often each kind occurs, and
    # how often stages are cut
    unfolded = any(s.levels for s in stages)
    event("unfolded" if unfolded else f"{len(stages)} folded stages")
    if not unfolded:
        event(f"stages cut: {cuts}")
        event("some stage runs as group loops" if any(len(s.groups) > 1 for s in stages) else "one loop per stage")
    assert folded_table_mismatches(nl) == []

    trace = simulate(nl, stim, n_cycles)
    assert np.array_equal(trace.values, reference_simulate(nl, stim, n_cycles).values)
    again = simulate(back, stim, n_cycles)
    assert again.names == trace.names
    assert np.array_equal(again.values, trace.values)

    period = data.draw(st.integers(1, 8), label="period")
    cycles = data.draw(st.integers(64, 300), label="periodic cycles")
    periodic = Stimulus({name: np.resize(data.draw(waves(period)), cycles) for name in nl.inputs})
    trace = simulate(nl, periodic, cycles)
    if stages:
        share = _memo_hit_share(nl, trace)
        band = "< 50%" if share < 0.5 else "50-90%" if share < 0.9 else ">= 90%"
        event(f"{'unfolded' if unfolded else 'folded'}, memo hits {band}")
    else:
        event("no flip-flops")
    assert np.array_equal(trace.values, reference_simulate(nl, periodic, cycles).values)

    nl.add_ff(data.draw(KINDS, label="open d kind"), None, 0, 0)
    for route in (simulate, reference_simulate):
        with pytest.raises(NetlistError, match="unwired"):
            route(nl, stim, n_cycles)


def test_no_stage_reads_a_flip_flop_of_its_own_or_a_later_stage():
    """The stage order of the kernel property, on each kernel edge case
    and the trigger design: the largest-scc-splits case is cut, and no
    part of it reads a later one."""
    cuts = {name: _stages_in_order(build())[1] for name, (build, _) in EDGE_CASES.items()}
    assert cuts["largest-scc-splits"] == 1
    _stages_in_order(trigger_design().netlist)


def test_simulate_matches_reference_on_periodic_stimuli():
    """The periodic stimuli of the kernel property, on each kernel edge
    case: every port repeats a random pattern of 1, 3 or 8 cycles, so the
    flip-flops settle into a short cycle and, on every design with
    flip-flops, most cycles of each group's loop take their next state
    from the memo instead of the tables."""
    rng = np.random.default_rng(11)
    for name, (build, _) in EDGE_CASES.items():
        nl = build()
        for period in (1, 3, 8):
            stim = Stimulus({n: np.resize(rng.integers(0, 2, period), 300) for n in nl.inputs})
            trace = simulate(nl, stim, 300)
            assert np.array_equal(trace.values, reference_simulate(nl, stim, 300).values), (name, period)
            if nl._compile().stages:
                assert _memo_hit_share(nl, trace) >= 0.5, (name, period)
