"""Config round-trip, scenario runs, CLI exit codes, verify battery."""

import gc
import hashlib
import itertools
import json
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import BUNDLED, scenario_path

from fmlab import verify
from fmlab.cli import (
    EXPORTS,
    ConfigError,
    ScenarioConfig,
    analyze_trace,
    build_stimulus,
    construct_design,
    main,
    run_scenario,
    simulate_scenario,
)
from fmlab.netcore import FfKind, Netlist, Trace, simulate
from fmlab.reference import default_ff_update, reference_simulate
from fmlab.sidechannel import AnalysisError
from fmlab.verify import check_ff_semantics, verify_suite

# export hashes of the bundled scenarios, shared with the benchmark
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_ini("[scenario]\nbogus_key = 1\n")


def test_config_requires_scenario_section():
    with pytest.raises(ConfigError, match="scenario"):
        ScenarioConfig.from_ini("[other]\nL = 8\n")


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("L", 7, "L"),
        ("alignment", "sideways", "alignment"),
        ("payload_mode", "mode9", "payload_mode"),
        ("secret", "10a", "secret"),
        ("alphabet_size", 99, "alphabet_size"),
        ("spectrum_window", 100, "spectrum_window"),
        ("attempts", 0, "attempts"),
        ("demod_threshold", float("nan"), "^demod_threshold:"),
        ("demod_threshold", float("inf"), "^demod_threshold:"),
        ("demod_threshold", -1.0, "^demod_threshold:"),
    ],
)
def test_config_field_level_messages(field, value, fragment):
    cfg = ScenarioConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


def test_horizon_reaches_last_possible_delta():
    # program_length 1 and cycles 8L leave the horizon to the retry layout
    for L in (4, 6, 8, 12, 16):
        design = construct_design(ScenarioConfig(L=L, cycles=8 * L))
        for attempts, seed in itertools.product((1, 2, 5, 32), (0, 1, 7)):
            cfg = ScenarioConfig(
                L=L, alignment="random_retry", attempts=attempts, seed=seed, program_length=1, cycles=8 * L
            )
            stim = build_stimulus(cfg, design)
            assert stim.length >= max(stim.meta["delta_cycles"]) + L, (L, attempts, seed)


def test_config_unparseable_value():
    with pytest.raises(ConfigError, match="cycles"):
        ScenarioConfig.from_ini("[scenario]\ncycles = many\n")


def test_config_auto_threshold():
    cfg = ScenarioConfig(payload_mode="mode1")
    assert cfg.threshold() == 24.0
    cfg = ScenarioConfig(payload_mode="mode2")
    assert cfg.threshold() == 48.0
    cfg = ScenarioConfig(payload_mode="mode1", demod_threshold=30.0)
    assert cfg.threshold() == 30.0


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------


def test_concealed_trigger_scenario(tmp_path):
    cfg = ScenarioConfig.load(scenario_path("concealed_trigger"))
    report, ok = run_scenario(cfg, tmp_path)
    assert ok
    assert report["activation_cycle"] is None
    assert report["uci"]["suspicious_count"] == 0
    assert report["quad_power"]["dynamic_variance"] == 0.0
    assert report["spectral_peaks"] == []
    assert report["checks"]["no_activation"]


def test_payload_mode1_scenario(tmp_path):
    cfg = ScenarioConfig.load(scenario_path("payload_mode1"))
    report, ok = run_scenario(cfg, tmp_path)
    assert ok
    assert report["activation_cycle"] == 2 * cfg.L + 1
    assert report["demodulation"]["matches"]
    assert report["demodulation"]["recovered"] == cfg.secret


def test_payload_mode2_scenario(tmp_path):
    cfg = ScenarioConfig.load(scenario_path("payload_mode2"))
    report, ok = run_scenario(cfg, tmp_path)
    assert ok
    assert report["demodulation"]["matches"]


def test_jammed_scenario(tmp_path):
    cfg = ScenarioConfig.load(scenario_path("jammed"))
    report, ok = run_scenario(cfg, tmp_path)
    assert ok
    jam = report["jamming"]
    assert jam["unjammed_oracle_accuracy"] == 1.0
    assert jam["jammed_oracle_accuracy"] <= cfg.max_jammed_accuracy


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_exports_match_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    run_scenario(ScenarioConfig.load(scenario_path(name)), tmp_path)
    got = {ex: hashlib.sha256((tmp_path / ex).read_bytes()).hexdigest() for ex in EXPORTS}
    assert got == want


def test_jammed_scenario_simulates_as_the_reference():
    # the whole horizon: of the four stages (23, 256, 64 and 32
    # flip-flops), the jammer's 64 run as eight group loops, one per
    # 8-register ring and its port, each meeting about 16 (state, input)
    # keys; the others mostly repeat theirs
    design, stim, trace = simulate_scenario(ScenarioConfig.load(scenario_path("jammed")))
    assert np.array_equal(trace.values, reference_simulate(design.netlist, stim, stim.length).values)


def test_jammed_simulate_leaves_no_reference_cycles():
    # each loop's memo links every state to the next ones, in cycles
    # around each ring; simulate breaks them before it returns
    cfg = ScenarioConfig.load(scenario_path("jammed"))
    design = construct_design(cfg)
    stim = build_stimulus(cfg, design)
    simulate(design.netlist, stim, stim.length)  # compiles the plan
    gc.collect()
    gc.disable()
    try:
        simulate(design.netlist, stim, stim.length)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_netlist_text_roundtrip(name):
    # the payload modes rewire combiner inputs to later nets
    cfg = ScenarioConfig.load(scenario_path(name))
    design, stim, want = simulate_scenario(cfg)
    text = design.netlist.to_text()
    back = Netlist.from_text(text)
    assert back.to_text() == text
    got = simulate(back, stim, stim.length)
    assert got.names == want.names
    assert np.array_equal(got.values, want.values)


# hoisted LUT levels, then per stage: LUT levels in its cycle loop, LUT
# levels after it, flip-flops.  The concealed design folds in one stage.
# In the payload designs the quad's 4 insert stages read the
# transmitter's OR tree (37 to 261 nets); they fold in a later stage,
# where the tree's output is one leaf, with the quad's other registers.
# The first stage is cut at its largest strongly connected component of
# flip-flops, the transmitter's one-hot secret counter (32 registers, 256
# in jammed): first the 23 it reads, transitively (two 8-register rings
# and seven single registers), then the counter, then, in jammed, the
# jammer's eight 8-register rings.  The counter steps once a period, so
# its loop's memo is no longer keyed by the rings' phases.  The quad's
# four rings tie, so its stage is not cut, nor is the concealed design's
# (six rings tie).  A design folds only when every flip-flop fits in
# some stage
@pytest.mark.parametrize(
    "name, levels",
    [
        ("concealed_trigger", (1, ((0, 1, 54),))),
        ("payload_mode1", (1, ((0, 0, 23), (0, 3, 32), (0, 1, 32)))),
        ("payload_mode2", (1, ((0, 0, 23), (0, 3, 32), (0, 1, 32)))),
        ("jammed", (1, ((0, 0, 23), (0, 0, 256), (0, 5, 64), (0, 1, 32)))),
    ],
)
def test_bundled_designs_fold_only_when_every_flip_flop_fits(folded_table_mismatches, name, levels):
    netlist = construct_design(ScenarioConfig.load(scenario_path(name))).netlist
    comp = netlist._compile()
    stages = tuple((len(s.levels), len(s.after), sum(len(g.ff.out) for g in s.groups)) for s in comp.stages)
    assert (len(comp.hoisted), stages) == levels
    assert folded_table_mismatches(netlist) == []


# loops per stage.  A stage splits into its weakly connected groups of
# flip-flops only when each group reads a net that no other group reads:
# the jammer's eight rings each read their own port.  Some group of the
# quad's four rings, and of the concealed design's stage, reads only nets
# another group reads too, so each of those stages runs as one loop
@pytest.mark.parametrize(
    "name, loops",
    [("concealed_trigger", [1]), ("payload_mode1", [1, 1, 1]), ("payload_mode2", [1, 1, 1]), ("jammed", [1, 1, 8, 1])],
)
def test_bundled_stages_run_as_group_loops_only_where_each_group_reads_its_own_net(name, loops):
    design = construct_design(ScenarioConfig.load(scenario_path(name)))
    stages = design.netlist._compile().stages
    assert [len(s.groups) for s in stages] == loops
    if design.jammer is not None:
        (jam,) = [s for s in stages if len(s.groups) > 1]
        ports = {design.netlist.inputs[p] for p in design.jammer.ports}
        assert [len(g.ff.out) for g in jam.groups] == [8] * 8
        assert [len(ports.intersection(g.reads.tolist())) for g in jam.groups] == [1] * 8


@pytest.mark.parametrize("L", [4, 16])
def test_concealed_scenario_balanced_at_any_ring_length(L, tmp_path, capsys):
    cfg = ScenarioConfig.load(scenario_path("concealed_trigger"))
    cfg.L = L
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    assert main(["scenario", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "PASS concealment_balance" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_scenario_exit_zero(tmp_path, capsys):
    code = main(["scenario", "--config", str(scenario_path("payload_mode1")), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS activation_found" in out


@pytest.mark.parametrize("module", ["fmlab", "fmlab.cli"])
def test_python_m_runs_clean(module):
    run = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_cli_detects_violation(tmp_path):
    # an impossible jamming bound turns the scenario into a failing check
    cfg = ScenarioConfig.load(scenario_path("jammed"))
    cfg.max_jammed_accuracy = 0.01
    path = tmp_path / "broken.ini"
    path.write_text(cfg.to_ini())
    code = main(["scenario", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_config_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nL = 7\n")
    code = main(["scenario", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_analysis_start_past_horizon_exit_two(tmp_path, capsys):
    path = tmp_path / "late.ini"
    path.write_text(ScenarioConfig(analysis_start=5000, cycles=256).to_ini())
    assert main(["scenario", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: analysis_start:" in capsys.readouterr().err


def test_cli_missing_config_exit_two(tmp_path):
    assert main(["scenario", "--config", str(tmp_path / "nope.ini")]) == 2


def test_cli_non_utf8_config_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[scenario]\nseed = 1\xff\n")
    assert main(["scenario", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: config {path}: line 2 is not UTF-8 text" in capsys.readouterr().err


def test_cli_seed_and_cycles_override(tmp_path):
    base = ScenarioConfig(alignment="none", payload_mode="concealed", cycles=256, seed=1)
    path = tmp_path / "cfg.ini"
    path.write_text(base.to_ini())
    code = main([
        "scenario", "--config", str(path), "--out", str(tmp_path / "o1"),
        "--seed", "2", "--cycles", "320",
    ])
    assert code == 0
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert report["config"]["seed"] == 2
    assert report["config"]["cycles"] == 320


def test_cli_simulate_subcommand(tmp_path):
    # simulate writes the same netlist and trace as a full scenario run
    path = str(scenario_path("jammed"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
    assert main(["scenario", "--config", path, "--out", str(tmp_path / "scn")]) == 0
    for name in ("netlist.txt", "trace.csv"):
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "scn" / name).read_bytes(), name


def test_cli_analyze_subcommand(tmp_path):
    cfg = ScenarioConfig(alignment="none", cycles=128)
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    code = main([
        "analyze", "--trace", str(tmp_path / "sim" / "trace.csv"),
        "--out", str(tmp_path / "ana"),
    ])
    assert code == 0
    analysis = json.loads((tmp_path / "ana" / "analysis.json").read_text())
    assert analysis["uci"]["suspicious_count"] == 0
    assert (tmp_path / "ana" / "spectrum.csv").exists()


def test_cli_analyze_empty_window_exit_two(tmp_path):
    cfg = ScenarioConfig(alignment="none", cycles=128)
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    code = main([
        "analyze", "--trace", str(tmp_path / "sim" / "trace.csv"),
        "--out", str(tmp_path / "ana"), "--window-stop", "0",
    ])
    assert code == 2


def test_cli_analyze_zero_spectrum_window_exit_two(tmp_path, capsys):
    cfg = ScenarioConfig(alignment="none", cycles=128)
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    code = main([
        "analyze", "--trace", str(tmp_path / "sim" / "trace.csv"),
        "--out", str(tmp_path / "ana"), "--spectrum-window", "0",
    ])
    assert code == 2
    assert "window_len must be a power of two >= 2, got 0" in capsys.readouterr().err


def test_cli_analyze_one_cycle_window_names_the_window(tmp_path, capsys):
    # a window too short for any spectrum is rejected before the scans run,
    # as the window the user gave, not as the spectrum's window_len
    path = tmp_path / "trace.csv"
    path.write_text("RESET,A\n1,0\n0,1\n0,0\n")
    code = main(["analyze", "--trace", str(path), "--out", str(tmp_path / "ana"), "--window-start", "2"])
    assert code == 2
    assert "analysis window (2, 3) is shorter than 2 cycles" in capsys.readouterr().err


def test_analyze_trace_window_bounds_follow_the_integer_rule(tmp_path):
    trace = Trace(values=np.random.default_rng(5).integers(0, 2, (40, 3), np.uint8), names=("RESET", "A", "B"))
    report = analyze_trace(trace, tmp_path / "int64", window_start=np.int64(2))
    assert report["window"] == [2, 40]
    assert json.loads((tmp_path / "int64" / "analysis.json").read_text())["window"] == [2, 40]
    # a bool bound is refused before any export is written
    with pytest.raises(AnalysisError, match=r"^empty or out-of-range window \(True, 40\)$"):
        analyze_trace(trace, tmp_path / "bool", window_start=True)
    assert not any((tmp_path / "bool").iterdir())


def test_cli_analyze_missing_trace_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["analyze", "--trace", str(missing), "--out", str(tmp_path / "ana")]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["0,1,0\n1,0\n", "0,1,0\n1,2,0\n"], ids=["ragged", "cell-2"])
def test_cli_analyze_malformed_trace_exit_two(tmp_path, capsys, rows):
    path = tmp_path / "bad.csv"
    path.write_text("RESET,A,B\n" + rows)
    assert main(["analyze", "--trace", str(path), "--out", str(tmp_path / "ana")]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, line",
    [(b"RESET,\xff\n0,1\n", 1), (b"RESET,A\n0,1\n1,\xff\n", 3)],
    ids=["header", "row"],
)
def test_cli_analyze_non_utf8_trace_exit_two(tmp_path, capsys, content, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["analyze", "--trace", str(path), "--out", str(tmp_path / "ana")]) == 2
    assert f"line {line} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scenario", "simulate", "analyze"])
def test_cli_out_naming_a_file_exit_two(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "analyze":
        source = tmp_path / "trace.csv"
        source.write_text("RESET,A\n1,0\n0,1\n")
        argv = ["analyze", "--trace", str(source)]
    else:
        source = tmp_path / "cfg.ini"
        source.write_text(ScenarioConfig(alignment="none", cycles=128).to_ini())
        argv = [command, "--config", str(source)]
    assert main(argv + ["--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Verify battery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [n for n, _ in verify.CHECKS])
def test_verify_check(name, run_check):
    ok, detail = run_check(name)
    assert ok, detail


def test_verify_suite_counts_crashed_checks_as_failed(monkeypatch, capsys):
    def crash():
        raise RuntimeError("boom")

    stub = [("good", lambda: (True, "fine")), ("bad", lambda: (False, "off")), ("crash", crash)]
    monkeypatch.setattr(verify, "CHECKS", stub)
    summary = verify_suite()
    assert summary.failed == ["bad", "crash"]
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL crash \(\d+\.\d{3} s\): raised RuntimeError: boom", lines[2]), lines[2]
    assert lines[-1] == "1/3 checks passed"
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.endswith("1/3 checks passed\n")


def test_verify_only_runs_the_named_checks(monkeypatch, capsys):
    ran = []
    stub = [(name, lambda name=name: ran.append(name) or (True, "fine")) for name in ("a", "b", "c")]
    monkeypatch.setattr(verify, "CHECKS", stub)
    assert main(["verify", "--only", "c", "--only", "a"]) == 0
    assert ran == ["a", "c"]
    assert capsys.readouterr().out.endswith("2/2 checks passed\n")
    assert main(["verify", "--only", "a", "--only", "nope"]) == 2
    assert ran == ["a", "c"]
    assert capsys.readouterr().err == "error: unknown check nope; valid names: a, b, c\n"


def test_verify_balance_names_first_broken_cycle(monkeypatch):
    nl, quad = verify.data_quad()
    one_register = SimpleNamespace(stage_nets=lambda: list(quad.a.stages))
    monkeypatch.setattr(verify, "data_quad", lambda: (nl, one_register))
    ok, detail = verify.check_concealment_balance()
    assert not ok
    assert detail.startswith("balance broken first at cycle 2: "), detail


@pytest.mark.parametrize(
    "check, scan, field, extra, detail",
    [
        ("check_uci_completeness", "uci_scan", "suspicious", 1, "net 1: brute-force=False, scan=True"),
        ("check_pair_soundness", "pair_scan", "equal_pairs", (1, 2), "equal pair (1,2): brute=False, scan=True"),
    ],
)
def test_verify_scan_checks_name_the_first_mismatch(monkeypatch, check, scan, field, extra, detail):
    """A scan that reports one net or pair too many fails its check, which names it."""
    real = getattr(verify.sidechannel, scan)

    def wrong(trace, window):
        report = real(trace, window)
        return replace(report, **{field: (extra, *getattr(report, field))})

    monkeypatch.setattr(verify.sidechannel, scan, wrong)
    assert getattr(verify, check)() == (False, detail)


def test_verify_catches_mutated_ff_priority():
    # each mutant loads d where it must not: whenever enabled, even with sr
    # high (enable examined before set/reset), or when a SET flip-flop holds 0
    for loads_d, detail in (
        (lambda kind, q, ce, sr: ce, "d=0 ce=1 sr=1: got 0, expected 1"),
        (lambda kind, q, ce, sr: kind is FfKind.SET and not (q or ce or sr), "d=1 ce=0 sr=0: got 1, expected 0"),
    ):
        def update(kind, q, d, ce, sr, loads_d=loads_d):
            return d if loads_d(kind, q, ce, sr) else default_ff_update(kind, q, d, ce, sr)

        ok, got = check_ff_semantics(simulate_fn=partial(reference_simulate, ff_update=update))
        assert (ok, got) == (False, f"SET q0=0 case {detail}")
