"""Config round-trip, scenario runs, CLI exit codes, verify battery."""

import hashlib
import itertools
import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fmlab import verify
from fmlab.cli import (
    EXPORTS,
    ConfigError,
    ScenarioConfig,
    build_stimulus,
    construct_design,
    main,
    run_scenario,
    simulate_scenario,
)
from fmlab.netcore import FfKind, Netlist, simulate
from fmlab.reference import reference_simulate
from fmlab.verify import check_ff_semantics, verify_suite

# export hashes of the bundled scenarios, shared with the benchmark
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
BUNDLED = ("concealed_trigger", "payload_mode1", "payload_mode2", "jammed")


def scenario_path(name: str) -> Path:
    return Path(resources.files("fmlab") / "scenarios" / f"{name}.ini")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_roundtrip_nontrivial():
    cfg = ScenarioConfig(
        L=4, alignment="random_retry", attempts=7, payload_mode="mode2",
        secret="1100", jammer_pairs=3, demod_threshold=19.25, seed=99,
    )
    assert ScenarioConfig.from_ini(cfg.to_ini()) == cfg


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
# transmitter's OR tree (37 to 261 nets); they fold in a second stage,
# where the tree's output is one leaf, with the quad's other registers.
# A design folds only when every flip-flop fits in some stage
@pytest.mark.parametrize(
    "name, levels",
    [
        ("concealed_trigger", (1, ((0, 1, 54),))),
        ("payload_mode1", (1, ((0, 3, 55), (0, 1, 32)))),
        ("payload_mode2", (1, ((0, 3, 55), (0, 1, 32)))),
        ("jammed", (1, ((0, 5, 343), (0, 1, 32)))),
    ],
)
def test_bundled_designs_fold_only_when_every_flip_flop_fits(name, levels):
    comp = construct_design(ScenarioConfig.load(scenario_path(name))).netlist._compile()
    stages = tuple((len(s.levels), len(s.after), len(s.ff.out)) for s in comp.stages)
    assert (len(comp.hoisted), stages) == levels


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


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS], ids=[n for n, _ in verify.CHECKS])
def test_verify_check(check):
    ok, detail = check()
    assert ok, detail


def test_verify_suite_counts_crashed_checks_as_failed(monkeypatch, capsys):
    def crash():
        raise RuntimeError("boom")

    stub = [("good", lambda: (True, "fine")), ("bad", lambda: (False, "off")), ("crash", crash)]
    monkeypatch.setattr(verify, "CHECKS", stub)
    lines = []
    summary = verify_suite(print_fn=lines.append)
    assert summary.failed == ["bad", "crash"]
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
    one_register = SimpleNamespace(stage_nets=lambda: list(quad.a.csr.stages))
    monkeypatch.setattr(verify, "data_quad", lambda: (nl, one_register))
    ok, detail = verify.check_concealment_balance()
    assert not ok
    assert detail.startswith("balance broken first at cycle 2: "), detail


def test_verify_catches_mutated_ff_priority():
    def mutated_update(kind, current, d, ce, sr):
        if ce:  # wrong: enable examined before set/reset
            return d
        if sr:
            return 1 if kind is FfKind.SET else 0
        return current

    def mutated_simulate(netlist, stimulus, n_cycles):
        return reference_simulate(netlist, stimulus, n_cycles, ff_update=mutated_update)

    ok, detail = check_ff_semantics(simulate_fn=mutated_simulate)
    assert not ok
    assert "sr" in detail or "case" in detail
