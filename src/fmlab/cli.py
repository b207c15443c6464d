"""Scenario runner: construction, simulation and analysis as reproducible
experiments driven by flat INI configs.

A scenario builds the standard testbed design -- SYNC generator, opcode
bus with event synchronization, a locking trigger, a concealed carrier
quad, optionally the payload transmitter and the counter-jammer -- then
simulates a seeded opcode stream, runs the analysis battery, and writes
a JSON report plus CSV/text exports.  Identical configs (seeds
included) produce byte-identical outputs.

Exit codes: 0 success, 1 an analysis check detected a violation,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import fmlogic, netcore, sidechannel, trojankit
from .netcore import Netlist, Stimulus, Trace
from .trojankit import Aligned, AlignmentPolicy, PayloadMode, RandomRetry, TriggerSpec


class ConfigError(ValueError):
    """Bad scenario configuration; message names the offending field."""


_ALIGNMENTS = ("none", "aligned", "random_retry")
_MODES = ("concealed", "mode1", "mode2")
EXPORTS = ("report.json", "trace.csv", "netlist.txt", "power.csv", "spectrum.csv")


@dataclass
class ScenarioConfig:
    """Flat key-value scenario description (INI section ``[scenario]``)."""

    L: int = 8
    opcode_width: int = 4
    alpha: int = 3
    beta: int = 5
    gamma: int = 7
    delta: int = 11
    alphabet_size: int = 16
    program_length: int = 256
    alignment: str = "none"
    attempts: int = 1
    seed: int = 1
    payload_mode: str = "concealed"
    secret: str = "10110010"
    jammer_pairs: int = 0
    jammer_seed: int = 101
    cycles: int = 2048
    analysis_start: int = 2
    spectrum_window: int = 256
    demod_threshold: float | None = None
    peak_threshold: float = 0.5
    max_jammed_accuracy: float = 0.65
    out_dir: str = "out"

    def validate(self) -> None:
        if self.L < 4 or self.L % 2:
            raise ConfigError(f"L: must be even and >= 4, got {self.L}")
        if not 1 <= self.opcode_width <= 12:
            raise ConfigError(f"opcode_width: must be in [1, 12], got {self.opcode_width}")
        try:
            self.trigger_spec()
        except trojankit.TriggerError as exc:
            raise ConfigError(f"alpha/beta/gamma/delta: {exc}") from None
        if not 2 <= self.alphabet_size <= (1 << self.opcode_width):
            raise ConfigError(
                f"alphabet_size: must be in [2, 2^opcode_width], got {self.alphabet_size}"
            )
        if self.program_length < 1:
            raise ConfigError(f"program_length: must be positive, got {self.program_length}")
        if self.alignment not in _ALIGNMENTS:
            raise ConfigError(f"alignment: must be one of {_ALIGNMENTS}, got {self.alignment!r}")
        if self.attempts < 1:
            raise ConfigError(f"attempts: must be >= 1, got {self.attempts}")
        if self.seed < 0 or self.jammer_seed < 0:
            raise ConfigError("seed/jammer_seed: must be nonnegative")
        if self.payload_mode not in _MODES:
            raise ConfigError(f"payload_mode: must be one of {_MODES}, got {self.payload_mode!r}")
        if not self.secret or set(self.secret) - {"0", "1"}:
            raise ConfigError(f"secret: must be a nonempty 0/1 string, got {self.secret!r}")
        if self.jammer_pairs < 0:
            raise ConfigError(f"jammer_pairs: must be >= 0, got {self.jammer_pairs}")
        if self.cycles < 8 * self.L:
            raise ConfigError(f"cycles: must be at least 8*L, got {self.cycles}")
        if not 1 <= self.analysis_start < self.horizon():
            raise ConfigError(f"analysis_start: must be in [1, {self.horizon()}), got {self.analysis_start}")
        w = self.spectrum_window
        if w < 2 or w & (w - 1):
            raise ConfigError(f"spectrum_window: must be a power of two, got {w}")
        if not 0.0 < self.peak_threshold <= 1.0:
            raise ConfigError(f"peak_threshold: must be in (0, 1], got {self.peak_threshold}")
        if not 0.0 < self.max_jammed_accuracy <= 1.0:
            raise ConfigError("max_jammed_accuracy: must be in (0, 1]")
        if self.demod_threshold is not None and not 0.0 <= self.demod_threshold < math.inf:
            raise ConfigError(f"demod_threshold: must be finite and >= 0, got {self.demod_threshold}")

    def trigger_spec(self) -> TriggerSpec:
        return TriggerSpec(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            delta=self.delta,
            opcode_width=self.opcode_width,
        )

    def mode(self) -> PayloadMode:
        return PayloadMode(self.payload_mode)

    def policy(self) -> AlignmentPolicy | None:
        if self.alignment == "aligned":
            return Aligned()
        if self.alignment == "random_retry":
            return RandomRetry(attempts=self.attempts, seed=self.seed)
        return None

    def horizon(self) -> int:
        """Cycles to simulate: ``cycles``, the program, or the last possible delta plus secret and slack."""
        payload = (len(self.secret) + 3) * self.L if self.payload_mode != "concealed" else 0
        last_delta = trojankit.latest_delta(self.policy(), self.L)
        return max(self.cycles, self.program_length + 1, last_delta + self.L + payload + 4 * self.L)

    def threshold(self) -> float:
        """Demodulation threshold: configured, else the midpoint of the
        derived per-mode period sums (3L for mode 1, 6L for mode 2)."""
        if self.demod_threshold is not None:
            return self.demod_threshold
        return 6.0 * self.L if self.payload_mode == "mode2" else 3.0 * self.L

    # -- INI round-trip -----------------------------------------------------

    def to_ini(self) -> str:
        lines = ["[scenario]"]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "demod_threshold":
                value = "auto" if value is None else repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ini(cls, text: str) -> "ScenarioConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case (the L field)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"INI parse failure: {exc}") from None
        if parser.sections() != ["scenario"]:
            raise ConfigError("config must contain exactly the [scenario] section")
        section = parser["scenario"]
        known = {f.name: f for f in fields(cls)}
        unknown = [k for k in section if k not in known]
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, raw in section.items():
            f = known[key]
            try:
                if key == "demod_threshold":
                    kwargs[key] = None if raw.strip() == "auto" else float(raw)
                elif f.type in ("int", int):
                    kwargs[key] = int(raw)
                elif f.type in ("float", float):
                    kwargs[key] = float(raw)
                else:
                    kwargs[key] = raw
            except ValueError:
                raise ConfigError(f"{key}: cannot parse {raw!r}") from None
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            line = exc.object[: exc.start].count(b"\n") + 1
            raise ConfigError(f"config {path}: line {line} is not UTF-8 text") from None
        return cls.from_ini(text)


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------


@dataclass
class Design:
    """The standard testbed; the trigger half alone leaves the carrier
    fields None."""

    netlist: Netlist
    sync: fmlogic.FmSync
    lines: tuple
    trigger: fmlogic.FmSignal
    quad: trojankit.ConcealedQuad | None = None
    jammer: sidechannel.JammerPlan | None = None

    def quad_scope(self) -> list[int]:
        return list(self.quad.stage_nets())

    def attack_scope(self) -> list[int]:
        scope = self.quad_scope()
        if self.jammer is not None:
            scope += list(self.jammer.all_nets())
        return scope


def construct_trigger(cfg: ScenarioConfig) -> Design:
    """The trigger half of the testbed: SYNC generator, opcode bus,
    event synchronization and the locking trigger."""
    nl = Netlist()
    sync = fmlogic.build_sync(nl, cfg.L)
    bus = trojankit.add_opcode_bus(nl, cfg.opcode_width)
    lines = trojankit.build_event_sync(nl, bus, cfg.trigger_spec())
    trigger = trojankit.build_trigger(nl, *lines, sync)
    return Design(netlist=nl, sync=sync, lines=lines, trigger=trigger)


def build_testbed(cfg: ScenarioConfig, secret: str | None) -> Design:
    """The trigger half plus a concealed carrier quad and, per config,
    the counter-jammer; the trigger and carrier taps are marked outputs.

    With a ``secret`` the quad is armed with the trigger, set to the
    configured payload mode and fed by a transmitter of that secret;
    without one it stays unarmed, so the design contains no
    activation-dependent gating at all.
    """
    design = construct_trigger(cfg)
    nl, sync, trigger = design.netlist, design.sync, design.trigger
    carrier = fmlogic.build_std_to_fm(nl, nl.const(0), sync)
    if secret is None:
        design.quad = trojankit.build_concealed(nl, carrier, sync)
    else:
        design.quad = trojankit.build_concealed(nl, carrier, sync, trigger=trigger)
        trojankit.set_payload_mode(design.quad, cfg.mode())
        trojankit.build_payload_transmitter(nl, secret, trigger, design.quad, sync)
    if cfg.jammer_pairs > 0:
        design.jammer = sidechannel.build_jammer(nl, sync, cfg.jammer_pairs, cfg.jammer_seed)
    nl.mark_output("TRIGGER_TAP", trigger.data_tap)
    nl.mark_output("CARRIER_TAP", carrier.data_tap)
    return design


def construct_design(cfg: ScenarioConfig) -> Design:
    """The scenario testbed: payload modes transmit ``cfg.secret`` through
    an armed quad; concealed mode keeps the quad unarmed."""
    concealed = cfg.mode() is PayloadMode.CONCEALED
    return build_testbed(cfg, None if concealed else cfg.secret)


def build_stimulus(cfg: ScenarioConfig, design: Design) -> Stimulus:
    """Seeded opcode stream (with policy insertions) plus jammer waves.

    The background is random over the whole horizon, scrubbed of
    accidental trigger sequences, so comparators keep toggling and only
    deliberate insertions can activate.
    """
    spec = cfg.trigger_spec()
    horizon = cfg.horizon()
    background = trojankit.random_program(horizon - 1, cfg.alphabet_size, cfg.seed)
    background = trojankit.scrub_sequences(background, spec)
    stim = trojankit.opcode_stimulus(background, spec, cfg.policy(), cfg.L, total_cycles=horizon)
    if design.jammer is not None:
        stim = stim.extended(design.jammer.stimulus_waves(horizon))
    return stim


def simulate_scenario(cfg: ScenarioConfig) -> tuple[Design, Stimulus, Trace]:
    """Construct the testbed and simulate its stimulus over the horizon."""
    design = construct_design(cfg)
    stim = build_stimulus(cfg, design)
    return design, stim, netcore.simulate(design.netlist, stim, stim.length)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _find_activation(trace: Trace, design: Design) -> int | None:
    for t in fmlogic.sync_instants(design.sync.L, trace.cycles, start=design.sync.L + 1):
        if fmlogic.fm_decode(trace, design.trigger, t).value:
            return t
    return None


def run_scenario(cfg: ScenarioConfig, out_dir) -> tuple[dict, bool]:
    """Build, simulate, analyze, export.  Returns (report, all_checks_ok)."""
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    design, stim, trace = simulate_scenario(cfg)
    n = stim.length
    L = cfg.L

    activation = _find_activation(trace, design)
    window = (cfg.analysis_start, n)
    uci = sidechannel.uci_scan(trace, window)
    pairs = sidechannel.pair_scan(trace, window)

    quad_pt = sidechannel.power_trace(trace, design.quad_scope())
    attack_pt = sidechannel.power_trace(trace, design.attack_scope())
    stats_start = 2 * L + 1
    stats_stop = stats_start + ((n - stats_start) // L) * L
    stats = sidechannel.power_stats(quad_pt.window(stats_start, stats_stop), L)

    spectrum_series = attack_pt.dynamic[stats_start:]
    sp = sidechannel.spectrum(spectrum_series, min(cfg.spectrum_window, _pow2_floor(len(spectrum_series))))
    peaks = sidechannel.detect_fm_peaks(sp, cfg.peak_threshold)

    checks: dict[str, bool] = {}
    report: dict = {
        "config": json.loads(json.dumps(asdict(cfg))),
        "cycles": n,
        "nets": trace.n_nets,
        "cells": len(design.netlist.cells),
        "stimulus": {k: v for k, v in stim.meta.items()},
        "activation_cycle": activation,
        "uci": uci.to_json_dict(trace.names),
        "pairs": {
            "equal_count": len(pairs.equal_pairs),
            "complement_count": len(pairs.complement_pairs),
        },
        "quad_power": stats.to_json_dict(),
        "spectral_peaks": peaks,
    }

    # concealment holds over the whole run, or up to the activation instant
    concealed = cfg.mode() is PayloadMode.CONCEALED
    balance_stop = n if concealed else activation
    if balance_stop is not None and balance_stop > 4:
        # both quad halves carry data from cycle 2 on
        rises, falls, ones, bad = sidechannel.quad_balance(trace, design.quad_scope(), 2, balance_stop)
        report["balance" if concealed else "balance_pre_activation"] = {
            "window": [3, balance_stop],  # the cycles the checked transitions land on
            "rises_constant": len(set(rises.tolist())) == 1,
            "falls_constant": len(set(falls.tolist())) == 1,
            "static_constant": len(set(ones.tolist())) == 1,
            "rise_value": int(rises[0]),
            "ones_value": int(ones[0]),
        }
        checks["concealment_balance" if concealed else "concealment_before_activation"] = bad is None
    if concealed:
        checks["power_flat"] = stats.dynamic_variance == 0.0
        checks["uci_clean"] = len(uci.suspicious) == 0
        if cfg.alignment == "none":
            checks["no_activation"] = activation is None
    else:
        checks["activation_found"] = activation is not None
        if activation is not None:
            start = activation + L + 1
            n_bits = len(cfg.secret)
            threshold = cfg.threshold()
            recovered = sidechannel.attacker_demodulate(attack_pt, L, start, n_bits, threshold)
            clean_sums = sidechannel.period_sums(quad_pt, L, start, n_bits)
            clean_acc, clean_thr = sidechannel.oracle_threshold_accuracy(clean_sums, cfg.secret)
            report["demodulation"] = {
                "start_cycle": start,
                "threshold": threshold,
                "recovered": recovered,
                "secret": cfg.secret,
                "matches": recovered == cfg.secret,
                "quad_scope_oracle_accuracy": clean_acc,
                "quad_scope_oracle_threshold": clean_thr,
            }
            if design.jammer is None:
                checks["demodulation_exact"] = recovered == cfg.secret
            else:
                jam_sums = sidechannel.period_sums(attack_pt, L, start, n_bits)
                jam_acc, jam_thr = sidechannel.oracle_threshold_accuracy(jam_sums, cfg.secret)
                report["jamming"] = {
                    "pairs": cfg.jammer_pairs,
                    "seed": cfg.jammer_seed,
                    "unjammed_oracle_accuracy": clean_acc,
                    "jammed_oracle_accuracy": jam_acc,
                    "jammed_oracle_threshold": jam_thr,
                }
                checks["clean_channel_exact"] = clean_acc == 1.0
                checks["jammed_accuracy_bounded"] = jam_acc <= cfg.max_jammed_accuracy

    report["checks"] = checks
    ok = all(checks.values())
    report["pass"] = ok

    (out / "netlist.txt").write_text(design.netlist.to_text())
    trace.to_csv(out / "trace.csv")
    attack_pt.to_csv(out / "power.csv")
    sp.to_csv(out / "spectrum.csv")
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, ok


def _pow2_floor(n: int) -> int:
    return 1 << max(n.bit_length() - 1, 0)


# ---------------------------------------------------------------------------
# Generic trace analysis (CSV input)
# ---------------------------------------------------------------------------


def analyze_trace(
    trace: Trace,
    out_dir,
    window_start: int = 2,
    window_stop: int | None = None,
    spectrum_window: int | None = None,
) -> dict:
    """Run the detection battery on an exported trace.

    Power and spectrum cover every net but RESET and the tie-offs;
    spectral peaks are the bins within half the largest non-DC
    magnitude, as in the default scenario config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stop = trace.cycles if window_stop is None else window_stop
    window = (window_start, stop)
    uci = sidechannel.uci_scan(trace, window)
    pairs = sidechannel.pair_scan(trace, window)
    pt = sidechannel.power_trace(trace, sidechannel.scan_nets(trace))
    series = pt.dynamic[window_start:stop]
    wlen = _pow2_floor(len(series)) if spectrum_window is None else spectrum_window
    sp = sidechannel.spectrum(series, wlen)
    peaks = sidechannel.detect_fm_peaks(sp, 0.5)
    report = {
        "window": list(window),
        "uci": uci.to_json_dict(trace.names),
        "pairs": pairs.to_json_dict(trace.names),
        "spectral_peaks": peaks,
        "dominant_fraction": sp.dominant_fraction(),
    }
    pt.to_csv(out / "power.csv")
    sp.to_csv(out / "spectrum.csv")
    (out / "analysis.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "cycles", None) is not None:
        cfg.cycles = args.cycles
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fmlab",
        description="Frequency-modulated logic laboratory: simulate, analyze, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenario", help="run a full scenario from a config file")
    p_sim = sub.add_parser("simulate", help="build and simulate only; export netlist and trace")
    for p in (p_scn, p_sim):
        p.add_argument("--config", required=True, help="scenario INI file")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--cycles", type=int, default=None, help="override the simulation horizon")

    p_ana = sub.add_parser("analyze", help="run the detection battery on an exported trace CSV")
    p_ana.add_argument("--trace", required=True, help="trace CSV (header = net names)")
    p_ana.add_argument("--out", default="out", help="output directory")
    p_ana.add_argument("--window-start", type=int, default=2)
    p_ana.add_argument("--window-stop", type=int, default=None)
    p_ana.add_argument("--spectrum-window", type=int, default=None)

    p_ver = sub.add_parser("verify", help="run the full invariant battery")
    p_ver.add_argument("--only", action="append", metavar="NAME", help="run only this check (repeatable)")

    args = parser.parse_args(argv)
    try:
        if args.command in ("scenario", "simulate"):
            cfg = _apply_overrides(ScenarioConfig.load(args.config), args)
            out = Path(args.out or cfg.out_dir)
            if args.command == "simulate":
                design, _, trace = simulate_scenario(cfg)
                out.mkdir(parents=True, exist_ok=True)
                (out / "netlist.txt").write_text(design.netlist.to_text())
                trace.to_csv(out / "trace.csv")
                print(f"simulated {trace.cycles} cycles over {trace.n_nets} nets -> {out}")
                return 0
            report, ok = run_scenario(cfg, out)
            for name, value in sorted(report["checks"].items()):
                print(f"{'PASS' if value else 'FAIL'} {name}")
            print(f"report: {out / 'report.json'}")
            return 0 if ok else 1
        if args.command == "analyze":
            try:
                trace = Trace.from_csv(args.trace)
            except OSError as exc:
                print(f"error: cannot read trace {args.trace}: {exc.strerror}", file=sys.stderr)
                return 2
            report = analyze_trace(
                trace,
                args.out,
                window_start=args.window_start,
                window_stop=args.window_stop,
                spectrum_window=args.spectrum_window,
            )
            print(f"suspicious nets: {report['uci']['suspicious_count']}")
            print(f"analysis: {Path(args.out) / 'analysis.json'}")
            return 0
        if args.command == "verify":
            from . import verify

            names = [name for name, _ in verify.CHECKS]
            unknown = [name for name in args.only or () if name not in names]
            if unknown:
                valid = ", ".join(names)
                print(f"error: unknown check {', '.join(unknown)}; valid names: {valid}", file=sys.stderr)
                return 2
            summary = verify.verify_suite(only=args.only)
            return 0 if summary.ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (netcore.NetlistError, fmlogic.FmError, trojankit.TriggerError,
            trojankit.PayloadError, sidechannel.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an --out path that names an existing file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
