"""The four benchmark workloads.

Each workload draws its inputs from the benchmark seed, so the same seed
gives the same inputs.  The benchmark times ``setup`` and ``op`` only;
``input``, ``check``, ``after_setup`` and ``verify`` run outside every
timed region.

* ``scenarios``: the four bundled INI configs through ``cli.run_scenario``.
  The only workload with wide netlists (70-465 nets), full-trace
  recording and all five exports.
* ``retry_trials``: one ``RandomRetry(32)`` trigger trial on the fixed
  33-net trigger design, as acceptance criterion 6 runs it.  Narrow
  netlist, many stimuli: per-call and per-cycle overheads show here.
* ``demod_trials``: a fresh payload design per secret (mode 1 and mode 2
  alternating), compiled, simulated and demodulated.  The only workload
  that pays the builders and ``Netlist._compile`` on every operation.
* ``analyze``: CSV read plus ``cli.analyze_trace`` on a jammed trace
  written in set-up.  No simulation: the control for kernel changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np

from fmlab import cli, fmlogic, netcore, sidechannel, trojankit
from fmlab.reference import reference_simulate
from fmlab.trojankit import PayloadMode, RandomRetry, TriggerSpec

SPEC = TriggerSpec(alpha=3, beta=5, gamma=7, delta=11, opcode_width=4)
L = 8
SCENARIOS = ("concealed_trigger", "payload_mode1", "payload_mode2", "jammed")
EXPORTS = ("report.json", "trace.csv", "netlist.txt", "power.csv", "spectrum.csv")
GOLDEN = Path(__file__).with_name("golden.json")
# cycles of every workload design compared against the reference interpreter
REFERENCE_PREFIX = 256


def _seed_stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _load_config(name: str) -> cli.ScenarioConfig:
    return cli.ScenarioConfig.load(resources.files("fmlab") / "scenarios" / f"{name}.ini")


def reference_mismatch(netlist, stimulus, label: str) -> list[str]:
    """Compare a prefix of ``simulate`` with ``reference_simulate``."""
    k = min(REFERENCE_PREFIX, stimulus.length)
    fast = netcore.simulate(netlist, stimulus, k)
    slow = reference_simulate(netlist, stimulus, k)
    if fast.names != slow.names:
        return [f"{label}: simulate and reference disagree on net names"]
    diff = np.argwhere(fast.values != slow.values)
    if len(diff):
        cycle, net = (int(v) for v in diff[0])
        return [f"{label}: simulate != reference first at cycle {cycle}, net {fast.names[net]}"]
    return []


class Workload:
    """Base: per-seed input streams and the work counters of one operation."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.inputs = _seed_stream(seed, 1)

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> list[str]:
        return []

    def verify(self) -> list[str]:
        return []

    def input(self):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, dict]:
        """(output correct, work counts) for one operation.

        Work counts: ``net_cycles`` simulated (for ``analyze``: trace
        cells read), ``recorded`` net-cycles written to traces and
        ``consumed`` net-cycles the downstream calls read.
        """
        raise NotImplementedError


class Scenarios(Workload):
    name = "scenarios"

    def setup(self) -> None:
        self.configs = {name: _load_config(name) for name in SCENARIOS}
        # warm-up round at the INI seeds; its exports are the golden set
        self.golden_dir = self.scratch / "golden"
        for name, cfg in self.configs.items():
            cli.run_scenario(cfg, self.golden_dir / name)

    def after_setup(self) -> list[str]:
        want = json.loads(GOLDEN.read_text())
        problems = []
        for name in SCENARIOS:
            for export in EXPORTS:
                got = hashlib.sha256((self.golden_dir / name / export).read_bytes()).hexdigest()
                if got != want[name][export]:
                    problems.append(f"golden hash mismatch: {name}/{export}")
        return problems

    def verify(self) -> list[str]:
        problems = []
        for name, cfg in self.configs.items():
            design = cli.construct_design(cfg)
            stim = cli.build_stimulus(cfg, design)
            problems += reference_mismatch(design.netlist, stim, name)
        return problems

    def input(self) -> int:
        return _draw_seed(self.inputs)

    def op(self, seed: int) -> dict:
        reports = {}
        for name, cfg in self.configs.items():
            cfg = dataclasses.replace(cfg, seed=seed)
            reports[name], _ = cli.run_scenario(cfg, self.scratch / "ops" / name)
        return reports

    def check(self, seed, reports) -> tuple[bool, dict]:
        cells = sum(r["cycles"] * r["nets"] for r in reports.values())
        ok = all(r["pass"] for r in reports.values())
        # every recorded net-cycle is read again by the trace.csv export
        return ok, {"net_cycles": cells, "recorded": cells, "consumed": cells}


def trigger_design():
    nl = netcore.Netlist()
    sync = fmlogic.build_sync(nl, L)
    bus = trojankit.add_opcode_bus(nl, SPEC.opcode_width)
    lines = trojankit.build_event_sync(nl, bus, SPEC)
    trigger = trojankit.build_trigger(nl, *lines, sync)
    return nl, trigger


class RetryTrials(Workload):
    name = "retry_trials"
    ATTEMPTS = 32

    def setup(self) -> None:
        self.netlist, self.trigger = trigger_design()
        self.netlist._compile()
        self.op(_draw_seed(_seed_stream(self.seed, 0)))

    def verify(self) -> list[str]:
        stim = self._stimulus(_draw_seed(_seed_stream(self.seed, 0)))
        return reference_mismatch(self.netlist, stim, self.name)

    def input(self) -> int:
        return _draw_seed(self.inputs)

    def _stimulus(self, seed: int):
        return trojankit.opcode_stimulus([SPEC.filler()], SPEC, RandomRetry(self.ATTEMPTS, seed=seed), L)

    def op(self, seed: int):
        stim = self._stimulus(seed)
        n = stim.length
        self.netlist._compile()
        trace = netcore.simulate(self.netlist, stim, n)
        last = max(fmlogic.sync_instants(L, n, start=L + 1))
        return stim, trace, last, fmlogic.fm_decode(trace, self.trigger, last).value

    def check(self, seed, out) -> tuple[bool, dict]:
        stim, trace, last, value = out
        # an aligned attempt activates one period after its delta cycle
        want = any((d - 1) % L == 0 and d + L <= last for d in stim.meta["delta_cycles"])
        cells = trace.cycles * trace.n_nets
        return value == int(want), {"net_cycles": cells, "recorded": cells, "consumed": L + 1}


FIRST_BIT_START = 3 * L + 2  # aligned activation at 2L + 1; first bit period
DEMOD_MODES = ((PayloadMode.MODE1, 24.0), (PayloadMode.MODE2, 48.0))
SECRET_BITS = 64


def payload_design(secret: str, mode: PayloadMode):
    nl = netcore.Netlist()
    sync = fmlogic.build_sync(nl, L)
    bus = trojankit.add_opcode_bus(nl, SPEC.opcode_width)
    lines = trojankit.build_event_sync(nl, bus, SPEC)
    trigger = trojankit.build_trigger(nl, *lines, sync)
    carrier = fmlogic.build_std_to_fm(nl, nl.const(0), sync)
    quad = trojankit.build_concealed(nl, carrier, sync, trigger=trigger)
    trojankit.set_payload_mode(quad, mode)
    trojankit.build_payload_transmitter(nl, secret, trigger, quad, sync)
    return nl, quad


def _demod_stimulus(n: int):
    return trojankit.opcode_stimulus([SPEC.filler()], SPEC, trojankit.Aligned(), L, total_cycles=n)


class DemodTrials(Workload):
    name = "demod_trials"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.count = 0

    @staticmethod
    def _draw(rng, index: int) -> tuple[str, PayloadMode, float]:
        secret = "".join("1" if v else "0" for v in rng.integers(0, 2, SECRET_BITS))
        mode, threshold = DEMOD_MODES[index % 2]
        return secret, mode, threshold

    def setup(self) -> None:
        self.op(self._draw(_seed_stream(self.seed, 0), 0))

    def verify(self) -> list[str]:
        problems = []
        for index in range(len(DEMOD_MODES)):
            secret, mode, _ = self._draw(_seed_stream(self.seed, 0), index)
            nl, _ = payload_design(secret, mode)
            stim = _demod_stimulus(FIRST_BIT_START + (SECRET_BITS + 2) * L)
            problems += reference_mismatch(nl, stim, f"{self.name} {mode.value}")
        return problems

    def input(self):
        self.count += 1
        return self._draw(self.inputs, self.count - 1)

    def op(self, inp):
        secret, mode, threshold = inp
        nl, quad = payload_design(secret, mode)
        nl._compile()
        n = FIRST_BIT_START + (len(secret) + 2) * L
        trace = netcore.simulate(nl, _demod_stimulus(n), n)
        pt = sidechannel.power_trace(trace, quad.stage_nets())
        recovered = sidechannel.attacker_demodulate(pt, L, FIRST_BIT_START, len(secret), threshold)
        return trace, len(quad.stage_nets()), recovered

    def check(self, inp, out) -> tuple[bool, dict]:
        trace, scope, recovered = out
        cells = trace.cycles * trace.n_nets
        return recovered == inp[0], {
            "net_cycles": cells, "recorded": cells, "consumed": trace.cycles * scope
        }


class Analyze(Workload):
    name = "analyze"

    def setup(self) -> None:
        cfg = _load_config("jammed")
        cfg.seed = _draw_seed(_seed_stream(self.seed, 0))
        self.design = cli.construct_design(cfg)
        self.stim = cli.build_stimulus(cfg, self.design)
        self.trace = netcore.simulate(self.design.netlist, self.stim, self.stim.length)
        self.csv = self.scratch / "trace.csv"
        self.trace.to_csv(self.csv)
        self.op(None)

    def verify(self) -> list[str]:
        self.expected = cli.analyze_trace(self.trace, self.scratch / "expected")
        return reference_mismatch(self.design.netlist, self.stim, self.name)

    def input(self):
        return None

    def op(self, _):
        trace = netcore.Trace.from_csv(self.csv)
        return trace, cli.analyze_trace(trace, self.scratch / "ops")

    def check(self, _, out) -> tuple[bool, dict]:
        trace, report = out
        same = trace.names == self.trace.names and np.array_equal(trace.values, self.trace.values)
        cells = trace.values.size
        return same and report == self.expected, {"net_cycles": cells, "recorded": 0, "consumed": 0}


WORKLOADS = {w.name: w for w in (Scenarios, RetryTrials, DemodTrials, Analyze)}

