"""Detection and attack battery: activity scans, power modeling, spectra,
payload demodulation, and the counter-jammer.

Power is modeled at transition-count granularity: the dynamic component
of a cycle is the number of scoped nets that changed since the previous
cycle, the static component the number of scoped nets at 1.  Analyses
take an explicit net subset so concealment can be verified at the
replication-quad level while attacks run over whatever the attacker can
observe.

Activity scans exclude the RESET port and constant tie-offs
(:func:`scan_nets`): those are infrastructure, not logic the defender
would attribute activity to.  Everything here is pure over immutable
traces and safe for concurrent batch analysis; only :func:`build_jammer`
mutates a netlist (single-owner construction, like any builder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import CONST_NAMES, NetId, Netlist, RESET_NAME, Trace
from .fmlogic import FmSignal, FmSync, build_std_to_fm

__all__ = [
    "UciReport",
    "PairReport",
    "PowerTrace",
    "PowerStats",
    "Spectrum",
    "JammerPlan",
    "AnalysisError",
    "DEFAULT_EXCLUDED_NAMES",
    "scan_nets",
    "uci_scan",
    "pair_scan",
    "power_trace",
    "transition_counts",
    "quad_balance",
    "power_stats",
    "spectrum",
    "detect_fm_peaks",
    "attacker_demodulate",
    "period_sums",
    "oracle_threshold_accuracy",
    "build_jammer",
]

DEFAULT_EXCLUDED_NAMES = (RESET_NAME, CONST_NAMES[0], CONST_NAMES[1])


class AnalysisError(ValueError):
    """Invalid analysis request (bad window, scope, or parameters)."""


def _check_window(trace: Trace, window: tuple[int, int]) -> tuple[int, int]:
    start, stop = window
    if not 0 <= start < stop <= trace.cycles:
        raise AnalysisError(f"empty or out-of-range window {window}")
    return start, stop


def scan_nets(trace: Trace) -> list[NetId]:
    """Every net except RESET and the constant tie-offs, in id order."""
    return [n for n in range(trace.n_nets) if trace.names[n] not in DEFAULT_EXCLUDED_NAMES]


# ---------------------------------------------------------------------------
# Unused-circuit and pair-equality scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UciReport:
    """Nets that never changed over the window, plus per-net duty cycles."""

    constant_nets: tuple[tuple[NetId, int], ...]
    duty_cycles: dict[NetId, float]
    suspicious: tuple[NetId, ...]
    window: tuple[int, int]

    def to_json_dict(self, names: Sequence[str] | None = None) -> dict:
        def label(n: NetId):
            return names[n] if names is not None else n

        return {
            "window": list(self.window),
            "suspicious_count": len(self.suspicious),
            "constant_nets": [[label(n), v] for n, v in self.constant_nets],
            "duty_cycles": {str(label(n)): d for n, d in sorted(self.duty_cycles.items())},
        }


def uci_scan(trace: Trace, window: tuple[int, int]) -> UciReport:
    """Flag nets stuck at one value over the window.

    A net is suspicious iff its windowed duty cycle is exactly 0 or 1.
    RESET and tie-off nets are excluded (see module notes).
    """
    start, stop = _check_window(trace, window)
    nets = scan_nets(trace)
    sub = trace.values[start:stop, nets]
    span = stop - start
    duty = sub.sum(axis=0, dtype=np.int64) / float(span)
    constant = []
    for i, net in enumerate(nets):
        if duty[i] == 0.0:
            constant.append((net, 0))
        elif duty[i] == 1.0:
            constant.append((net, 1))
    return UciReport(
        constant_nets=tuple(constant),
        duty_cycles={net: float(duty[i]) for i, net in enumerate(nets)},
        suspicious=tuple(n for n, _ in constant),
        window=(start, stop),
    )


@dataclass(frozen=True)
class PairReport:
    """Net pairs with identical or complementary waveforms over a window."""

    equal_pairs: tuple[tuple[NetId, NetId], ...]
    complement_pairs: tuple[tuple[NetId, NetId], ...]
    window: tuple[int, int]

    def to_json_dict(self, names: Sequence[str] | None = None) -> dict:
        def label(n: NetId):
            return names[n] if names is not None else n

        return {
            "window": list(self.window),
            "equal_count": len(self.equal_pairs),
            "complement_count": len(self.complement_pairs),
            "equal_pairs": [[label(a), label(b)] for a, b in self.equal_pairs],
            "complement_pairs": [[label(a), label(b)] for a, b in self.complement_pairs],
        }


def pair_scan(trace: Trace, window: tuple[int, int]) -> PairReport:
    """All always-equal and always-complementary net pairs in the window.

    Pairs are reported with the lower net id first; the relations are
    symmetric and the trivial self-pair is excluded by construction.
    Grouping by waveform content keeps this near-linear in net count.
    """
    start, stop = _check_window(trace, window)
    nets = scan_nets(trace)
    sub = trace.values[start:stop, nets]
    groups: dict[bytes, list[NetId]] = {}
    for i, net in enumerate(nets):
        groups.setdefault(sub[:, i].tobytes(), []).append(net)

    equal: list[tuple[NetId, NetId]] = []
    for members in groups.values():
        members.sort()
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                equal.append((members[i], members[j]))

    complement: list[tuple[NetId, NetId]] = []
    for key, members in groups.items():
        comp_key = (1 - np.frombuffer(key, dtype=np.uint8)).tobytes()
        if comp_key <= key:  # visit each group pairing once
            continue
        partners = groups.get(comp_key)
        if not partners:
            continue
        for a in members:
            for b in partners:
                complement.append(tuple(sorted((a, b))))
    equal.sort()
    complement.sort()
    return PairReport(
        equal_pairs=tuple(equal),
        complement_pairs=tuple(complement),
        window=(start, stop),
    )


# ---------------------------------------------------------------------------
# Power modeling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTrace:
    """Per-cycle dynamic (toggles) and static (ones) consumption series.

    ``dynamic[t]`` counts scoped nets that changed between cycles t-1
    and t (so ``dynamic[0]`` is 0); ``static[t]`` counts scoped nets at
    1 during cycle t.  Unit weights keep both series integral so
    constancy checks can be exact.
    """

    dynamic: np.ndarray
    static: np.ndarray
    scope: tuple[NetId, ...]

    def __len__(self) -> int:
        return len(self.dynamic)

    def window(self, start: int, stop: int) -> "PowerTrace":
        if not 0 <= start < stop <= len(self):
            raise AnalysisError(f"empty or out-of-range window {(start, stop)}")
        return PowerTrace(
            dynamic=self.dynamic[start:stop], static=self.static[start:stop], scope=self.scope
        )

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("cycle,dynamic,static\n")
            for t in range(len(self)):
                fh.write(f"{t},{self.dynamic[t]},{self.static[t]}\n")


def power_trace(trace: Trace, scope: Sequence[NetId]) -> PowerTrace:
    """Transition-count power model over an explicit net subset."""
    scope = _check_scope(trace, scope)
    sub = trace.values[:, scope]
    dynamic = np.zeros(trace.cycles, np.int64)
    static = sub.sum(axis=1, dtype=np.int64)
    if trace.cycles > 1:
        dynamic[1:] = (sub[1:] != sub[:-1]).sum(axis=1, dtype=np.int64)
    dynamic.setflags(write=False)
    static.setflags(write=False)
    return PowerTrace(dynamic=dynamic, static=static, scope=scope)


def _check_scope(trace: Trace, scope: Sequence[NetId]) -> tuple[NetId, ...]:
    scope = tuple(int(n) for n in scope)
    if not scope:
        raise AnalysisError("power scope must be nonempty")
    for net in scope:
        if not 0 <= net < trace.n_nets:
            raise AnalysisError(f"unknown net {net} in scope")
    return scope


def transition_counts(
    trace: Trace, scope: Sequence[NetId]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cycle (rises, falls, ones) over the scoped nets.

    Indexed by destination cycle like :attr:`PowerTrace.dynamic`:
    ``rises[t]`` and ``falls[t]`` count 0->1 and 1->0 changes between
    cycles t-1 and t (both 0 at t = 0); ``ones[t]`` counts nets at 1
    during cycle t.
    """
    sub = trace.values[:, _check_scope(trace, scope)]
    rises = np.zeros(trace.cycles, np.int64)
    falls = np.zeros(trace.cycles, np.int64)
    if trace.cycles > 1:
        rises[1:] = (sub[1:] > sub[:-1]).sum(axis=1)
        falls[1:] = (sub[1:] < sub[:-1]).sum(axis=1)
    return rises, falls, sub.sum(axis=1, dtype=np.int64)


def quad_balance(
    trace: Trace, scope: Sequence[NetId], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """A replication quad's balance over the cycles [start, stop).

    Whatever the data, the quad's 4L stage nets make 6 rises, 6 falls
    and 2L = ``len(scope) // 2`` ones on every cycle.  Returns (rises,
    falls, ones, first_bad): ones on each cycle of the window, rises and
    falls on each step between two of them (by the later cycle), and
    the first cycle whose counts break the balance, or None.
    """
    start, stop = _check_window(trace, (start, stop))
    rises, falls, ones = transition_counts(trace, scope)
    rises, falls, ones = rises[start + 1 : stop], falls[start + 1 : stop], ones[start:stop]
    bad = ones != len(scope) // 2
    bad[1:] |= (rises != 6) | (falls != 6)
    hits = np.flatnonzero(bad)
    return rises, falls, ones, start + int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class PowerStats:
    """Mean/variance per series plus per-period sums."""

    period: int
    dynamic_mean: float
    dynamic_variance: float
    static_mean: float
    static_variance: float
    dynamic_period_sums: np.ndarray
    static_period_sums: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "dynamic_mean": self.dynamic_mean,
            "dynamic_variance": self.dynamic_variance,
            "static_mean": self.static_mean,
            "static_variance": self.static_variance,
            "dynamic_period_sums": [float(v) for v in self.dynamic_period_sums],
            "static_period_sums": [float(v) for v in self.static_period_sums],
        }


def power_stats(pt: PowerTrace, period: int) -> PowerStats:
    """Summary statistics; the period must tile the series exactly."""
    n = len(pt)
    if period < 1 or n % period:
        raise AnalysisError(f"period {period} does not divide series length {n}")
    dyn = pt.dynamic.reshape(n // period, period).sum(axis=1)
    sta = pt.static.reshape(n // period, period).sum(axis=1)
    return PowerStats(
        period=period,
        dynamic_mean=float(pt.dynamic.mean()),
        dynamic_variance=float(pt.dynamic.var()),
        static_mean=float(pt.static.mean()),
        static_variance=float(pt.static.var()),
        dynamic_period_sums=dyn,
        static_period_sums=sta,
    )


# ---------------------------------------------------------------------------
# Spectral analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Real-input DFT magnitudes; frequencies as fractions of the clock."""

    magnitudes: np.ndarray
    bin_freqs: np.ndarray
    window_len: int

    def dominant_fraction(self) -> float | None:
        """The oscillation fundamental: lowest-frequency bin within a
        relative 1e-9 of the maximal non-DC magnitude.

        Pulse trains put equal energy in every harmonic, so the maximum
        alone is a tie set; the fundamental names the frequency.
        Returns None for a flat (constant-input) spectrum.
        """
        mags = self.magnitudes[1:]
        peak = float(mags.max(initial=0.0))
        if peak <= 0.0:
            return None
        idx = int(np.argmax(mags >= peak * (1.0 - 1e-9))) + 1
        return float(self.bin_freqs[idx])

    def magnitude_at(self, fraction: float) -> float:
        idx = int(round(fraction * self.window_len))
        if not 0 <= idx < len(self.magnitudes):
            raise AnalysisError(f"no bin at fraction {fraction}")
        return float(self.magnitudes[idx])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("fraction,magnitude\n")
            for f, m in zip(self.bin_freqs, self.magnitudes):
                fh.write(f"{f!r},{m!r}\n")


def spectrum(series: Sequence[float] | np.ndarray, window_len: int) -> Spectrum:
    """DFT magnitudes of the first ``window_len`` samples, mean removed.

    Rectangular window, power-of-two lengths only; the signals analyzed
    here are exactly periodic, so no taper is wanted.  Slice the series
    to the steady-state region before calling.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise AnalysisError("series must be one-dimensional")
    if window_len < 2 or window_len & (window_len - 1):
        raise AnalysisError(f"window_len must be a power of two >= 2, got {window_len}")
    if window_len > len(arr):
        raise AnalysisError(f"window_len {window_len} exceeds series length {len(arr)}")
    x = arr[:window_len] - arr[:window_len].mean()
    mags = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(window_len)
    mags.setflags(write=False)
    freqs.setflags(write=False)
    return Spectrum(magnitudes=mags, bin_freqs=freqs, window_len=window_len)


def detect_fm_peaks(sp: Spectrum, threshold_ratio: float) -> list[float]:
    """Bins within ``threshold_ratio`` of the maximal non-DC magnitude.

    Returns clock fractions, ascending.  A flat spectrum (constant
    series) yields no peaks.
    """
    if not 0.0 < threshold_ratio <= 1.0:
        raise AnalysisError(f"threshold_ratio must be in (0, 1], got {threshold_ratio}")
    mags = sp.magnitudes[1:]
    peak = float(mags.max(initial=0.0))
    if peak <= 1e-9:
        return []
    hits = np.nonzero(mags >= threshold_ratio * peak)[0] + 1
    return [float(sp.bin_freqs[i]) for i in hits]


# ---------------------------------------------------------------------------
# Payload demodulation
# ---------------------------------------------------------------------------


def attacker_demodulate(
    pt: PowerTrace, L: int, start_cycle: int, n_bits: int, threshold: float
) -> str:
    """Threshold the per-period dynamic sums into a bit string.

    Period i covers cycles [start_cycle + i*L, start_cycle + (i+1)*L);
    a period sums to more than ``threshold`` iff its bit is read as 1.
    """
    if n_bits < 1:
        raise AnalysisError("n_bits must be positive")
    sums = period_sums(pt, L, start_cycle, n_bits)
    return "".join("1" if s > threshold else "0" for s in sums)


def period_sums(pt: PowerTrace, L: int, start_cycle: int, n_bits: int) -> np.ndarray:
    """The per-period dynamic sums the demodulator thresholds."""
    end = start_cycle + n_bits * L
    if start_cycle < 0 or end > len(pt):
        raise AnalysisError(
            f"trace of {len(pt)} cycles cannot cover {n_bits} periods from {start_cycle}"
        )
    return pt.dynamic[start_cycle:end].reshape(n_bits, L).sum(axis=1)


def oracle_threshold_accuracy(sums: np.ndarray, secret: str) -> tuple[float, float]:
    """Best achievable single-threshold accuracy against a known secret.

    Scans the midpoints between adjacent distinct sums (plus the
    extremes) and returns (accuracy, threshold).  This is the strongest
    threshold demodulator, used to quantify how far jamming degrades the
    channel.
    """
    sums = np.asarray(sums, dtype=np.float64)
    bits = np.array([1 if ch == "1" else 0 for ch in secret])
    if len(sums) != len(bits):
        raise AnalysisError("sums and secret length differ")
    uniq = np.unique(sums)
    candidates = [uniq[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])]
    candidates.append(uniq[-1] + 1.0)
    best_acc, best_thr = -1.0, candidates[0]
    for thr in candidates:
        acc = float(((sums > thr).astype(int) == bits).mean())
        if acc > best_acc:
            best_acc, best_thr = acc, float(thr)
    return best_acc, best_thr


# ---------------------------------------------------------------------------
# Counter-jammer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JammerPlan:
    """Defender-added oscillators sharing the payload's frequencies.

    Each FM register in ``signals`` samples its own input port at SYNC
    instants; the ports are driven with per-period pseudo-random bits
    (seeded, reproducible), so the jammer's period sums add noise an
    attacker cannot separate from the payload's.
    """

    ports: tuple[str, ...]
    signals: tuple[FmSignal, ...]
    seed: int
    L: int

    def stage_nets(self) -> tuple[NetId, ...]:
        nets: list[NetId] = []
        for sig in self.signals:
            nets.extend(sig.csr.stages)
        return tuple(nets)

    def all_nets(self) -> tuple[NetId, ...]:
        nets = list(self.stage_nets())
        for sig in self.signals:
            nets.append(sig.combiner_out)
        return tuple(nets)

    def stimulus_waves(self, n_cycles: int) -> dict[str, np.ndarray]:
        """Per-period random bit per register, held across each period.

        Each register gets its own seeded stream, so the drawn bits for
        period p do not depend on the simulation horizon.
        """
        n_periods = (n_cycles + self.L - 1) // self.L + 1
        waves = {}
        for i, port in enumerate(self.ports):
            bits = np.random.default_rng([self.seed, i]).integers(
                0, 2, size=n_periods, dtype=np.uint8
            )
            wave = np.zeros(n_cycles, np.uint8)
            if n_cycles > 1:
                idx = (np.arange(1, n_cycles) - 1) // self.L
                wave[1:] = bits[idx]
            waves[port] = wave
        return waves


def build_jammer(netlist: Netlist, sync: FmSync, k_pairs: int, seed: int) -> JammerPlan:
    """Add ``k_pairs`` pairs of independently modulated FM registers.

    Each register re-draws its value every SYNC period from the seeded
    stream, so both encoding frequencies keep appearing in the shared
    power scope while the per-period toggle count varies randomly.
    Ports are named ``JAM<k>``, numbered past every JAM port the
    netlist already has.
    """
    if k_pairs < 1:
        raise AnalysisError("jammer needs at least one register pair")
    ports: list[str] = []
    signals: list[FmSignal] = []
    taken = [int(p[3:]) for p in netlist.inputs if p.startswith("JAM") and p[3:].isdigit()]
    base = max(taken, default=-1) + 1
    for i in range(2 * k_pairs):
        name = f"JAM{base + i}"
        net = netlist.add_input(name)
        ports.append(name)
        signals.append(build_std_to_fm(netlist, net, sync))
    return JammerPlan(
        ports=tuple(ports),
        signals=tuple(signals),
        seed=seed,
        L=sync.L,
    )
