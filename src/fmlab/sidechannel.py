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

import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .csvcells import BLOCK_ROWS, fraction_reprs, int_rows
from .netcore import CONST_NAMES, NetId, Netlist, RESET_NAME, Trace, _integer_type, _require_int, _require_window
from .fmlogic import FmSignal, build_std_to_fm


DEFAULT_EXCLUDED_NAMES = (RESET_NAME, CONST_NAMES[0], CONST_NAMES[1])
_EXCLUDED = frozenset(DEFAULT_EXCLUDED_NAMES)


class AnalysisError(ValueError):
    """Invalid analysis request (bad window, scope, or parameters)."""


def scan_nets(trace: Trace) -> list[NetId]:
    """Every net except RESET and the constant tie-offs, in id order."""
    return [n for n, name in enumerate(trace.names) if name not in _EXCLUDED]


# ---------------------------------------------------------------------------
# Unused-circuit and pair-equality scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UciReport:
    """Nets that never changed over the window, plus per-net duty cycles.

    ``duty_cycles`` has one entry per scanned net (:func:`scan_nets`),
    in id order.
    """

    constant_nets: tuple[tuple[NetId, int], ...]
    duty_cycles: dict[NetId, float]
    suspicious: tuple[NetId, ...]
    window: tuple[int, int]

    def to_json_dict(self, names: Sequence[str]) -> dict:
        return {
            "window": list(self.window),
            "suspicious_count": len(self.suspicious),
            "constant_nets": [[names[n], v] for n, v in self.constant_nets],
            "duty_cycles": {names[n]: d for n, d in sorted(self.duty_cycles.items())},
        }


def uci_scan(trace: Trace, window: tuple[int, int]) -> UciReport:
    """Flag nets stuck at one value over the window.

    A net is suspicious iff its windowed duty cycle is exactly 0 or 1.
    RESET and tie-off nets are excluded (see module notes).
    """
    start, stop = _require_window(window, trace.cycles, AnalysisError)
    nets = scan_nets(trace)
    span = stop - start
    # the narrowest unsigned type that holds the span holds every count
    ones = trace.values[start:stop].sum(axis=0, dtype=np.min_scalar_type(span))[nets]
    duty_cycles = dict(zip(nets, (ones / float(span)).tolist()))
    constant = tuple((net, int(d)) for net, d in duty_cycles.items() if d == 0.0 or d == 1.0)
    return UciReport(
        constant_nets=constant,
        duty_cycles=duty_cycles,
        suspicious=tuple(n for n, _ in constant),
        window=(start, stop),
    )


@dataclass(frozen=True)
class PairReport:
    """Net pairs with identical or complementary waveforms over a window."""

    equal_pairs: tuple[tuple[NetId, NetId], ...]
    complement_pairs: tuple[tuple[NetId, NetId], ...]
    window: tuple[int, int]

    def to_json_dict(self, names: Sequence[str]) -> dict:
        return {
            "window": list(self.window),
            "equal_count": len(self.equal_pairs),
            "complement_count": len(self.complement_pairs),
            "equal_pairs": [[names[a], names[b]] for a, b in self.equal_pairs],
            "complement_pairs": [[names[a], names[b]] for a, b in self.complement_pairs],
        }


def pair_scan(trace: Trace, window: tuple[int, int]) -> PairReport:
    """All always-equal and always-complementary net pairs in the window.

    Pairs are reported with the lower net id first; the relations are
    symmetric and the trivial self-pair is excluded by construction.
    Nets are grouped by their waveforms, packed 8 cycles per byte, so
    this is near-linear in net count.
    """
    start, stop = _require_window(window, trace.cycles, AnalysisError)
    nets = scan_nets(trace)
    packed = np.ascontiguousarray(_pack_cycles(trace.values[start:stop])[:, nets].T)
    # flip every cycle's bit but not the last byte's padding, which stays 0
    flipped = packed ^ np.packbits(np.ones(stop - start, np.uint8))
    key_type = f"V{packed.shape[1]}"
    keys = packed.view(key_type).ravel().tolist()
    complement_of = dict(zip(keys, flipped.view(key_type).ravel().tolist()))
    groups: dict[bytes, list[NetId]] = {}
    for net, key in zip(nets, keys):
        groups.setdefault(key, []).append(net)

    equal = [pair for members in groups.values() if len(members) > 1 for pair in combinations(members, 2)]
    complement: list[tuple[NetId, NetId]] = []
    # the waveforms whose complement some net also has; flipping is an
    # involution, so the set holds both sides of each pairing
    for key in groups.keys() & complement_of.values():
        comp_key = complement_of[key]
        if comp_key <= key:  # visit each group pairing once
            continue
        partners = groups[comp_key]
        for a in groups[key]:
            for b in partners:
                complement.append((a, b) if a < b else (b, a))
    equal.sort()
    complement.sort()
    return PairReport(
        equal_pairs=tuple(equal),
        complement_pairs=tuple(complement),
        window=(start, stop),
    )


# the k-th of a packed byte's 8 cycles is its bit 7 - k, as in np.packbits
_CYCLE_BITS = np.array([128, 64, 32, 16, 8, 4, 2, 1], np.uint8)


def _pack_cycles(window: np.ndarray) -> np.ndarray:
    """Byte j of every net's waveform, ``np.packbits(window, axis=0)``:
    row j holds cycles 8j..8j+7 of each net, the last row padded with 0.

    Each row is a weighted sum of 8 contiguous rows of the window, so the
    window is read in its own cycle-major order and never transposed.
    """
    span, n = window.shape
    full = span - span % 8
    packed = np.empty((-(-span // 8), n), np.uint8)
    np.einsum("gkn,k->gn", window[:full].reshape(full // 8, 8, n), _CYCLE_BITS, out=packed[: full // 8])
    if full < span:
        np.einsum("kn,k->n", window[full:], _CYCLE_BITS[: span - full], out=packed[-1])
    return packed


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
        start, stop = _require_window((start, stop), len(self), AnalysisError)
        return PowerTrace(
            dynamic=self.dynamic[start:stop], static=self.static[start:stop], scope=self.scope
        )

    def to_csv(self, path) -> None:
        """Write a header, then one ``cycle,dynamic,static`` row of
        decimal integers per cycle."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cycle,dynamic,static\n")
            for start in range(0, len(self), BLOCK_ROWS):
                stop = start + BLOCK_ROWS
                cycles = np.arange(start, min(stop, len(self)))
                fh.write(int_rows((cycles, self.dynamic[start:stop], self.static[start:stop])))


def power_trace(trace: Trace, scope: Sequence[NetId]) -> PowerTrace:
    """Transition-count power model over an explicit net subset.

    Each cycle's nets from the lowest scoped one to the highest are
    packed into 64-bit words, net ``lo + b`` at bit b (little-endian),
    and masked to the scope: a cycle's static count is the popcount of
    its words, its dynamic count that of their XOR with the previous
    cycle's words.
    """
    scope = _check_scope(trace, scope)
    lo, hi = min(scope), max(scope) + 1
    bits = -(-(hi - lo) // 64) * 64
    in_scope = np.zeros(bits, np.uint8)
    in_scope[np.subtract(scope, lo)] = 1
    mask = np.packbits(in_scope, bitorder="little").view(np.uint64)
    # words[w, t] holds bits 64w..64w+63 of cycle t; the cycles are packed
    # through one zero-padded buffer of about 64 KiB, so no temporary grows
    # with the trace, and each block is one flat packbits
    words = np.empty((len(mask), trace.cycles), np.uint64)
    step = max(1, (64 << 10) // bits)
    rows = np.zeros((min(step, trace.cycles), bits), np.uint8)
    for start in range(0, trace.cycles, step):
        block = trace.values[start : start + step, lo:hi]
        buf = rows[: len(block)]
        buf[:, : hi - lo] = block
        packed = np.packbits(buf, axis=None, bitorder="little").view(np.uint64)
        np.bitwise_and(packed.reshape(len(block), -1), mask, out=words[:, start : start + step].T)
    static = np.bitwise_count(words).sum(axis=0, dtype=np.int64)
    dynamic = np.zeros(trace.cycles, np.int64)
    dynamic[1:] = np.bitwise_count(words[:, 1:] ^ words[:, :-1]).sum(axis=0, dtype=np.int64)
    dynamic.setflags(write=False)
    static.setflags(write=False)
    return PowerTrace(dynamic=dynamic, static=static, scope=scope)


def _check_scope(trace: Trace, scope: Sequence[NetId]) -> tuple[NetId, ...]:
    """The scope as a tuple of net ids; a scope is a set of nets, so it
    names each one once, each by an integer id that is not a bool."""
    scope = scope.tolist() if isinstance(scope, np.ndarray) else scope
    # one subclass test per distinct type of id, not one per id
    if not all(map(_integer_type, set(map(type, scope)))):
        net = next(n for n in scope if not _integer_type(type(n)))
        raise AnalysisError(f"net id {net!r} in scope is not an integer")
    try:
        ids = np.asarray(scope, np.int64)
    except OverflowError:  # an id past int64 names no net: compare Python ints
        ids = np.array([int(n) for n in scope], object)
    if not len(ids):
        raise AnalysisError("power scope must be nonempty")
    unknown = (ids < 0) | (ids >= trace.n_nets)
    if unknown.any():
        raise AnalysisError(f"unknown net {ids[unknown][0]} in scope")
    scope = tuple(ids.tolist())
    if len(set(scope)) < len(scope):
        net = next(n for i, n in enumerate(scope) if n in scope[:i])
        raise AnalysisError(f"net {net} appears twice in scope; a scope names each net once")
    return scope


def quad_balance(
    pt: PowerTrace, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """A replication quad's balance over the cycles [start, stop), read
    from the quad's power trace ``pt``.

    Whatever the data, the quad's 4L stage nets make 6 rises, 6 falls
    and 2L = ``len(pt.scope) // 2`` ones on every cycle.  A step's
    changes are its rises plus its falls and its change in ones is their
    difference, so both are exact halves.  Returns (rises, falls, ones,
    first_bad): ones on each cycle of the window, rises and falls on
    each step between two of them (by the later cycle), and the first
    cycle whose counts break the balance, or None.
    """
    win = pt.window(start, stop)
    ones, changes, moved = win.static, win.dynamic[1:], np.diff(win.static)
    rises, falls = (changes + moved) // 2, (changes - moved) // 2
    bad = ones != len(pt.scope) // 2
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
    message = "period {0} must be a positive integer that divides series length {1}"
    period = _require_int(period, 1, math.inf, AnalysisError, message, n)
    if n % period:
        raise AnalysisError(message.format(period, n))
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
        """The magnitude of the bin nearest ``fraction`` of the clock; a
        fraction that is not a finite real number, or has no bin, raises
        :class:`AnalysisError` naming it."""
        if isinstance(fraction, numbers.Real) and math.isfinite(fraction):
            idx = int(round(fraction * self.window_len))
            if 0 <= idx < len(self.magnitudes):
                return float(self.magnitudes[idx])
        raise AnalysisError(f"no bin at fraction {fraction!r}")

    def to_csv(self, path) -> None:
        """Write a header, then one ``fraction,magnitude`` row per bin.

        Each cell reads ``np.float64(<float repr>)``, the numpy 2 repr of
        the bin's scalar, which the golden export hashes pin.
        """
        freqs = fraction_reprs(self.bin_freqs) or map(repr, self.bin_freqs.tolist())
        mags = map(repr, self.magnitudes.tolist())
        rows = "".join(f"np.float64({f}),np.float64({m})\n" for f, m in zip(freqs, mags))
        with open(path, "w") as fh:
            fh.write("fraction,magnitude\n" + rows)


def spectrum(series: Sequence[float] | np.ndarray, window_len: int) -> Spectrum:
    """DFT magnitudes of the first ``window_len`` samples, mean removed.

    Rectangular window, power-of-two lengths only; the signals analyzed
    here are exactly periodic, so no taper is wanted.  Slice the series
    to the steady-state region before calling.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise AnalysisError("series must be one-dimensional")
    message = "window_len must be a power of two >= 2, got {}"
    window_len = _require_int(window_len, 2, math.inf, AnalysisError, message)
    if window_len & (window_len - 1):
        raise AnalysisError(message.format(window_len))
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
    sums = period_sums(pt, L, start_cycle, n_bits)
    return "".join("1" if s > threshold else "0" for s in sums)


def period_sums(pt: PowerTrace, L: int, start_cycle: int, n_bits: int) -> np.ndarray:
    """The per-period dynamic sums the demodulator thresholds."""
    L = _require_int(L, 1, math.inf, AnalysisError, "period L={} must be at least 1 and an integer")
    n_bits = _require_int(n_bits, 1, math.inf, AnalysisError, "n_bits must be positive and an integer, got {}")
    covers = "start cycle {0} is not an integer from which the trace's {1} cycles cover {2} periods"
    start = _require_int(start_cycle, 0, len(pt) - n_bits * L + 1, AnalysisError, covers, len(pt), n_bits)
    return pt.dynamic[start : start + n_bits * L].reshape(n_bits, L).sum(axis=1)


def oracle_threshold_accuracy(sums: np.ndarray, secret: str) -> tuple[float, float]:
    """Best achievable single-threshold accuracy against a known secret.

    Scans the midpoints between adjacent distinct sums (plus the
    extremes) and returns (accuracy, threshold).  This is the strongest
    threshold demodulator, used to quantify how far jamming degrades the
    channel.
    """
    if set(secret) - {"0", "1"}:
        raise AnalysisError(f"secret {secret!r} must be a string of 0/1")
    sums = np.asarray(sums, dtype=np.float64)
    bits = np.array([1 if ch == "1" else 0 for ch in secret])
    if not len(sums) or len(sums) != len(bits):
        raise AnalysisError(f"got {len(sums)} sums for {len(bits)} secret bits; need one per bit, at least one")
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

    @property
    def L(self) -> int:
        return self.signals[0].L

    def stage_nets(self) -> tuple[NetId, ...]:
        return tuple(net for sig in self.signals for net in sig.stages)

    def all_nets(self) -> tuple[NetId, ...]:
        return self.stage_nets() + tuple(sig.combiner_out for sig in self.signals)

    def stimulus_waves(self, n_cycles: int) -> dict[str, np.ndarray]:
        """Per-period random bit per register, held across each period.

        Each register gets its own seeded stream, so the drawn bits for
        period p do not depend on the simulation horizon.
        """
        n_cycles = _require_int(n_cycles, 1, math.inf, AnalysisError, "n_cycles {} must be a positive integer")
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


def build_jammer(netlist: Netlist, sync: FmSignal, k_pairs: int, seed: int) -> JammerPlan:
    """Add ``k_pairs`` pairs of independently modulated FM registers.

    Each register re-draws its value every SYNC period from the seeded
    stream, so both encoding frequencies keep appearing in the shared
    power scope while the per-period toggle count varies randomly.
    Ports are named ``JAM<k>``, numbered past every JAM port the
    netlist already has.
    """
    _require_int(k_pairs, 1, math.inf, AnalysisError, "jammer needs at least one register pair, got {}")
    ports: list[str] = []
    signals: list[FmSignal] = []
    taken = [int(p[3:]) for p in netlist.inputs if p.startswith("JAM") and p[3:].isdigit()]
    base = max(taken, default=-1) + 1
    for i in range(2 * k_pairs):
        name = f"JAM{base + i}"
        net = netlist.add_input(name)
        ports.append(name)
        signals.append(build_std_to_fm(netlist, net, sync))
    return JammerPlan(ports=tuple(ports), signals=tuple(signals), seed=seed)
