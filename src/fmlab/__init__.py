"""fmlab: a cycle-accurate laboratory for frequency-modulated logic.

Builds FPGA-style netlists (LUTs and set/reset flip-flops), encodes
bits as circulating-pattern frequencies on circular shift registers,
constructs trigger/concealment/payload circuitry on top, and runs the
detection battery (activity scans, power modeling, spectral analysis,
payload demodulation, jamming) against the result.
"""

from .netcore import (
    Cell,
    CombinationalCycleError,
    FfKind,
    FlipFlop,
    Lut,
    NetId,
    Netlist,
    NetlistError,
    Stimulus,
    Trace,
    TruthTable,
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
from .reference import reference_simulate
from .fmlogic import (
    FmBit,
    FmError,
    FmExpr,
    FmSignal,
    MalformedFmError,
    build_const_fm,
    build_fm_csr,
    build_fm_gate,
    build_locking_and,
    build_std_to_fm,
    build_sync,
    compose_fm,
    duty_cycle,
    fm_decode,
    sync_instants,
)
from .trojankit import (
    Aligned,
    AlignmentPolicy,
    ConcealedQuad,
    PayloadError,
    PayloadMode,
    RandomRetry,
    TriggerError,
    TriggerSpec,
    add_opcode_bus,
    build_baseline_trojan,
    build_concealed,
    build_event_sync,
    build_payload_transmitter,
    build_trigger,
    opcode_stimulus,
    program_stimulus,
    random_program,
    scrub_sequences,
    set_payload_mode,
)
from .sidechannel import (
    AnalysisError,
    JammerPlan,
    PairReport,
    PowerStats,
    PowerTrace,
    Spectrum,
    UciReport,
    attacker_demodulate,
    build_jammer,
    detect_fm_peaks,
    oracle_threshold_accuracy,
    pair_scan,
    power_stats,
    power_trace,
    spectrum,
    uci_scan,
)

__version__ = "0.1.0"
