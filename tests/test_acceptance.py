"""Acceptance criteria, one test per criterion.

The criteria live in ``fmlab.verify``: each test runs the checks that
carry its criterion (shared with ``test_verify_check``, so every check
runs once) and requires each of them to say so in its docstring.
"""

import inspect

from fmlab import verify

CARRIERS = {
    1: ("fmlogic-duty-cycles",),
    2: ("fmlogic-gate-correctness", "fmlogic-latency"),
    3: ("fmlogic-no-constant-nets",),
    4: ("trojankit-concealment-balance",),
    5: ("trojankit-mode-separation", "sidechannel-demodulation"),
    6: ("trojankit-retry-rate",),
    7: ("trojankit-trigger-locks", "trojankit-trigger-soundness"),
    8: ("sidechannel-jamming-monotone",),
    9: ("cli-scenario-determinism",),
}


def _criterion(n, run_check):
    checks = dict(verify.CHECKS)
    for name in CARRIERS[n]:
        assert inspect.getdoc(checks[name]).startswith(f"Criterion {n}"), name
        ok, detail = run_check(name)
        assert ok, f"{name}: {detail}"


def test_carriers_match_the_battery():
    named = {n for names in CARRIERS.values() for n in names}
    claimed = {
        name for name, fn in verify.CHECKS if (inspect.getdoc(fn) or "").startswith("Criterion ")
    }
    assert named == claimed


def test_c1_encoding_and_frequency(run_check):
    _criterion(1, run_check)


def test_c2_gate_correctness_and_latency(run_check):
    _criterion(2, run_check)


def test_c3_uci_evasion(run_check):
    _criterion(3, run_check)


def test_c4_concealment_balance(run_check):
    _criterion(4, run_check)


def test_c5_payload_channel(run_check):
    _criterion(5, run_check)


def test_c6_trigger_statistics(run_check):
    _criterion(6, run_check)


def test_c7_locking(run_check):
    _criterion(7, run_check)


def test_c8_jamming(run_check):
    _criterion(8, run_check)


def test_c9_determinism(run_check):
    _criterion(9, run_check)
