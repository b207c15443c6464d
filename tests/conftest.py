"""Shared fixtures."""

import pytest

from fmlab import verify

# taken at import, so a test that monkeypatches verify.CHECKS changes nothing here
_CHECKS = dict(verify.CHECKS)
_RESULTS: dict = {}


@pytest.fixture
def run_check():
    """Run the ``fmlab verify`` check of that name; each runs once a session."""

    def run(name: str) -> verify.CheckResult:
        if name not in _RESULTS:
            _RESULTS[name] = _CHECKS[name]()
        return _RESULTS[name]

    return run
