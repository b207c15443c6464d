"""Package surface: every exported name resolves, and the test settings
report a failing property test."""

import importlib
import pkgutil

import pytest

import fmlab

pytest_plugins = ["pytester"]

MODULES = [importlib.import_module(f"fmlab.{m.name}") for m in pkgutil.iter_modules(fmlab.__path__)]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_entries_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_failing_property_test_does_not_stop_the_test_run(request, pytester):
    # with every warning an error, a deprecation warning that hypothesis
    # raises while it reports a falsifying example would end the test run
    # with INTERNALERROR; the project's filter list must let the failure
    # be reported and the next test run
    filters = "\n".join(f"    {f}" for f in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output, output
    result.assert_outcomes(failed=1, passed=1)
