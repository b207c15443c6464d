"""Package surface: every exported name resolves, the benchmark's tracer
finds every name it patches, and the test settings report a failing
property test."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import fmlab

pytest_plugins = ["pytester"]

MODULES = [importlib.import_module(f"fmlab.{m.name}") for m in pkgutil.iter_modules(fmlab.__path__)]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_entries_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_perfbench_tracer_patches_existing_names_and_restores_them(monkeypatch):
    # the benchmark imports its workloads and patches fmlab's entry points
    # by name: a renamed or deleted name fails here before a benchmark run
    tracing = _load_perfbench("tracing", monkeypatch)
    _load_perfbench("workloads", monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._undo)
    finally:
        tracer.unpatch()
    assert patched
    for owner, attr, orig in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, f"{owner.__name__}.{attr} was not restored"


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
