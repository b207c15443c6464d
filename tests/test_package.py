"""Package surface: every submodule imports first in a fresh interpreter,
the benchmark's tracer finds every name it patches, and the test settings
report a failing property test."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

pytest_plugins = ["pytester"]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_submodule_imports_first_and_netcore_loads_only_the_kernel():
    # netcore and the kernel import each other; a submodule that loads
    # before netcore's model is defined fails on a partly initialised module
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys
        import fmlab

        def loaded():
            return sorted(n for n in sys.modules if n.split(".")[0] == "fmlab")

        names = [m.name for m in pkgutil.iter_modules(fmlab.__path__) if m.name != "__main__"]
        for name in [*names, "netcore"]:
            for module in loaded():
                del sys.modules[module]
            importlib.import_module(f"fmlab.{name}")
        assert loaded() == ["fmlab", "fmlab.kernel", "fmlab.netcore"], loaded()
        """
    )
    result = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
