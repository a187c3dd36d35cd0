"""The benchmark's tracer patches spslab attributes by name; each must exist.

``perfbench/tracing.py`` is read here, never changed: a refactor that drops
or renames a hooked attribute fails this test instead of breaking a traced
benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

import spslab as sl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# run_path compiles the source in memory and writes no bytecode cache
HOOKS = runpy.run_path(str(TRACING))


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in HOOKS["CALL_SITES"]], ids=lambda v: v
)
def test_call_site_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"spslab.{module}"), attr))


@pytest.mark.parametrize("module", HOOKS["FFT_MODULES"])
def test_fft_alias_exists(module):
    assert hasattr(importlib.import_module(f"spslab.{module}"), "_fft")


def test_flow_evaluations_are_traced_as_gradient_evaluations(monkeypatch):
    # the tracer names a span by the ``with_gradient`` flag it reads off the
    # call; every evaluation of the flow carries the gradient
    minimize = importlib.import_module("spslab.minimize")
    calls = []

    def counted_evaluate(*args, _evaluate=minimize.evaluate, **kwargs):
        calls.append(kwargs)
        return _evaluate(*args, **kwargs)

    monkeypatch.setattr(minimize, "evaluate", counted_evaluate)
    tracer = HOOKS["Tracer"]()
    tracer.install()
    try:
        result = tracer.op("flow", "minimize", lambda: sl.minimize(
            sl.make_grid(16, 20.0), sl.Params(1.0, 1.0, 2.5, 0.1),
            sl.MinimizeConfig(max_iters=5, init_width=2.0),
        ))
    finally:
        tracer.uninstall()
    assert result.iterations == 5
    names = [span[0] for span in tracer.spans]
    assert len(calls) > 5
    assert names.count("energy.evaluate_grad") == len(calls)
    assert "energy.evaluate" not in names
