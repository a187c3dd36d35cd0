"""The benchmark's tracer patches spslab attributes by name; each must exist.

``perfbench/tracing.py`` is read here, never changed: a refactor that drops
or renames a hooked attribute fails this test instead of breaking a traced
benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

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
