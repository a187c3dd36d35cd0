import importlib

import numpy as np
import pytest

import spslab as sl

# frozen oracle values for u(x) = exp(-|x|^2) on a well-resolved grid,
# cross-checked by radial quadrature of the closed-form Fourier transforms
GAUSS_L2_SQ = (np.pi / 2.0) ** 1.5          # 1.9687012432153024
GAUSS_HDOT_SQ = np.pi                        # homogeneous H^{1/2} square
GAUSS_HHALF_SQ = 3.7787677959466572          # inhomogeneous H^{1/2} square
GAUSS_HMINUS_SQ = 1.112101313253473          # H^{-1/2} square
GAUSS_LP_83 = (3.0 * np.pi / 8.0) ** 1.5     # ||u||_{8/3}^{8/3} = 1.278708966814844
GAUSS_LP_52 = (np.pi / 2.5) ** 1.5           # ||u||_{5/2}^{5/2} = 1.408687938309684
GAUSS_D = np.pi**2.5 / 4.0                   # Coulomb double integral
GAUSS_PHI0 = np.pi                           # Coulomb potential at the origin
GAUSS_WEINSTEIN = 0.6849361479891047         # quotient of the Gaussian

GAUSS_WIDTH = 2.0**-0.5  # exp(-|x|^2) = gaussian_field(width=1/sqrt(2))


@pytest.fixture(scope="session")
def grid64():
    return sl.make_grid(64, 16.0)


@pytest.fixture(scope="session")
def grid32():
    return sl.make_grid(32, 16.0)


@pytest.fixture(scope="session")
def grid16():
    return sl.make_grid(16, 8.0)


@pytest.fixture(scope="session")
def gauss64(grid64):
    return sl.gaussian_field(grid64, GAUSS_WIDTH)


@pytest.fixture(scope="session")
def gauss32(grid32):
    return sl.gaussian_field(grid32, GAUSS_WIDTH)


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _logged(fn, name, events):
    def call(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)

    return call


class LoggedFft:
    """Stands in for a module's ``scipy.fft`` alias and logs each call of
    any of its functions: as ``label`` when one is given, else as the
    function's name."""

    def __init__(self, real, events, label=None):
        self._real = real
        self._events = events
        self._label = label

    def __getattr__(self, attr):
        value = getattr(self._real, attr)
        if not callable(value):
            return value
        return _logged(value, self._label or attr, self._events)


def log_transforms(monkeypatch, names, events, label=None):
    """Log every scipy.fft call that the spslab modules ``names`` make: each
    call through a module's ``_fft`` alias (``LoggedFft``), and each call of
    its ``irfftn_consuming`` as one ``irfftn`` (or ``label``), since from
    32^3 on that helper runs the inverse as two scipy calls on the alias of
    ``fields``, which is not logged."""
    for name in names:
        module = importlib.import_module(f"spslab.{name}")
        monkeypatch.setattr(module, "_fft", LoggedFft(module._fft, events, label))
        if hasattr(module, "irfftn_consuming"):
            monkeypatch.setattr(module, "irfftn_consuming",
                                _logged(module.irfftn_consuming, label or "irfftn", events))
