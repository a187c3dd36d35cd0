"""The package's export list: every name in ``spslab.__all__`` resolves."""

import pytest

import spslab


@pytest.mark.parametrize("name", spslab.__all__)
def test_exported_name_resolves(name):
    assert getattr(spslab, name) is not None


def test_star_import():
    namespace = {}
    exec("from spslab import *", namespace)
    assert set(spslab.__all__) <= set(namespace)
