import importlib

import pytest

import laneemden


def test_exports_resolve():
    """Each public name is the attribute of the module that _EXPORTS names for it."""
    assert laneemden.__all__ == ["__version__", *laneemden._MODULE_OF]
    for module, names in laneemden._EXPORTS.items():
        mod = importlib.import_module(f"laneemden.{module}")
        for name in names:
            assert name in laneemden.__all__
            assert getattr(laneemden, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        laneemden.no_such_name
