"""The package's public names: ``maxplus.__all__`` matches what it binds."""

import types

import maxplus


def test_all_names_resolve():
    missing = [name for name in maxplus.__all__ if not hasattr(maxplus, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(maxplus.__all__)) == len(maxplus.__all__)


def test_every_public_binding_is_listed():
    # submodules become attributes of the package once imported, so they
    # are not part of the listed surface
    public = {
        name
        for name, value in vars(maxplus).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(maxplus.__all__) == set()
