"""Package surface: the names ``from sparserecon import *`` provides."""

import types

import sparserecon


def test_all_names_resolve_and_are_not_modules():
    assert len(set(sparserecon.__all__)) == len(sparserecon.__all__)
    for name in sparserecon.__all__:
        value = getattr(sparserecon, name)
        assert not isinstance(value, types.ModuleType), name
    # every public non-module name the package binds is exported, so a name
    # dropped from __all__ cannot linger in the package
    bound = {name for name, value in vars(sparserecon).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sparserecon.__all__) == bound
