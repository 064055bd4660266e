import types

import fuzzmap


def test_all_names_the_public_attributes():
    # __all__ and the package namespace list the same public entries, so a
    # retired function cannot linger in one of them
    public = {name for name, value in vars(fuzzmap).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(fuzzmap.__all__)
