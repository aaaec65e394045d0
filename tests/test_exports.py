"""The package's export list names exactly what it binds."""

import inspect

import fibcube


def test_star_import_binds_exactly_all():
    assert len(fibcube.__all__) == len(set(fibcube.__all__))
    namespace = {}
    exec("from fibcube import *", namespace)  # raises if a listed name does not resolve
    namespace.pop("__builtins__")
    assert set(namespace) == set(fibcube.__all__)
    for name in fibcube.__all__:
        assert namespace[name] is getattr(fibcube, name)


def test_every_public_name_is_exported():
    # an import left behind in __init__ without its export, or the reverse
    public = {
        name
        for name, value in vars(fibcube).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(fibcube.__all__)
