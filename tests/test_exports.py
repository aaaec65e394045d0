"""The package's export list names exactly what it binds, and the README's
library example runs against it."""

import inspect
import pathlib

import fibcube

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_exactly_all():
    assert len(fibcube.__all__) == len(set(fibcube.__all__))
    namespace = {}
    exec("from fibcube import *", namespace)  # raises if a listed name does not resolve
    namespace.pop("__builtins__")
    assert set(namespace) == set(fibcube.__all__)
    for name in fibcube.__all__:
        assert namespace[name] is getattr(fibcube, name)


def test_every_public_name_is_exported():
    # an export the package cannot bind, or a public name in __init__ without its
    # export; the package binds each export on first access, so access them all first
    for name in fibcube.__all__:
        getattr(fibcube, name)
    public = {
        name
        for name, value in vars(fibcube).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(fibcube.__all__)


def test_readme_library_example_runs():
    # a public name removed or renamed later fails here instead of leaving the README stale
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    block = section[start : section.index("\n```", start)]
    assert "CubeGraph(" in block
    exec(compile(block, "README.md (Library)", "exec"), {})
