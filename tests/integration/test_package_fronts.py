"""The lazy package fronts ``repro``, ``repro.runtime``, ``repro.eval``,
``repro.codegen``, ``repro.dsl`` and ``repro.apps``.

Each front imports a name's submodule when the name is first read
(PEP 562).  Its table is the only list of names: every ``__all__`` entry
must be the object its submodule defines, ``dir()`` and ``import *`` must
see them all, and a name the table lacks must fail as an ordinary missing
attribute does.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

FRONTS = ("repro", "repro.runtime", "repro.eval", "repro.codegen", "repro.dsl",
          "repro.apps")


@pytest.fixture(params=FRONTS)
def front(request):
    return importlib.import_module(request.param)


def test_every_name_is_its_submodules_object(front):
    assert front.__all__ == list(front._EXPORTS)
    for name, submodule in front._EXPORTS.items():
        source = importlib.import_module(submodule, front.__name__)
        assert getattr(front, name) is getattr(source, name), name


def test_no_name_is_shadowed_by_a_submodule(front):
    # Importing ``<front>.<sub>`` binds the submodule on the package, over a
    # lazily cached value of the same name.
    submodules = {info.name for info in pkgutil.iter_modules(front.__path__)}
    assert not submodules & set(front.__all__)


def test_an_unknown_name_raises_attribute_error(front):
    with pytest.raises(AttributeError, match=f"module '{front.__name__}' has "
                                             f"no attribute 'no_such_name'"):
        front.no_such_name


def test_dir_lists_all(front):
    assert set(front.__all__) <= set(dir(front))


def test_star_import_binds_all(front):
    namespace: dict = {}
    exec(f"from {front.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(front.__all__)
    for name, value in namespace.items():
        assert value is getattr(front, name)


def test_the_version_is_a_literal_setup_cfg_can_read():
    # ``version = attr: repro.__version__`` is read from the syntax tree,
    # without importing the package.
    import repro

    tree = ast.parse(Path(repro.__file__).read_text(encoding="utf-8"))
    literals = [node.value.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets]
                == ["__version__"]
                and isinstance(node.value, ast.Constant)]
    assert literals == [repro.__version__]
