"""The package's export list."""

import types

import fusionring


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(fusionring).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(fusionring.__all__) == len(set(fusionring.__all__))
    assert set(fusionring.__all__) == public


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fusionring import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fusionring.__all__)
