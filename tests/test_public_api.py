"""plsa.__all__ and the package's public names stay in step."""

import types

import plsa


def test_every_listed_name_resolves_once():
    assert len(set(plsa.__all__)) == len(plsa.__all__)
    namespace = {}
    exec("from plsa import *", namespace)
    assert all(name in namespace for name in plsa.__all__)


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(plsa).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(plsa.__all__)
