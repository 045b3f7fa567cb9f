"""The package's public names: every entry of ``hisekt.__all__`` resolves, so a name removed
from a module cannot stay listed, and a star import binds them all."""

import hisekt


def test_every_exported_name_resolves():
    assert len(set(hisekt.__all__)) == len(hisekt.__all__)
    assert [name for name in hisekt.__all__ if not hasattr(hisekt, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hisekt import *", namespace)
    assert set(hisekt.__all__) <= set(namespace)
