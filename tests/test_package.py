import xxchain


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from xxchain import *", namespace)
    missing = [name for name in xxchain.__all__ if name not in namespace]
    assert not missing
    assert len(set(xxchain.__all__)) == len(xxchain.__all__)
