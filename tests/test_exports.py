import lungrisk


def test_every_exported_name_resolves():
    # a name in __all__ that the package no longer defines, such as the
    # export of a deleted function, makes the star import raise
    namespace = {}
    exec("from lungrisk import *", namespace)
    assert set(lungrisk.__all__) <= namespace.keys()
    assert len(set(lungrisk.__all__)) == len(lungrisk.__all__)
