"""The package's public names: each one ``__all__`` lists resolves, so a star
import binds them all."""

import segadapt


def test_every_name_in_all_resolves():
    assert [name for name in segadapt.__all__ if not hasattr(segadapt, name)] == []
    assert segadapt.__all__ == sorted(set(segadapt.__all__))


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from segadapt import *", namespace)
    assert set(segadapt.__all__) <= set(namespace)
