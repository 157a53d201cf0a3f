"""The package namespace: ``__all__`` matches what ``otiso`` exports."""

import otiso


def test_all_names_resolve_once():
    assert len(otiso.__all__) == len(set(otiso.__all__))
    assert [name for name in otiso.__all__ if not hasattr(otiso, name)] == []


def test_star_import_binds_all():
    namespace = {}
    exec("from otiso import *", namespace)
    assert set(otiso.__all__) <= set(namespace)
