import causalot


def test_public_names_resolve():
    missing = [name for name in causalot.__all__ if not hasattr(causalot, name)]
    assert not missing
    namespace = {}
    exec("from causalot import *", namespace)
    assert set(causalot.__all__) <= set(namespace)
