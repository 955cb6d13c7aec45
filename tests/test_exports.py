import threshmatch


def test_all_is_unique_resolvable_and_star_importable():
    # a public type removed from a module but left in __all__ breaks star imports
    names = threshmatch.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(threshmatch, name)] == []
    namespace: dict = {}
    exec("from threshmatch import *", namespace)
    assert set(names) <= set(namespace)
