import netsec


def test_exports_resolve_and_are_unique():
    assert len(netsec.__all__) == len(set(netsec.__all__))
    for name in netsec.__all__:
        assert hasattr(netsec, name), name
