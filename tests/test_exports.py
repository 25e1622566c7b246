import graphpoly


def test_every_exported_name_resolves():
    assert len(set(graphpoly.__all__)) == len(graphpoly.__all__)
    for name in graphpoly.__all__:
        getattr(graphpoly, name)
