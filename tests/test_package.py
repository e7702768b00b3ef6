import ordembed


def test_every_exported_name_resolves():
    assert [name for name in ordembed.__all__
            if not hasattr(ordembed, name)] == []
