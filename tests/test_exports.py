import ftqc


def test_every_exported_name_resolves():
    missing = [name for name in ftqc.__all__ if not hasattr(ftqc, name)]
    assert missing == []
