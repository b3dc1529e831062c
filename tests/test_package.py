"""The package's public names."""

import mortfpca


def test_every_exported_name_resolves():
    missing = [name for name in mortfpca.__all__ if not hasattr(mortfpca, name)]
    assert missing == []
    assert len(set(mortfpca.__all__)) == len(mortfpca.__all__)
