"""The package's public name list."""

import kvbell


def test_all_names_resolve_without_duplicates():
    assert len(kvbell.__all__) == len(set(kvbell.__all__))
    missing = [name for name in kvbell.__all__ if not hasattr(kvbell, name)]
    assert missing == []
