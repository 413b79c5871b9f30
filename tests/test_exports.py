"""The package's public name list."""

import dualgap


def test_all_is_sorted_unique_and_resolves():
    names = dualgap.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(dualgap, name)]
    assert missing == []
