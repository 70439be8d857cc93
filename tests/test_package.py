"""The public namespace of the package."""

import bugshare


def test_every_exported_name_resolves():
    missing = [name for name in bugshare.__all__ if not hasattr(bugshare, name)]
    assert not missing
    assert len(set(bugshare.__all__)) == len(bugshare.__all__)
