"""The package namespace: what `from eigb import *` exports."""

import eigb


def test_all_names_resolve():
    missing = [name for name in eigb.__all__ if not hasattr(eigb, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(eigb.__all__)) == len(eigb.__all__)
