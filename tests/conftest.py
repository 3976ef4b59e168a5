"""Shared test setup."""

import pytest

from sharpcells import poly


@pytest.fixture(autouse=True)
def cold_kernel_memo():
    """Start every test with an empty exact-algebra memo, so that no result
    depends on which tests ran before it."""
    poly._memo.cache_clear()
