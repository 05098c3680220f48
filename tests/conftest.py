"""Fixtures shared by the test modules."""

import pytest

from xxchain import spectral


@pytest.fixture
def fresh_bulk_cache():
    """Clear the cached bulk modes around a test, so a mocked solver is reached."""
    spectral._bulk_modes.cache_clear()
    yield
    spectral._bulk_modes.cache_clear()
