import pytest

from regtri.geometry import facets, proper_faces


@pytest.fixture(autouse=True)
def empty_face_caches():
    """Start every test with empty face caches, so a test that counts
    calls reads the same run alone and in the suite."""
    facets.cache_clear()
    proper_faces.cache_clear()
