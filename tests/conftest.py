import pytest

from graphs import make_graph


@pytest.fixture
def single_link():
    """One helper, one user, unit gain."""
    return make_graph([[1.0]])
