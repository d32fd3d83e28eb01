import pytest

from fairalloc import canonical_scenario


@pytest.fixture(scope="session")
def table_utilities():
    """The six reference curves used throughout, by user id: three sigmoid, three log."""
    return dict(canonical_scenario().users)
