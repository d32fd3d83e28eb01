import tracemalloc

import pytest

from fairalloc import canonical_scenario


@pytest.fixture(scope="session")
def table_utilities():
    """The six reference curves used throughout, by user id: three sigmoid, three log."""
    return dict(canonical_scenario().users)


@pytest.fixture(scope="session")
def traced_peak():
    """A function that calls ``run(*args, **kwargs)`` under tracemalloc and returns its result and the peak traced bytes."""

    def peak(run, *args, **kwargs):
        tracemalloc.start()
        try:
            return run(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
