"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) -> (bytes allocated at the peak of the call, its result),
    as tracemalloc sees them; numpy reports its array buffers to tracemalloc."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return measure
