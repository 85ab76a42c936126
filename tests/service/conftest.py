"""Fixtures shared by the service tests."""

import gc

import pytest


@pytest.fixture
def frozen_heap():
    """Keep what the test session allocated before this test out of the
    garbage collector while it runs.

    The deadline tests bound an answer to 0.05-0.2 s past its deadline.
    A full collection stops every thread while it scans the heap, and
    late in a whole test session that heap takes 100-200 ms to scan on a
    2-vCPU host: one such collection inside a timed window makes a
    punctual answer late.  Collecting once and freezing the survivors
    leaves the collector only the objects the test itself allocates, as
    a server process has only its own.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
