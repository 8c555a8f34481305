import contextlib
import signal

import pytest

from mvspoly.gf import make_field
from mvspoly.oracle import census_subfield_valued, verify_low_degree_forms


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 1, 2)


@pytest.fixture(scope="session")
def f8():
    return make_field(2, 1, 3)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 1, 2)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 1, 6)


@pytest.fixture(scope="session")
def f729():
    return make_field(3, 1, 6)


@pytest.fixture(scope="session")
def f9_shift_forms(f9):
    """The exhaustive shift-branch form check over F_9, run once per session
    (several seconds) for every test that asserts on it."""
    return verify_low_degree_forms(f9, branch="shift")[0]


@pytest.fixture(scope="session")
def f9_census(f9):
    """The census of every function F_9 -> F_3, run once per session (about
    1.5 s) for every test that reads it."""
    return census_subfield_valued(f9)


@contextlib.contextmanager
def _time_limit(seconds):
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """`with time_limit(seconds):` raises TimeoutError in the block after
    `seconds` of wall time, so a call that would not return fails the test."""
    return _time_limit
